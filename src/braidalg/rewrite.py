"""Relation orientation, rewriting, and degree-bounded completion.

orient_relations solves a homogeneous quadratic relation set for its
leading monomials: the reduced echelon basis of the relation span (with
respect to the presentation's monomial order), which every Presentation
stores as its relations, gives rules

    leading word  ->  combination of strictly smaller words,

and orientation fails exactly when solving forces a rule whose left side
is an ascending cross-copy word, which is what a singular exchange block
produces (see orient_relations).  Each rule carries a provenance: the
exact combination of stored relations it equals, so every chain of
rewrites can be replayed as an ideal-membership certificate.

Because no confluence is guaranteed for quadratic rewrite systems in
general, reduction alone only proves membership (residue zero), never
non-membership.  TruncatedGB closes the gap exactly: it resolves every
overlap ambiguity of composed degree <= D, adjoining the reduced residues
as extra (provenance-carrying) rules.  After that, normal forms are
canonical on all elements of degree <= D, so a nonzero residue is an
exact witness of non-membership at that degree bound.  Any adjoined rule
is reported as a completion warning: it witnesses that the quadratic
system by itself was not confluent.
"""

from __future__ import annotations

import heapq
import itertools
from operator import neg

from .ncalg import NCPoly, Presentation, word_str


class OrientationError(ValueError):
    """The relation set cannot be solved for its leading monomials."""


class Rule:
    """Rewrite rule lhs -> rhs with lhs - rhs a certified ideal element.

    provenance is a tuple of (left word, relation index, right word, coeff)
    with  lhs - rhs = sum coeff * left * relation * right.
    """

    __slots__ = ("lhs", "rhs", "provenance")

    def __init__(self, lhs, rhs: NCPoly, provenance):
        self.lhs = tuple(lhs)
        self.rhs = rhs
        self.provenance = tuple(provenance)

    def element(self, one) -> NCPoly:
        """lhs - rhs as a polynomial (one is the field unit)."""
        return NCPoly.term(self.lhs, one) - self.rhs

    def __repr__(self):
        return f"Rule({self.lhs} -> ...)"


class RewriteSystem:
    """An indexed set of rules over one presentation's monomial order."""

    def __init__(self, presentation: Presentation, rules):
        self.presentation = presentation
        self.rules = {}
        self.lengths = ()
        self._redex_cache = {}
        for rule in rules:
            self.add(rule)

    def add(self, rule: Rule):
        self.rules[rule.lhs] = rule
        if len(rule.lhs) not in self.lengths:
            self.lengths = tuple(sorted(self.lengths + (len(rule.lhs),)))
        self._redex_cache.clear()

    def __iter__(self):
        return iter(self.rules.values())

    def __len__(self):
        return len(self.rules)

    def find_redex(self, word):
        """Leftmost-outermost match: (position, rule) or None."""
        hit = self._redex_cache.get(word)
        if hit is not None:
            return hit if hit != () else None
        res = ()
        n = len(word)
        for pos in range(n):
            for L in self.lengths:
                if pos + L > n:
                    break
                rule = self.rules.get(word[pos:pos + L])
                if rule is not None:
                    res = (pos, rule)
                    break
            if res:
                break
        self._redex_cache[word] = res if res else ()
        return res if res else None

    def reduce(self, p: NCPoly, collect=False):
        """Fully reduce p; returns (residue, steps).

        steps is a list of (left word, rule, right word, coeff) with
        p = residue + sum coeff * left * (lhs - rhs) * right.
        """
        terms = dict(p.terms)
        steps = [] if collect else None
        # lazy-deletion max-heap over reducible words: the min-heap key
        # (-len(w), -w) is the deg-lex key (len(w), w) negated
        heap = []
        for w in terms:
            if self.find_redex(w):
                heapq.heappush(heap, (-len(w), tuple(map(neg, w)), w))
        while heap:
            w = heapq.heappop(heap)[2]
            c = terms.get(w)
            if not c:
                continue
            hit = self.find_redex(w)
            if hit is None:
                continue
            pos, rule = hit
            left, right = w[:pos], w[pos + len(rule.lhs):]
            del terms[w]
            for rw, rc in rule.rhs.terms.items():
                nw = left + rw + right
                v = c * rc
                s = terms.get(nw)
                had = nw in terms
                s = v if s is None else s + v
                if s:
                    terms[nw] = s
                    if not had and self.find_redex(nw):
                        heapq.heappush(heap, (-len(nw), tuple(map(neg, nw)), nw))
                else:
                    terms.pop(nw, None)
            if collect:
                steps.append((left, rule, right, c))
        return NCPoly(terms), steps

    def normal_words(self, degree):
        """All words of the given degree containing no rule left side."""
        gens = range(self.presentation.ngens)
        out = []

        def extend(word, d):
            if d == degree:
                out.append(word)
                return
            for g in gens:
                w2 = word + (g,)
                if any(w2[-L:] in self.rules for L in self.lengths if L <= len(w2)):
                    continue
                extend(w2, d + 1)

        extend((), 0)
        return out

    def count_normal_words(self, degree):
        if not self.lengths:
            return self.presentation.ngens ** degree
        if self.lengths == (2,):
            return self._count_quadratic(degree)
        return len(self.normal_words(degree))

    def _count_quadratic(self, degree):
        # transfer-matrix count: normal words are walks avoiding bad pairs
        gens = range(self.presentation.ngens)
        if degree == 0:
            return 1
        vec = {g: 1 for g in gens}
        for _ in range(degree - 1):
            nxt = {}
            for g in gens:
                n = 0
                for h in gens:
                    if (g, h) not in self.rules:
                        n += vec.get(h, 0)
                if n:
                    nxt[g] = n
            vec = nxt
        return sum(vec.values())


# ---------------------------------------------------------------------------
# orientation
# ---------------------------------------------------------------------------

def orient_relations(P: Presentation) -> RewriteSystem:
    """Solve the quadratic relations for their leading monomials.

    The reduced echelon basis of the relation span yields one rule per
    pivot word.  A presentation stores exactly that basis, so the rules
    are read off the stored relations, each with provenance the relation
    itself.  Cross-copy relations are exchange blocks: they may only
    rewrite "wrong-order" words (a later-copy generator passing an
    earlier-copy one) downwards.  When the exchange coefficient matrix is
    singular, solving the system forces a rule for an ascending cross-copy
    word that no given relation led with; that is the unsolvable case
    reported as OrientationError (permuting the generator precedence may
    help).  A relation explicitly written with an ascending leading word
    is taken at face value and oriented as given.
    """
    cached = P._cache.get("rules")
    if cached is not None:
        return cached
    order = P.order
    source_leads = {order.leading_word(r) for r in P.source_relations}
    copy_rank = {}
    for g in P.roster:
        copy_rank.setdefault(g.copy, len(copy_rank))
    rank = [copy_rank[g.copy] for g in P.roster]
    rules = []
    for i, r in enumerate(P.relations):
        lead = order.leading_word(r)
        g, h = lead
        if rank[g] < rank[h] and lead not in source_leads:
            raise OrientationError(
                f"cannot orient for this order: exchange coefficient matrix "
                f"is singular (forced a rule for the ascending cross-copy "
                f"word {word_str(lead, P.roster)})")
        rhs = NCPoly({w: -c for w, c in r.terms.items() if w != lead})
        rules.append(Rule(lead, rhs, (((), i, (), P.field.one),)))
    rs = RewriteSystem(P, rules)
    P._cache["rules"] = rs
    return rs


# ---------------------------------------------------------------------------
# degree-bounded completion
# ---------------------------------------------------------------------------

class TruncatedGB:
    """Rewrite system completed on all overlaps of composed degree <= bound.

    After construction, reduction is confluent on every element of degree
    <= bound, so the residue decides ideal membership exactly in both
    directions.  added_rules lists the non-quadratic rules that had to be
    adjoined; a nonempty list is the completion warning surfaced to
    callers (the quadratic system alone was not confluent).
    """

    def __init__(self, P: Presentation, bound: int):
        self.presentation = P
        self.bound = bound
        base = orient_relations(P)
        self.rs = RewriteSystem(P, list(base))
        self.added_rules = []
        pending = []
        seq = itertools.count()

        def enqueue(r1: Rule, r2: Rule):
            n1, n2 = len(r1.lhs), len(r2.lhs)
            for ell in range(1, min(n1, n2)):
                if r1.lhs[n1 - ell:] == r2.lhs[:ell]:
                    w = r1.lhs + r2.lhs[ell:]
                    if len(w) <= bound:
                        heapq.heappush(pending, (len(w), w, next(seq), r1, r2))

        # the oriented rules are quadratic, so r1 overlaps r2 exactly when
        # r1's last generator is r2's first; pairs are enqueued in the
        # order of a full scan, which fixes the order of equal overlap words
        rules0 = list(self.rs)
        by_first = {}
        for r in rules0:
            by_first.setdefault(r.lhs[0], []).append(r)
        for r1 in rules0:
            for r2 in by_first.get(r1.lhs[1], ()):
                enqueue(r1, r2)
        while pending:
            _, w, _, r1, r2 = heapq.heappop(pending)
            one = P.field.one
            suffix = w[len(r1.lhs):]
            prefix = w[:len(w) - len(r2.lhs)]
            p1 = r1.rhs.sandwich((), suffix)
            p2 = r2.rhs.sandwich(prefix, ())
            diff = p1 - p2
            if not diff:
                continue
            residue, steps = self.rs.reduce(diff, collect=True)
            if not residue:
                continue
            prov = {}
            accumulate_terms(prov, r2.provenance, one, prefix)
            accumulate_terms(prov, r1.provenance, -one, (), suffix)
            for left, rule, right, c in steps:
                accumulate_terms(prov, rule.provenance, -c, left, right)
            lead = P.order.leading_word(residue)
            lc = residue.terms[lead]
            inv = one / lc
            rhs = NCPoly({ww: -c * inv for ww, c in residue.terms.items() if ww != lead})
            new = Rule(lead, rhs, tuple((lw, i, rw, c * inv)
                                        for lw, i, rw, c in sorted_terms(prov)))
            self.rs.add(new)
            self.added_rules.append(new)
            for r in list(self.rs):
                enqueue(r, new)
                if r is not new:
                    enqueue(new, r)

    @property
    def completion_warning(self) -> bool:
        return bool(self.added_rules)

    def reduce(self, p: NCPoly, collect=False):
        return self.rs.reduce(p, collect=collect)


def accumulate_terms(acc: dict, terms, c, left=(), right=()):
    """Add c * left * term * right for each certificate term
    (lw, idx, rw, cc) into acc, keyed (left + lw, idx, rw + right);
    zero sums are dropped."""
    for lw, idx, rw, cc in terms:
        k = (left + lw, idx, rw + right)
        v = acc.get(k)
        v = c * cc if v is None else v + c * cc
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)


def sorted_terms(acc: dict) -> tuple:
    """Accumulated terms as (left, idx, right, coeff) ordered by
    (idx, left, right), the canonical order of certificates."""
    return tuple((lw, i, rw, c) for (lw, i, rw), c in
                 sorted(acc.items(), key=lambda kv: (kv[0][1], kv[0][0], kv[0][2])))


def truncated_gb(P: Presentation, bound: int) -> TruncatedGB:
    gb = P._cache.get(("gb", bound))
    if gb is None:
        gb = TruncatedGB(P, bound)
        P._cache[("gb", bound)] = gb
    return gb
