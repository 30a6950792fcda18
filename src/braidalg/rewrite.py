"""Relation orientation, rewriting, and degree-bounded completion.

orient_relations solves a homogeneous quadratic relation set for its
leading monomials: the reduced echelon basis of the relation span (with
respect to the presentation's monomial order), which every Presentation
stores as its relations, gives rules

    leading word  ->  combination of strictly smaller words,

and orientation fails exactly when solving forces a rule whose left side
is an ascending cross-copy word, which is what a singular exchange block
produces (see orient_relations).  Each rule carries its source: the stored
relation it was read off, or the derivation of an adjoined rule from
earlier rules, which ideals expands into membership certificates.

A RewriteSystem has one reducer, on word codes: a word of length L is the
base-n integer of its roster positions, n = max(ngens, 2).  Every position
is below n, so among words of one length integer order is tuple order,
which is deg-lex; and the subword of length ell at position i is
w // n**(L-i-ell) % n**ell.  The rules are indexed once, by left-side
length, on these codes.  reduce rewrites one degree part at a time (every
rule is homogeneous), largest word first at its leftmost redex, decoding
words only for the residue and the collected steps.  Invariant: the left
sides form an antichain under the subword order, so at most one matches
at any position.  It holds because the quadratic left sides are distinct,
an adjoined left side leads a fully reduced residue, and adjoined lengths
never decrease.

Because no confluence is guaranteed for quadratic rewrite systems in
general, reduction alone only proves membership (residue zero), never
non-membership.  TruncatedGB closes the gap exactly: it resolves every
overlap ambiguity of composed degree <= D, adjoining the reduced residues
as extra rules derived by that reduction; each rule, initial or adjoined,
is paired on arrival with itself and every earlier rule.  After that, normal
forms are canonical on all elements of degree <= D, so a nonzero residue
is an exact witness of non-membership at that degree bound.  Any adjoined
rule is reported as a completion warning: the quadratic system by itself
was not confluent.  A class pass runs first: it resolves the degree-3
overlaps of one copy subset per class of subsets whose rules agree up to
an order-preserving relabelling, and when all vanish no other overlap is
touched (see TruncatedGB).  It builds each overlap difference as coded
terms and reduces it with the same loop that reduce runs.  Work over
MAX_COMPLETION_WORK units (one per overlap reduction plus its steps)
raises CompletionBudgetError.
"""

from __future__ import annotations

import heapq
import itertools

from .ncalg import NCPoly, Presentation, word_str

# far above the ~9.6e4 units of the largest benchmark job, far below a
# completion without end
MAX_COMPLETION_WORK = 500_000


class OrientationError(ValueError):
    """The relation set cannot be solved for its leading monomials."""


class CompletionBudgetError(RuntimeError):
    """Completion needed more than MAX_COMPLETION_WORK units of work."""


class Rule:
    """Rewrite rule lhs -> rhs with lhs - rhs an ideal element.

    source is the index of the stored relation lhs - rhs was read off, or
    for an adjoined rule a tuple of (left word, earlier rule, right word,
    coeff) with  lhs - rhs = sum coeff * left * (rule.lhs - rule.rhs) * right.
    """

    __slots__ = ("lhs", "rhs", "source")

    def __init__(self, lhs, rhs: NCPoly, source):
        self.lhs = tuple(lhs)
        self.rhs = rhs
        self.source = source

    def element(self, one) -> NCPoly:
        """lhs - rhs as a polynomial (one is the field unit)."""
        return NCPoly.term(self.lhs, one) - self.rhs

    def __repr__(self):
        return f"Rule({self.lhs} -> ...)"


class RewriteSystem:
    """Rules over one presentation's order.  index maps each left-side
    length to {lhs code: (rule, ((rhs code, coeff), ...))}, and _probes each
    word length to the places a left side fits, leftmost first."""

    def __init__(self, presentation: Presentation, rules):
        self.presentation = presentation
        self.n = max(presentation.ngens, 2)
        self.rules, self.index, self._probes = {}, {}, {}
        for rule in rules:
            self.add(rule)

    def add(self, rule: Rule):
        ell = len(rule.lhs)
        if any(len(w) != ell for w in rule.rhs.terms):
            raise ValueError(f"{rule} is not homogeneous")
        if ell not in self.index:
            self.index[ell] = {}
            self._probes.clear()
        self.rules[rule.lhs] = rule
        self.index[ell][self.code(rule.lhs)] = (
            rule, tuple((self.code(w), c) for w, c in rule.rhs.terms.items()))

    def __iter__(self):
        return iter(self.rules.values())

    def __len__(self):
        return len(self.rules)

    def code(self, word) -> int:
        n, w = self.n, 0
        for g in word:
            w = w * n + g
        return w

    def decode(self, w: int, length: int) -> tuple:
        n, out = self.n, [0] * length
        for i in range(length - 1, -1, -1):
            w, out[i] = divmod(w, n)
        return tuple(out)

    def find_redex(self, w: int, length: int):
        """Leftmost redex of the word of this length coded w, or None:
        (position, divisor, rest, (rule, coded rhs)) with
        w = rest + divisor * (code of rule.lhs)."""
        try:
            probes = self._probes[length]
        except KeyError:
            n = self.n
            probes = self._probes[length] = [
                (i, n ** (length - i - ell), n ** ell, table.get)
                for i in range(length) for ell, table in sorted(self.index.items())
                if i + ell <= length]
        for i, div, mod, get in probes:
            key = w // div % mod
            hit = get(key)
            if hit is not None:
                return i, div, w - key * div, hit
        return None

    def _reduce_coded(self, terms: dict, length: int, steps=None) -> int:
        """Fully reduce terms, a dict from codes of words of this length to
        coefficients, in place: largest word first, its leftmost redex.
        Returns the number of steps and appends (code, position, rule,
        coeff) of each to steps when given."""
        find, push, pop = self.find_redex, heapq.heappush, heapq.heappop
        # max-heap of negated codes; a word is searched when it comes up
        heap = [-w for w in terms]
        heapq.heapify(heap)
        count = 0
        while heap:
            w = -pop(heap)
            c = terms.get(w)
            if c is None:
                continue
            hit = find(w, length)
            if hit is None:
                continue
            del terms[w]
            count += 1
            i, div, rest, (rule, rhs) = hit
            for u, rc in rhs:
                nw = u * div + rest
                v = c * rc
                s = terms.get(nw)
                if s is None:
                    terms[nw] = v
                    push(heap, -nw)
                elif s := s + v:
                    terms[nw] = s
                else:
                    del terms[nw]
            if steps is not None:
                steps.append((w, i, rule, c))
        return count

    def reduce(self, p: NCPoly, collect=False):
        """Fully reduce p; returns (residue, steps).

        One degree part at a time, longest first.  steps is a list of
        (left word, rule, right word, coeff) with
        p = residue + sum coeff * left * (lhs - rhs) * right.
        """
        parts, residue, steps = {}, {}, [] if collect else None
        for w, c in p.terms.items():
            parts.setdefault(len(w), {})[self.code(w)] = c
        for length in sorted(parts, reverse=True):
            terms, coded = parts[length], [] if collect else None
            self._reduce_coded(terms, length, coded)
            for w, c in terms.items():
                residue[self.decode(w, length)] = c
            for w, i, rule, c in coded or ():
                word = self.decode(w, length)
                steps.append((word[:i], rule, word[i + len(rule.lhs):], c))
        return NCPoly._raw(residue), steps

    def normal_word_counts(self, bound):
        """Numbers of words of degrees 0..bound that contain no left side.

        The left sides go in a trie (the goto part of an Aho-Corasick
        automaton) of dicts from generator to child, with the rules as
        leaves.  A state is the longest suffix read so far that is a proper
        prefix of a left side: a trie inner node, numbered breadth-first.
        goto[s][g] is the state after reading g (None when that completes a
        left side) and fail[s] < s the state of the longest proper suffix
        of s.
        """
        trie = {}
        for lhs, rule in self.rules.items():
            node = trie
            for g in lhs[:-1]:
                node = node.setdefault(g, {})
            node[lhs[-1]] = rule
        nodes, fail, goto = [trie], [0], []
        for s, node in enumerate(nodes):
            back = goto[fail[s]] if s else [0] * self.presentation.ngens
            row = list(back)
            for g, child in node.items():
                if type(child) is Rule:
                    row[g] = None
                else:
                    fail.append(back[g])
                    row[g] = len(nodes)
                    nodes.append(child)
            goto.append(row)
        counts, vec = [1], {0: 1}
        for _ in range(bound):
            nxt = {}
            for s, c in vec.items():
                for t in goto[s]:
                    if t is not None:
                        nxt[t] = nxt.get(t, 0) + c
            counts.append(sum(nxt.values()))
            vec = nxt
        return counts


# ---------------------------------------------------------------------------
# orientation
# ---------------------------------------------------------------------------

def orient_relations(P: Presentation) -> RewriteSystem:
    """Solve the quadratic relations for their leading monomials.

    The reduced echelon basis of the relation span yields one rule per
    pivot word.  A presentation stores exactly that basis, so the rules
    are read off the stored relations, each with source the relation's
    index.  Cross-copy relations are exchange blocks: they may only
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
        rules.append(Rule(lead, rhs, i))
    P._cache["rules"] = rs = RewriteSystem(P, rules)
    return rs


# ---------------------------------------------------------------------------
# degree-bounded completion
# ---------------------------------------------------------------------------

def _overlap_terms(pairs, n, a, b, c):
    """rhs(ab)*c - a*rhs(bc) as a dict from word code to coefficient; pairs
    is the index of the length-2 left sides."""
    terms = {v * n + c: rc for v, rc in pairs[a * n + b][1]}
    hi = a * n * n
    for v, rc in pairs[b * n + c][1]:
        w, nc = hi + v, -rc
        s = terms.get(w)
        s = nc if s is None else s + nc
        if s:
            terms[w] = s
        else:
            del terms[w]
    return terms


class TruncatedGB(RewriteSystem):
    """Rewrite system completed on all overlaps of composed degree <= bound.

    After construction, reduction is confluent on every element of degree
    <= bound, so the residue decides ideal membership exactly in both
    directions.  added_rules lists the non-quadratic rules that had to be
    adjoined; a nonempty list is the completion warning surfaced to
    callers (the quadratic system alone was not confluent).

    The class pass (_resolved_by_classes) runs first, then completion
    (_complete) from scratch unless every class resolved to zero.  One
    representative decides a class: every rule keeps the copy multiset of
    its left side, so an overlap's resolution stays on its at most three
    copies and uses only their rules (the diamond lemma is local); an
    order-preserving relabelling of copies keeps deg-lex, so it carries
    reductions on one subset to those on another with equal relabelled
    rules; and a subset's key holds the signatures of its single copies and
    copy pairs, which hold all its rules.  Quadratic left sides overlap only
    in degree 3, so if every class resolves to zero they are the basis for
    every bound.  The pass needs only whether each residue is zero and how
    many steps it took, so it builds each difference as coded degree-3
    terms (_overlap_terms) and reduces them with reduce's own loop
    (_reduce_coded), decoding no word and building no polynomial.
    classes, class_overlaps (reduced), fell_back and work (units spent)
    record what construction did.
    """

    def __init__(self, P: Presentation, bound: int):
        super().__init__(P, orient_relations(P))
        self.bound = bound
        self.added_rules = []
        self.work = self.classes = self.class_overlaps = 0
        self.fell_back = not self._resolved_by_classes()
        if self.fell_back:
            self._complete()

    def _charge(self, units):
        self.work += units
        if self.work > MAX_COMPLETION_WORK:
            raise CompletionBudgetError(
                f"completion to degree {self.bound} needs more than "
                f"{MAX_COMPLETION_WORK} units of reduction work")

    def _resolved_by_classes(self) -> bool:
        """Resolve the degree-3 overlaps of one copy subset per class, on
        word codes.  False at the first nonzero residue, or when bound < 3,
        the copies are not contiguous equal-size roster blocks, or a rule
        changes the copy multiset of a word."""
        roster = self.presentation.roster
        ncopies = len({g.copy for g in roster})
        size = len(roster) // max(ncopies, 1)
        if self.bound < 3 or size * ncopies != len(roster) or any(
                g.copy != roster[i - i % size].copy for i, g in enumerate(roster)):
            return False
        on, ids = {}, {}
        for rule in self:
            copies = sorted(g // size for g in rule.lhs)
            if any(sorted(g // size for g in w) != copies for w in rule.rhs.terms):
                return False
            on.setdefault(tuple(sorted(set(copies))), []).append(rule)

        def signature(content):
            # the rules on exactly these copies, relabelled in order onto 0..k-1
            to = {g: g - (c - j) * size for j, c in enumerate(content)
                  for g in range(c * size, c * size + size)}
            return ids.setdefault(tuple(sorted(
                (tuple(map(to.get, r.lhs)),
                 tuple(sorted((tuple(map(to.get, w)), c) for w, c in r.rhs.terms.items())))
                for r in on.get(content, ()))), len(ids))

        def parts(s):
            # the single copies and copy pairs of s
            return [t for k in (1, 2) for t in itertools.combinations(s, k)]

        sig = {t: signature(t) for t in parts(range(ncopies))}
        classes = {}
        for k in (1, 2, 3):
            for s in itertools.combinations(range(ncopies), k):
                classes.setdefault(tuple(sig[t] for t in parts(s)), s)
        self.classes = len(classes)
        # every rule is quadratic here: the right letters of the rules on b
        follow = {}
        for b, c in self.rules:
            follow.setdefault(b, []).append(c)
        n, pairs = self.n, self.index.get(2, {})
        for s in classes.values():
            for r1 in itertools.chain.from_iterable(on.get(t, ()) for t in parts(s)):
                a, b = r1.lhs
                for c in follow.get(b, ()):
                    if {a // size, b // size, c // size} != set(s):
                        continue
                    terms = _overlap_terms(pairs, n, a, b, c)
                    if terms:
                        self._charge(1 + self._reduce_coded(terms, 3))
                        self.class_overlaps += 1
                        if terms:  # reduced in place to the residue
                            return False
        return True

    def _complete(self):
        """Resolve every overlap of composed degree <= bound, smallest word
        first, equal words in the order they were paired."""
        bound, P = self.bound, self.presentation
        pending, arrived, seq = [], [], itertools.count()
        by_first, by_last = {}, {}

        def enqueue(r1: Rule, r2: Rule):
            n1, n2 = len(r1.lhs), len(r2.lhs)
            for ell in range(1, min(n1, n2)):
                if r1.lhs[n1 - ell:] == r2.lhs[:ell]:
                    w = r1.lhs + r2.lhs[ell:]
                    if len(w) <= bound:
                        heapq.heappush(pending, (len(w), w, next(seq), r1, r2))

        def arrive(rule: Rule):
            # pair rule with itself and, in arrival order, each earlier rule
            # that ends in lhs[:-1] (a left overlap) or starts in lhs[1:]
            self.add(rule)
            n, lhs = len(arrived), rule.lhs
            arrived.append(rule)
            partners = {n}
            for g in set(lhs[:-1]):
                partners.update(by_last.get(g, ()))
            for g in set(lhs[1:]):
                partners.update(by_first.get(g, ()))
            by_first.setdefault(lhs[0], []).append(n)
            by_last.setdefault(lhs[-1], []).append(n)
            for i in sorted(partners):
                enqueue(arrived[i], rule)
                if i != n:
                    enqueue(rule, arrived[i])

        for rule in list(self):
            arrive(rule)
        one = P.field.one
        while pending:
            _, w, _, r1, r2 = heapq.heappop(pending)
            suffix = w[len(r1.lhs):]
            prefix = w[:len(w) - len(r2.lhs)]
            diff = r1.rhs.sandwich((), suffix) - r2.rhs.sandwich(prefix, ())
            if not diff:
                continue
            residue, steps = self.reduce(diff, collect=True)
            self._charge(1 + len(steps))
            if not residue:
                continue
            lead = P.order.leading_word(residue)
            inv = one / residue.terms[lead]
            ninv = -inv
            rhs = NCPoly({ww: c * ninv for ww, c in residue.terms.items() if ww != lead})
            # residue = prefix * r2 - r1 * suffix - sum c * left * rule * right
            new = Rule(lead, rhs, ((prefix, r2, (), inv), ((), r1, suffix, ninv),
                                   *((left, rule, right, c * ninv)
                                     for left, rule, right, c in steps)))
            self.added_rules.append(new)
            arrive(new)

    @property
    def completion_warning(self) -> bool:
        return bool(self.added_rules)


def truncated_gb(P: Presentation, bound: int) -> TruncatedGB:
    gb = P._cache.get(("gb", bound))
    if gb is None:
        gb = TruncatedGB(P, bound)
        P._cache[("gb", bound)] = gb
    return gb
