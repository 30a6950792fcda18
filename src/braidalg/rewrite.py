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

A RewriteSystem keeps the left sides in a trie (the goto part of an
Aho-Corasick automaton) that find_redex walks from each position of a word
and normal_word_counts walks degree by degree.  Invariant: the left sides
form an antichain under the subword order, so at most one matches at any
position and every trie leaf is a rule.  It holds because the quadratic
left sides are distinct, an adjoined left side leads a fully reduced
residue, and adjoined lengths never decrease.

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
touched (see TruncatedGB).  It reduces them in a loop of its own on
integer-coded degree-3 words with a table of the quadratic rules
(_pair_table), taking the steps reduce would take; reduce stays the one
general reducer.  Work over MAX_COMPLETION_WORK units (one per overlap
reduction plus its steps) raises CompletionBudgetError.
"""

from __future__ import annotations

import heapq
import itertools
from operator import neg

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
    """Rules over one presentation's order; the trie's inner nodes are
    dicts from generator to child, its leaves the rules."""

    def __init__(self, presentation: Presentation, rules):
        self.presentation = presentation
        self.rules = {}
        self._trie = {}
        for rule in rules:
            self.add(rule)

    def add(self, rule: Rule):
        self.rules[rule.lhs] = rule
        node = self._trie
        for g in rule.lhs[:-1]:
            node = node.setdefault(g, {})
        node[rule.lhs[-1]] = rule

    def __iter__(self):
        return iter(self.rules.values())

    def __len__(self):
        return len(self.rules)

    def find_redex(self, word):
        """Leftmost match: (position, rule) or None."""
        for pos in range(len(word)):
            node = self._trie
            for g in word[pos:]:
                node = node.get(g)
                if node is None:
                    break
                if type(node) is Rule:
                    return pos, node
        return None

    def reduce(self, p: NCPoly, collect=False):
        """Fully reduce p; returns (residue, steps).

        steps is a list of (left word, rule, right word, coeff) with
        p = residue + sum coeff * left * (lhs - rhs) * right.
        """
        terms = dict(p.terms)
        steps = [] if collect else None
        # lazy-deletion max-heap over reducible words and their redexes:
        # the min-heap key (-len(w), -w) is the deg-lex key (len(w), w) negated
        heap = []
        for w in terms:
            hit = self.find_redex(w)
            if hit:
                heapq.heappush(heap, (-len(w), tuple(map(neg, w)), w, hit))
        while heap:
            _, _, w, (pos, rule) = heapq.heappop(heap)
            c = terms.pop(w, None)
            if c is None:
                continue
            left, right = w[:pos], w[pos + len(rule.lhs):]
            for rw, rc in rule.rhs.terms.items():
                nw = left + rw + right
                v = c * rc
                s = terms.get(nw)
                if s is None:
                    terms[nw] = v
                    hit = self.find_redex(nw)
                    if hit:
                        heapq.heappush(heap, (-len(nw), tuple(map(neg, nw)), nw, hit))
                elif s := s + v:
                    terms[nw] = s
                else:
                    del terms[nw]
            if collect:
                steps.append((left, rule, right, c))
        return NCPoly(terms), steps

    def normal_word_counts(self, bound):
        """Numbers of words of degrees 0..bound that contain no left side.

        A state is the longest suffix read so far that is a proper prefix
        of a left side: a trie inner node, numbered breadth-first.  goto[s][g]
        is the state after reading g (None when that completes a left side)
        and fail[s] < s the state of the longest proper suffix of s.
        """
        nodes, fail, goto = [self._trie], [0], []
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

def _pair_table(rules, n):
    """The quadratic rules on integer-coded words: slot x*n + y holds the
    right side of rule xy as ((y'*n + z', coeff), ...), or None.

    A degree-3 word (a, b, c) is coded (a*n + b)*n + c, so among words of
    one length deg-lex is integer order, and its redexes are the slots
    w // n (position 0) and w % n**2 (position 1).  The table has n**2 slots.
    """
    table = [None] * (n * n)
    for rule in rules:
        x, y = rule.lhs
        table[x * n + y] = tuple((v * n + z, c) for (v, z), c in rule.rhs.terms.items())
    return table


def _overlap_terms(table, n, a, b, c):
    """rhs(ab)*c - a*rhs(bc) as a dict from word code to coefficient."""
    terms = {v * n + c: rc for v, rc in table[a * n + b]}
    hi = a * n * n
    for v, rc in table[b * n + c]:
        w, nc = hi + v, -rc
        s = terms.get(w)
        s = nc if s is None else s + nc
        if s:
            terms[w] = s
        else:
            del terms[w]
    return terms


def _cubic_steps(table, n, terms):
    """Fully reduce the degree-3 polynomial terms (a dict from word code to
    coefficient, reduced in place) by the rules of table; returns the number
    of steps.  These are the steps RewriteSystem.reduce takes: largest word
    first, its leftmost redex."""
    nn = n * n
    heap = [-w for w in terms if table[w // n] is not None or table[w % nn] is not None]
    heapq.heapify(heap)
    steps = 0
    while heap:
        w = -heapq.heappop(heap)
        c = terms.pop(w, None)
        if c is None:
            continue
        steps += 1
        rhs = table[w // n]
        if rhs is None:
            rhs, scale, add = table[w % nn], 1, w - w % nn
        else:
            scale, add = n, w % n
        for u, rc in rhs:
            nw = u * scale + add
            v = c * rc
            s = terms.get(nw)
            if s is None:
                terms[nw] = v
                if table[nw // n] is not None or table[nw % nn] is not None:
                    heapq.heappush(heap, -nw)
            elif s := s + v:
                terms[nw] = s
            else:
                del terms[nw]
    return steps


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
    many steps it took, so it reduces on word codes (_cubic_steps) rather
    than through reduce and the trie, and builds no polynomial.  classes,
    class_overlaps (reduced), fell_back and work (units spent) record what
    construction did.
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
        integer-coded words (see _pair_table).  False at the first nonzero
        residue, or when bound < 3, the copies are not contiguous equal-size
        roster blocks, or a rule changes the copy multiset of a word."""
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
        # the representatives' overlaps reduce only by their own rules
        used = {t: on.get(t, ()) for s in classes.values() for t in parts(s)}
        n = len(roster)
        table = _pair_table(itertools.chain.from_iterable(used.values()), n)
        for s in classes.values():
            for r1 in itertools.chain.from_iterable(used[t] for t in parts(s)):
                a, b = r1.lhs
                # the trie holds only quadratic rules: b's node maps c to rule bc
                for c in self._trie.get(b, {}):
                    if {a // size, b // size, c // size} != set(s):
                        continue
                    terms = _overlap_terms(table, n, a, b, c)
                    if terms:
                        self._charge(1 + _cubic_steps(table, n, terms))
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
