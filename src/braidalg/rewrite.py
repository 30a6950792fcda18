"""Relation orientation, rewriting, and degree-bounded completion.

orient_relations solves a homogeneous quadratic relation set for its
leading monomials: the reduced echelon basis of the relation span (with
respect to the presentation's monomial order), which every Presentation
stores as its relations, gives rules

    leading word  ->  combination of strictly smaller words,

and orientation fails exactly when solving forces a rule whose left side
is an ascending cross-copy word, which is what a singular exchange block
produces; Presentation raises OrientationError then, so every
presentation orients.  Each rule carries its source: the stored relation
it was read off, or the derivation of an adjoined rule from earlier
rules, which ideals expands into membership certificates.

A RewriteSystem has one reducer, on word codes: a word of length L is the
base-n integer of its roster positions, n = max(ngens, 2), so among words
of one length integer order is deg-lex, and the subword of length ell at
position i is w // n**(L-i-ell) % n**ell.  The rules are indexed once, by
left-side length, on these codes, and each coefficient is coded as its
index into the system's value table, so one loop serves Q(q) and Z/MZ.
reduce rewrites one degree part at a time (every rule is homogeneous),
largest word first at its leftmost redex.  Invariant: the left sides form
an antichain under the subword order, so at most one matches at any
position.  It holds because the quadratic left sides are distinct, an
adjoined left side leads a fully reduced residue, and adjoined lengths
never decrease.

Because no confluence is guaranteed for quadratic rewrite systems in
general, reduction alone only proves membership (residue zero), never
non-membership.  QuadraticSystem runs a class pass that decides the
confluence of the quadratic rules by copy classes (Bergman's diamond lemma,
Adv. Math. 29, 1978), at a sample point by one random combination of
each class's overlaps (Schwartz, J. ACM 27, 1980).  TruncatedGB closes the
gap exactly: it resolves every overlap ambiguity of composed degree <= D,
adjoining the reduced residues as extra rules derived by that reduction.
After that, normal forms are canonical on all elements of degree <= D, so
a nonzero residue is an exact witness of non-membership at that degree
bound.  Any adjoined
rule is reported as a completion warning: the quadratic system by itself
was not confluent.  Work over MAX_COMPLETION_WORK units (one per overlap
reduction, or per word entering a combination, plus its steps) raises
CompletionBudgetError.
"""

from __future__ import annotations

import heapq
import itertools
import random
import threading

from .ncalg import NCPoly, Presentation, _place

# far above the ~9.6e4 units of the largest benchmark job, far below a
# completion without end
MAX_COMPLETION_WORK = 500_000
# a sampled class pass reduces a combination before it passes this many
# words (the GL_q(4) square's larger class sums 9,600)
MAX_COMBINATION_WORDS = MAX_COMPLETION_WORK // 100


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

    def __repr__(self):
        return f"Rule({self.lhs} -> ...)"


class RewriteSystem:
    """Rules over one presentation's order.

    The reducer codes every coefficient it touches as its index into the
    value table values, where index 0 is zero.  index maps each left-side
    length to {lhs code: (rule, ((rhs code, value index, product row),
    ...))}; the product row of a right-side value r is shared by every term
    with that value and maps an index c to the index of values[c] *
    values[r], and _sums maps a pair of indices to the index of their sum.
    A miss computes with the field's own * and + and indexes the result
    under a lock, so threads reducing at once never give one value two
    indices, and every memo entry names the one index of its value.
    _probes maps each word length to the places a left side fits,
    leftmost first.  _arrived lists the rules as they arrived, and
    _prefixes and _suffixes map each proper prefix and suffix of a left
    side to the arrival indices of its rules, ascending."""

    def __init__(self, presentation: Presentation, rules):
        self.presentation = presentation
        self.n = max(presentation.ngens, 2)
        self.rules, self.index, self._probes = {}, {}, {}
        self._arrived, self._prefixes, self._suffixes = [], {}, {}
        field = presentation.field
        self.values, self._ids = [field.zero], {field.zero: 0}
        self._rows, self._sums, self._lock = {}, {}, threading.Lock()
        self._minus = self.value_index(-field.one)
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
        coded = []
        for w, c in rule.rhs.terms.items():
            r = self.value_index(c)
            coded.append((self.code(w), r, self._rows.setdefault(r, {})))
        self.index[ell][self.code(rule.lhs)] = (rule, tuple(coded))
        i = len(self._arrived)
        self._arrived.append(rule)
        for k in range(1, ell):
            self._prefixes.setdefault(rule.lhs[:k], []).append(i)
            self._suffixes.setdefault(rule.lhs[-k:], []).append(i)

    def __iter__(self):
        return iter(self.rules.values())

    def __len__(self):
        return len(self.rules)

    def value_index(self, x) -> int:
        """The index of the value x, added to the table on a miss."""
        i = self._ids.get(x)
        if i is None:
            if not x:
                return 0
            with self._lock:
                i = self._ids.get(x)
                if i is None:
                    i = len(self.values)
                    self.values.append(x)
                    self._ids[x] = i
        return i

    def _times(self, c, r, row) -> int:
        """The index of values[c] * values[r], row being r's product row."""
        v = row.get(c)
        if v is None:
            v = row[c] = self.value_index(self.values[c] * self.values[r])
        return v

    def _plus(self, s, v) -> int:
        """The index of values[s] + values[v]."""
        t = self._sums.get((s, v))
        if t is None:
            t = self._sums[s, v] = self.value_index(self.values[s] + self.values[v])
        return t

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

    def _probes_at(self, length: int) -> list:
        """(position, divisor, modulus, lookup) of each place a left side
        of some length fits in a word of this length, leftmost first."""
        probes = self._probes.get(length)
        if probes is None:
            n = self.n
            probes = self._probes[length] = [
                (i, n ** (length - i - ell), n ** ell, table.get)
                for i in range(length) for ell, table in sorted(self.index.items())
                if i + ell <= length]
        return probes

    def find_redex(self, w: int, length: int):
        """Leftmost redex of the word of this length coded w, or None:
        (position, divisor, rest, (rule, coded rhs)) with
        w = rest + divisor * (code of rule.lhs)."""
        for i, div, mod, get in self._probes_at(length):
            key = w // div % mod
            hit = get(key)
            if hit is not None:
                return i, div, w - key * div, hit
        return None

    def _reduce_coded(self, terms: dict, length: int, steps=None) -> int:
        """Fully reduce terms, a dict from codes of words of this length to
        value indices, in place: largest word first, its leftmost redex.
        Returns the number of steps and appends (code, position, rule,
        coeff index) of each to steps when given.  The redex search is
        find_redex's, read inline."""
        probes, push, pop = self._probes_at(length), heapq.heappush, heapq.heappop
        sums, times, plus = self._sums, self._times, self._plus
        # max-heap of negated codes; a word is searched when it comes up
        heap = [-w for w in terms]
        heapq.heapify(heap)
        count = 0
        while heap:
            w = -pop(heap)
            c = terms.get(w)
            if c is None:
                continue
            for i, div, mod, get in probes:
                key = w // div % mod
                hit = get(key)
                if hit is not None:
                    break
            else:
                continue
            del terms[w]
            count += 1
            rule, rhs = hit
            rest = w - key * div
            for u, r, row in rhs:
                nw = u * div + rest
                v = row.get(c)
                if v is None:
                    v = times(c, r, row)
                s = terms.get(nw)
                if s is None:
                    terms[nw] = v
                    push(heap, -nw)
                    continue
                t = sums.get((s, v))
                if t is None:
                    t = plus(s, v)
                if t:
                    terms[nw] = t
                else:
                    del terms[nw]
            if steps is not None:
                steps.append((w, i, rule, c))
        return count

    def reduce(self, p: NCPoly, collect=False):
        """Fully reduce p; returns (residue, steps).

        One degree part at a time, longest first, its coefficients coded
        through the value table.  steps is a list of (left word, rule,
        right word, coeff) with p = residue + sum coeff * left * (lhs - rhs) * right.
        """
        parts, residue, steps = {}, {}, [] if collect else None
        values = self.values
        for w, c in p.terms.items():
            parts.setdefault(len(w), {})[self.code(w)] = self.value_index(c)
        for length in sorted(parts, reverse=True):
            terms, coded = parts[length], [] if collect else None
            self._reduce_coded(terms, length, coded)
            for w, c in terms.items():
                residue[self.decode(w, length)] = values[c]
            if collect:
                steps.extend(self._decode_steps(coded, length))
        return NCPoly._raw(residue), steps

    def _decode_steps(self, coded, length):
        """_reduce_coded's steps on words of this length as reduce's."""
        values = self.values
        for w, i, rule, c in coded:
            word = self.decode(w, length)
            yield word[:i], rule, word[i + len(rule.lhs):], values[c]

    def normal_word_counts(self, bound):
        """Numbers of words of degrees 0..bound that contain no left side.

        A state is the longest suffix read so far that is a proper prefix of
        a left side, the empty word included.  Reading g from state s leads
        to the longest suffix of s + (g,) that is a left side, where the
        word ends (None), or a proper prefix: the left sides are an
        antichain, so a left side is never a suffix of a proper prefix.
        """
        rules, states = self.rules, {(): 0}
        for p in self._prefixes:
            states[p] = len(states)
        goto = []
        for s in states:
            row = []
            for t in (s + (g,) for g in range(self.presentation.ngens)):
                u = next(t[i:] for i in range(len(t) + 1) if t[i:] in rules or t[i:] in states)
                row.append(None if u in rules else states[u])
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

def orient_relations(P: Presentation) -> tuple:
    """The Rules that solve the quadratic relations for their leading
    monomials, as a tuple (a RewriteSystem indexes them).

    The reduced echelon basis of the relation span yields one rule per
    pivot word.  A presentation stores exactly that basis, and refuses a
    singular exchange block, so the rules are read off the stored
    relations, each with source the relation's index.  Each distinct
    coefficient is negated once; no negative is zero.
    """
    neg = {c: -c for c in dict.fromkeys(c for r in P.relations for c in r.terms.values())}
    return tuple(Rule(lead, NCPoly._raw({w: neg[c] for w, c in r.terms.items() if w != lead}), i)
                 for i, (r, lead) in enumerate(zip(P.relations, P.leads)))


# ---------------------------------------------------------------------------
# degree-bounded completion
# ---------------------------------------------------------------------------

def _overlap_terms(rs: RewriteSystem, r1: Rule, r2: Rule, ell: int):
    """rhs(r1)*s - p*rhs(r2) as a dict from word code to value index, for
    rules p+m -> ... and m+s -> ... of rs, m of ell letters."""
    n, n2, k1, k2 = rs.n, len(r2.lhs), rs.code(r1.lhs), rs.code(r2.lhs)
    tail = n ** (n2 - ell)
    terms = {v * tail + k2 % tail: r for v, r, _ in rs.index[len(r1.lhs)][k1][1]}
    hi = k1 // n ** ell * n ** n2
    for v, r, row in rs.index[n2][k2][1]:
        w, nr = hi + v, rs._times(rs._minus, r, row)
        s = terms.get(w)
        s = nr if s is None else rs._plus(s, nr)
        if s:
            terms[w] = s
        else:
            del terms[w]
    return terms


class QuadraticSystem(RewriteSystem):
    """The quadratic rules of a presentation after the class pass at a
    degree bound.  confluent is True when every class resolved to zero, so
    the rules are the basis for the bound (quadratic left sides overlap
    only in degree 3); False when a class left a nonzero residue, so
    completion adjoins a rule (it reduces the degree-3 overlaps first, with
    only these rules until it adjoins one, and this overlap is among them).
    At a sample point (presentation.point) True errs with probability at
    most 1/p per class, p the least prime of M.

    One representative decides a class of copy subsets.  A Presentation
    places every form on one copy, with its words on that copy, or on two,
    with one letter from each in every word; so every rule keeps the copy
    multiset of its left side, an overlap's resolution stays on its at
    most three copies and uses only their rules (the diamond lemma is
    local).  An order-preserving relabelling of copies keeps deg-lex, so
    it carries reductions on one subset to those on another with equal
    relabelled rules; and a subset's key holds the canonical forms placed
    on its single copies and copy pairs (equal forms are one object), which
    give all its rules.  A plain relation list is one placement on one
    copy, so one class decides it.  classes, class_overlaps (nonzero
    differences built) and work (units spent) record what the pass did.
    """

    def __init__(self, P: Presentation, bound: int):
        super().__init__(P, orient_relations(P))
        self.bound = bound
        self.added_rules = []
        self.work = self.classes = self.class_overlaps = 0
        self.confluent = self._resolved_by_classes()

    @property
    def completion_warning(self) -> bool:
        """Completion adjoins rules: it did, or the class pass proved it will."""
        return bool(self.added_rules) or not self.confluent

    def _charge(self, units):
        self.work += units
        if self.work > MAX_COMPLETION_WORK:
            raise CompletionBudgetError(
                f"completion to degree {self.bound} needs more than "
                f"{MAX_COMPLETION_WORK} units of reduction work")

    def _resolved_by_classes(self):
        """Resolve the degree-3 overlaps of one copy subset per class, on
        word codes.  False at the first nonzero residue; True at once when
        bound < 3 or there are no placements, since no overlap lies within
        the bound.  At a sample point each class reduces one combination of
        its overlaps, weighted by a generator seeded by the point."""
        P = self.presentation
        placements, ngens = P.placements, P.ngens
        if self.bound < 3 or not placements:
            return True
        # at most one nonempty form per copies, each canonical form one object
        size = placements[0][1]
        on = {copies: form for form, _, copies in placements if form}
        sig = {t: id(form) for t, form in on.items()}

        def parts(s):
            # the single copies and copy pairs of s
            return [t for k in (1, 2) for t in itertools.combinations(s, k)]

        def overlaps(s):
            # the nonzero overlap differences on all of s, from the rules of
            # the forms placed on each single copy and copy pair of s
            for r1 in [self.rules[max(r.terms)] for t in parts(s) if t in on
                       for r in _place(on[t], size, t)]:
                a, b = r1.lhs
                # every rule is quadratic here: the rules that start with b
                for r2 in map(arrived.__getitem__, prefixes.get((b,), ())):
                    if {a // size, b // size, r2.lhs[1] // size} == set(s):
                        terms = _overlap_terms(self, r1, r2, 1)
                        if terms:
                            self.class_overlaps += 1
                            yield terms

        classes = {}
        for k in (1, 2, 3):
            for s in itertools.combinations(range(ngens // size), k):
                classes.setdefault(tuple(sig.get(t) for t in parts(s)), s)
        self.classes = len(classes)
        arrived, prefixes = self._arrived, self._prefixes
        rng = None if P.point is None else random.Random(P.point.v)
        for s in classes.values():
            if rng is not None:
                if not self._combination_resolves(overlaps(s), rng):
                    return False
                continue
            for terms in overlaps(s):
                self._charge(1 + self._reduce_coded(terms, 3))
                if terms:  # reduced in place to the residue
                    return False
        return True

    def _combination_resolves(self, overlaps, rng) -> bool:
        """Whether sum lambda_i * d_i over the overlap differences d_i, each
        lambda_i uniform in Z/MZ, reduces to zero.  Reduction (largest word
        first, its leftmost redex) is linear, so the residue is
        sum lambda_i * r_i of their residues: zero when every r_i is, else
        zero with probability at most 1/p, p the least prime of M.  Each
        word entering costs a unit; a combination is reduced before it
        would pass MAX_COMBINATION_WORDS words."""
        M, values = self.presentation.field.M, self.values
        raw = [x.v for x in values]
        combination = {}
        for terms in overlaps:
            if len(combination) + len(terms) > MAX_COMBINATION_WORDS:
                if not self._reduces_to_zero(combination, raw, M):
                    return False
            self._charge(len(terms))
            lam = rng.randrange(M)
            for w, c in terms.items():
                s = (combination.get(w, 0) + lam * values[c].v) % M
                if s:
                    combination[w] = s
                else:
                    combination.pop(w, None)
        return self._reduces_to_zero(combination, raw, M)

    def _reduces_to_zero(self, terms: dict, raw: list, M: int) -> bool:
        """_reduce_coded on words of length 3 with residues mod M for
        coefficients, raw[r] the residue of value index r; charges the
        steps and says whether the residue is zero."""
        probes, push, pop = self._probes_at(3), heapq.heappush, heapq.heappop
        heap = [-w for w in terms]
        heapq.heapify(heap)
        count = 0
        while heap:
            w = -pop(heap)
            c = terms.get(w)
            if c is None:
                continue
            for _, div, mod, get in probes:
                key = w // div % mod
                hit = get(key)
                if hit is not None:
                    break
            else:
                continue
            del terms[w]
            count += 1
            rest = w - key * div
            for u, r, _ in hit[1]:
                nw = u * div + rest
                s = terms.get(nw)
                if s is None:
                    terms[nw] = c * raw[r] % M
                    push(heap, -nw)
                elif s := (s + c * raw[r]) % M:
                    terms[nw] = s
                else:
                    del terms[nw]
        self._charge(count)
        return not any(terms.values())


class TruncatedGB(QuadraticSystem):
    """Rewrite system completed on all overlaps of composed degree <= bound.

    After construction, reduction is confluent on every element of degree
    <= bound, so the residue decides ideal membership exactly in both
    directions.  Completion (_complete) runs from scratch after the class
    pass unless every class resolved; added_rules lists the rules it
    adjoined, and a nonempty list is the completion warning.  Both passes
    build each overlap difference as coded terms (_overlap_terms) and
    reduce it with reduce's own loop (_reduce_coded); _complete decodes
    words, values and steps only for a residue it adjoins, whose leading
    word is its largest code (codes of one length compare in deg-lex).
    """

    def __init__(self, P: Presentation, bound: int):
        super().__init__(P, bound)
        if not self.confluent:
            self._complete()

    def _complete(self):
        """Resolve every overlap of composed degree <= bound, smallest word
        first, equal words in the order they were paired on arrival."""
        bound, arrived = self.bound, self._arrived
        prefixes, suffixes = self._prefixes, self._suffixes
        pending, seq = [], itertools.count()

        def arrive(n: int):
            # pair rule n with itself and each earlier rule it overlaps within
            # the bound: by arrival index, (earlier, n) before (n, earlier),
            # the shortest overlap first
            lhs = arrived[n].lhs
            m, pairs = len(lhs), []
            for ell in range(1, m):
                # earlier rules ending in lhs[:ell], then starting with lhs[-ell:]
                for later, index in ((0, suffixes.get(lhs[:ell], ())),
                                     (1, prefixes.get(lhs[m - ell:], ()))):
                    for i in itertools.takewhile(lambda i: i + later <= n, index):
                        if len(arrived[i].lhs) + m - ell <= bound:
                            pairs.append((i, later, ell))
            pairs.sort()
            for i, later, ell in pairs:
                r1, r2 = (arrived[n], arrived[i]) if later else (arrived[i], arrived[n])
                w = r1.lhs + r2.lhs[ell:]
                heapq.heappush(pending, (len(w), w, next(seq), r1, r2))

        for n in range(len(arrived)):
            arrive(n)
        one, values = self.presentation.field.one, self.values
        while pending:
            length, w, _, r1, r2 = heapq.heappop(pending)
            terms = _overlap_terms(self, r1, r2, len(r1.lhs) + len(r2.lhs) - length)
            if not terms:
                continue
            steps = []
            self._charge(1 + self._reduce_coded(terms, length, steps))
            if not terms:
                continue
            lead = max(terms)
            inv = one / values[terms.pop(lead)]
            ninv = -inv
            rhs = NCPoly({self.decode(u, length): values[c] * ninv for u, c in terms.items()})
            prefix, suffix = w[:length - len(r2.lhs)], w[len(r1.lhs):]
            # residue = prefix * r2 - r1 * suffix - sum c * left * rule * right
            new = Rule(self.decode(lead, length), rhs, (
                (prefix, r2, (), inv), ((), r1, suffix, ninv),
                *((left, rule, right, c * ninv)
                  for left, rule, right, c in self._decode_steps(steps, length))))
            self.added_rules.append(new)
            self.add(new)
            arrive(len(arrived) - 1)


def truncated_gb(P: Presentation, bound: int) -> QuadraticSystem:
    """The complete basis of P at bound, cached: TruncatedGB(P, bound), or
    the quadratic_system itself when its class pass resolved."""
    gb = P._cache.get(("gb", bound))
    if gb is None:
        gb = P._cache[("gb", bound)] = TruncatedGB(P, bound)
    return gb


def quadratic_system(P: Presentation, bound: int) -> QuadraticSystem:
    """P's quadratic rules after the class pass at bound, cached.  Rules
    the pass resolved are stored as truncated_gb(P, bound) too, so it runs
    once."""
    quad = P._cache.get(("quadratic", bound))
    if quad is None:
        quad = QuadraticSystem(P, bound)
        if quad.confluent:
            quad = P._cache.setdefault(("gb", bound), quad)
        P._cache[("quadratic", bound)] = quad
    return quad
