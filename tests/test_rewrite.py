"""RewriteSystem's coded redex search and reducer against reference
oracles: the leftmost match found naively, the tuple-word trie reducer that
the coded reducer replaced, the overlap difference of two quadratic rules,
and normal words counted by brute force, over random antichains of left
sides."""

import heapq
import itertools
from operator import neg

from hypothesis import given, settings
from hypothesis import strategies as st

from braidalg import qscalar as qs
from braidalg.ncalg import Generator, NCPoly, Presentation
from braidalg.rewrite import RewriteSystem, Rule, _overlap_terms

# interned values, so that equal coefficients are the same object
COEFFS = st.sampled_from([qs.ONE, -qs.ONE, qs.Q, qs.QINV, qs.Q - qs.QINV,
                          qs.parse_scalar("1/(1 + q)"), qs.RatFunc.from_int(2)])


def _contains(word, sub):
    n = len(sub)
    return any(word[i:i + n] == sub for i in range(len(word) - n + 1))


# ---------------------------------------------------------------------------
# the reference: rewriting on tuple words through a trie of left sides
# ---------------------------------------------------------------------------

def reference_trie(rules):
    """The left sides of rules in a trie: inner nodes are dicts from
    generator to child, leaves the rules."""
    trie = {}
    for rule in rules:
        node = trie
        for g in rule.lhs[:-1]:
            node = node.setdefault(g, {})
        node[rule.lhs[-1]] = rule
    return trie


def reference_find_redex(trie, word):
    """Leftmost match: (position, rule) or None."""
    for pos in range(len(word)):
        node = trie
        for g in word[pos:]:
            node = node.get(g)
            if node is None:
                break
            if type(node) is Rule:
                return pos, node
    return None


def reference_reduce(rules, p: NCPoly, collect=False):
    """Fully reduce p by rules on tuple words, largest word first (deg-lex)
    and its leftmost redex; returns (residue, steps) as
    RewriteSystem.reduce does."""
    trie = reference_trie(rules)
    terms = dict(p.terms)
    steps = [] if collect else None
    # lazy-deletion max-heap over reducible words and their redexes:
    # the min-heap key (-len(w), -w) is the deg-lex key (len(w), w) negated
    heap = []
    for w in terms:
        hit = reference_find_redex(trie, w)
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
                hit = reference_find_redex(trie, nw)
                if hit:
                    heapq.heappush(heap, (-len(nw), tuple(map(neg, nw)), nw, hit))
            elif s := s + v:
                terms[nw] = s
            else:
                del terms[nw]
        if collect:
            steps.append((left, rule, right, c))
    return NCPoly(terms), steps


# ---------------------------------------------------------------------------
# random systems
# ---------------------------------------------------------------------------

@st.composite
def _antichain_systems(draw, min_gens=2):
    """A RewriteSystem over min_gens-4 generators whose left sides (length
    2-4) form an antichain under the subword order; each right side is a
    combination of up to three smaller words of its left side's length."""
    ngens = draw(st.integers(min_gens, 4))
    words = draw(st.lists(st.lists(st.integers(0, ngens - 1), min_size=2, max_size=4)
                          .map(tuple), min_size=1, max_size=12))
    lhss = []
    for w in words:
        if not any(_contains(w, v) or _contains(v, w) for v in lhss):
            lhss.append(w)
    rules = []
    for w in lhss:
        smaller = [v for v in itertools.product(range(ngens), repeat=len(w)) if v < w]
        rhs = {}
        if smaller:
            rhs = draw(st.dictionaries(st.sampled_from(smaller), COEFFS, max_size=3))
        rules.append(Rule(w, NCPoly(rhs), ()))
    P = Presentation(ngens, [Generator("x", 1, j) for j in range(ngens)], [])
    return RewriteSystem(P, rules)


@settings(max_examples=150, deadline=None)
@given(rs=_antichain_systems(), data=st.data())
def test_find_redex_is_the_leftmost_match(rs, data):
    ngens = rs.presentation.ngens
    word = tuple(data.draw(st.lists(st.integers(0, ngens - 1), max_size=12)))
    naive = next(((pos, rule) for pos in range(len(word)) for rule in rs
                  if word[pos:pos + len(rule.lhs)] == rule.lhs), None)
    w = rs.code(word)
    hit = rs.find_redex(w, len(word))
    if naive is None:
        assert hit is None
    else:
        pos, div, rest, (rule, rhs) = hit
        assert (pos, rule) == naive
        # the redex is the left side's code at its position
        assert w == rest + div * rs.code(rule.lhs)
        assert div == rs.n ** (len(word) - pos - len(rule.lhs))
        assert rhs == tuple((rs.code(v), c) for v, c in rule.rhs.terms.items())
    assert rs.decode(w, len(word)) == word


@settings(max_examples=200, deadline=None)
@given(rs=_antichain_systems(min_gens=1), data=st.data())
def test_coded_reduce_takes_the_steps_of_the_reference(rs, data):
    ngens = rs.presentation.ngens
    word = st.lists(st.integers(0, ngens - 1), max_size=6).map(tuple)
    p = NCPoly(data.draw(st.dictionaries(word, COEFFS, max_size=8)))
    # multiples of rule elements, so that terms cancel and residues vanish
    for _ in range(data.draw(st.integers(0, 3))):
        element = data.draw(st.sampled_from(list(rs))).element(qs.ONE)
        left, right = data.draw(word), data.draw(word)
        p = p + element.sandwich(left, right).scale(data.draw(COEFFS))
    residue, steps = rs.reduce(p, collect=True)
    ref_residue, ref_steps = reference_reduce(rs, p, collect=True)
    assert residue == ref_residue
    assert len(steps) == len(ref_steps)
    for (left, rule, right, c), (rleft, rrule, rright, rc) in zip(steps, ref_steps):
        assert (left, right) == (rleft, rright)
        assert rule is rrule and c is rc
    assert rs.reduce(p) == (residue, None)


@settings(max_examples=100, deadline=None)
@given(rs=_antichain_systems())
def test_overlap_terms_are_the_overlap_difference(rs):
    # the class pass's coded difference for each pair of quadratic rules
    # ab -> ..., bc -> ...
    for (a, b, *longer), r1 in rs.rules.items():
        for c in range(rs.presentation.ngens):
            r2 = rs.rules.get((b, c))
            if not longer and r2 is not None:
                diff = r1.rhs.sandwich((), (c,)) - r2.rhs.sandwich((a,), ())
                assert _overlap_terms(rs.index[2], rs.n, a, b, c) == {
                    rs.code(w): v for w, v in diff.terms.items()}


@settings(max_examples=100, deadline=None)
@given(rs=_antichain_systems())
def test_normal_word_counts_match_brute_force(rs):
    ngens = rs.presentation.ngens
    brute = [sum(1 for w in itertools.product(range(ngens), repeat=d)
                 if not any(_contains(w, rule.lhs) for rule in rs))
             for d in range(7)]
    assert rs.normal_word_counts(6) == brute
