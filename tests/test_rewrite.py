"""The left-side trie of RewriteSystem against naive oracles: redex search
and normal-word counting over random antichains of left sides; and the
class pass's reduction on integer-coded degree-3 words against
RewriteSystem.reduce over random quadratic systems."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from braidalg.ncalg import Generator, NCPoly, Presentation
from braidalg.rewrite import RewriteSystem, Rule, _cubic_steps, _overlap_terms, _pair_table

COEFFS = st.sampled_from([-2, -1, 1, 2])


def _contains(word, sub):
    n = len(sub)
    return any(word[i:i + n] == sub for i in range(len(word) - n + 1))


@st.composite
def _antichain_systems(draw):
    """A RewriteSystem over 2-4 generators whose left sides (length 2-4)
    form an antichain under the subword order; the rules' right sides do
    not matter to the index."""
    ngens = draw(st.integers(2, 4))
    words = draw(st.lists(st.lists(st.integers(0, ngens - 1), min_size=2, max_size=4)
                          .map(tuple), min_size=1, max_size=12))
    lhss = []
    for w in words:
        if not any(_contains(w, v) or _contains(v, w) for v in lhss):
            lhss.append(w)
    P = Presentation(ngens, [Generator("x", 1, j) for j in range(ngens)], [])
    return RewriteSystem(P, [Rule(w, NCPoly.zero(), ()) for w in lhss])


@settings(max_examples=150, deadline=None)
@given(rs=_antichain_systems(), data=st.data())
def test_find_redex_is_the_leftmost_match(rs, data):
    ngens = rs.presentation.ngens
    word = tuple(data.draw(st.lists(st.integers(0, ngens - 1), max_size=12)))
    naive = next(((pos, rule) for pos in range(len(word)) for rule in rs
                  if word[pos:pos + len(rule.lhs)] == rule.lhs), None)
    assert rs.find_redex(word) == naive


@settings(max_examples=100, deadline=None)
@given(rs=_antichain_systems())
def test_normal_word_counts_match_brute_force(rs):
    ngens = rs.presentation.ngens
    brute = [sum(1 for w in itertools.product(range(ngens), repeat=d)
                 if not any(_contains(w, rule.lhs) for rule in rs))
             for d in range(7)]
    assert rs.normal_word_counts(6) == brute


@st.composite
def _quadratic_systems(draw):
    """A RewriteSystem over 2-4 generators whose left sides are distinct
    words of length 2 (so an antichain), each rewritten to a combination of
    smaller length-2 words with small integer coefficients."""
    ngens = draw(st.integers(2, 4))
    pairs = list(itertools.product(range(ngens), repeat=2))
    rules = []
    for w in draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)):
        smaller = pairs[:pairs.index(w)]
        rhs = {}
        if smaller:
            rhs = draw(st.dictionaries(st.sampled_from(smaller), COEFFS, max_size=3))
        rules.append(Rule(w, NCPoly(rhs), ()))
    P = Presentation(ngens, [Generator("x", 1, j) for j in range(ngens)], [])
    return RewriteSystem(P, rules)


def _coded(p, n):
    return {(a * n + b) * n + c: v for (a, b, c), v in p.terms.items()}


@settings(max_examples=150, deadline=None)
@given(rs=_quadratic_systems(), data=st.data())
def test_cubic_steps_take_the_steps_of_reduce(rs, data):
    n = rs.presentation.ngens
    words = list(itertools.product(range(n), repeat=3))
    p = NCPoly(data.draw(st.dictionaries(st.sampled_from(words), COEFFS, max_size=6)))
    # multiples of rule elements, so that terms cancel and residues vanish
    for _ in range(data.draw(st.integers(0, 3))):
        element = data.draw(st.sampled_from(list(rs))).element(1)
        g = (data.draw(st.integers(0, n - 1)),)
        side = data.draw(st.sampled_from([(g, ()), ((), g)]))
        p = p + element.sandwich(*side).scale(data.draw(COEFFS))
    residue, steps = rs.reduce(p, collect=True)
    terms = _coded(p, n)
    assert _cubic_steps(_pair_table(rs, n), n, terms) == len(steps)
    assert terms == _coded(residue, n)


@settings(max_examples=100, deadline=None)
@given(rs=_quadratic_systems())
def test_overlap_terms_are_the_overlap_difference(rs):
    n = rs.presentation.ngens
    table = _pair_table(rs, n)
    for (a, b), r1 in rs.rules.items():
        for c in range(n):
            r2 = rs.rules.get((b, c))
            if r2 is not None:
                diff = r1.rhs.sandwich((), (c,)) - r2.rhs.sandwich((a,), ())
                assert _overlap_terms(table, n, a, b, c) == _coded(diff, n)
