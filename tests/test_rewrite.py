"""The left-side trie of RewriteSystem against naive oracles: redex search
and normal-word counting over random antichains of left sides."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from braidalg.ncalg import Generator, NCPoly, Presentation
from braidalg.rewrite import RewriteSystem, Rule


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
