"""The sparse elimination engine against a Gauss-Jordan elimination over
Fraction written here: reduced forms, span membership and dense inverses
of random small integer matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidalg.linalg import SingularMatrixError, SparseEchelon, dense_inverse
from braidalg.qscalar import QQ_Q, RatFunc

from oracles import dense_rank

_ENTRY = st.one_of(st.just(0), st.integers(-3, 3))


def _rat(x: Fraction) -> RatFunc:
    return RatFunc.from_int(x.numerator) / RatFunc.from_int(x.denominator)


def _rref(rows, columns):
    """Reduced row echelon form over Fraction, pivoting in the given
    column order; returns the nonzero rows, in pivot order."""
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in columns:
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return a[:r]


def _sparse(row):
    return {j: RatFunc.from_int(x) for j, x in enumerate(row) if x}


@st.composite
def _matrices(draw, square=False):
    ncols = draw(st.integers(1, 6))
    nrows = ncols if square else draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(_ENTRY, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return ncols, rows


@settings(max_examples=100, deadline=None)
@given(_matrices(), st.randoms(use_true_random=False))
def test_canonical_is_the_reduced_row_echelon_form(m, rnd):
    ncols, rows = m
    rank = [0] * ncols
    for pos, j in enumerate(rnd.sample(range(ncols), ncols)):
        rank[j] = pos
    ech = SparseEchelon(rank.__getitem__)    # pivots in a random column order
    for i, row in enumerate(rows):
        ech.insert(_sparse(row), {i: RatFunc.from_int(1)})
    want = _rref(rows, sorted(range(ncols), key=rank.__getitem__, reverse=True))
    got = ech.canonical()
    assert [row for row, _ in got] == [{j: _rat(x) for j, x in enumerate(r) if x} for r in want]
    # each aux row says how the reduced row combines the inserted rows
    for row, aux in got:
        combo = {}
        for i, c in aux.items():
            for j, x in _sparse(rows[i]).items():
                combo[j] = combo.get(j, RatFunc.from_int(0)) + c * x
        assert {j: x for j, x in combo.items() if x} == row
    assert ech.rank == dense_rank([[RatFunc.from_int(x) for x in r] for r in rows]) == len(want)


@settings(max_examples=100, deadline=None)
@given(_matrices(), st.data())
def test_reduce_gives_zero_exactly_on_the_span(m, data):
    ncols, rows = m
    extra = data.draw(st.lists(_ENTRY, min_size=ncols, max_size=ncols))
    ech = SparseEchelon(lambda j: j)
    for row in rows:
        ech.insert(_sparse(row))
    residue, _ = ech.reduce(_sparse(extra))
    in_span = len(_rref(rows + [extra], range(ncols))) == len(_rref(rows, range(ncols)))
    assert (not residue) == in_span


@settings(max_examples=100, deadline=None)
@given(_matrices(square=True))
def test_dense_inverse_is_the_fraction_inverse(m):
    n, rows = m
    a = [[RatFunc.from_int(x) for x in row] for row in rows]
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    reduced = _rref(aug, range(n))
    if len(reduced) < n:
        with pytest.raises(SingularMatrixError):
            dense_inverse(a, QQ_Q)
        return
    assert dense_inverse(a, QQ_Q) == [[_rat(x) for x in r[n:]] for r in reduced]
