"""Independent checks that only the tests use: exact dense rank, equality
of degree-2 relation spans, and the defining identities of the second
inverse of an R-matrix."""

import itertools
import operator

from braidalg.linalg import SparseEchelon
from braidalg.ncalg import Presentation, RosterMismatchError
from braidalg.rmat import RMatrix, second_inverse


def dense_rank(matrix) -> int:
    """Exact rank of a dense matrix."""
    ech = SparseEchelon(operator.neg)
    for row in matrix:
        ech.insert({j: a for j, a in enumerate(row) if a})
    return ech.rank


def relation_span_equal(P1: Presentation, P2: Presentation) -> bool:
    """Whether the degree-2 relation spans coincide (same roster required)."""
    if P1.roster != P2.roster:
        raise RosterMismatchError("presentations have different rosters")
    # stored relations are canonical reduced echelon bases of the spans
    return list(P1.relations) == list(P2.relations)


def second_inverse_identities_hold(R: RMatrix) -> bool:
    """Defining contractions of the second inverse with R (both orders)."""
    Rt = second_inverse(R)
    if Rt is None:
        return False
    N = R.dim
    one = R.field.one
    zero = R.field.zero
    for i, j, k, l in itertools.product(range(1, N + 1), repeat=4):
        want = one if (i == k and j == l) else zero
        s1 = zero
        s2 = zero
        for a, b in itertools.product(range(1, N + 1), repeat=2):
            s1 = s1 + Rt.entry(i, b, a, j) * R.entry(a, l, k, b)
            s2 = s2 + R.entry(i, b, a, j) * Rt.entry(a, l, k, b)
        if s1 != want or s2 != want:
            return False
    return True
