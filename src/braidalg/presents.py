"""Builders expanding matrix relations into concrete presentations.

All relation blocks are index expansions of products of sparse operators
on the twofold tensor space (rmat.TensorOperator), multiplied with the
same TensorOperator.matmul that checks the Yang-Baxter equation: scalar
factors are leg embeddings of the R-matrix (so the index convention has a
single source) with constant polynomial entries, and generator factors
are u1 = u (x) 1 and u2 = 1 (x) u, each with N^3 generator entries.  A
block is the list of nonzero entry differences of two such products
(TensorOperator.differences), in row-major order of the (output, input)
index pairs.  Each form is built once, on copy 0 or copies 0 and 1 (entry
u[i,j] of copy c is roster position c*N^2 + (i-1)*N + (j-1)), and placed
on other copies as Presentation placements (form, N^2, copies), relabelled
in order by ncalg._place; the stored relations are the canonical basis of
the union of the placed blocks, so equal spans store equal relation lists,
and a singular exchange block is an OrientationError of the Presentation.

Builders:

  frt_algebra            generators t,  relations R t1 t2 = t2 t1 R
  braided_matrices       generators u,  relations R21 u1 R u2 = u2 R21 u1 R
  braided_tensor_square  two copies with braid statistics
                         R^-1 v1 R u2 = u2 R^-1 v1 R  (v right, u left);
                         a plain Presentation, left factor first
  braided_chain          copies u1..un, self relations per copy and
                         R21 v1 R u2 = u2 R21 v1 R for higher v, lower u
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .ncalg import Generator, NCPoly, Presentation
from .rmat import RMatrix, TensorOperator, invert, leg_embed
from . import ideals


# ---------------------------------------------------------------------------
# operators with noncommutative entries
# ---------------------------------------------------------------------------

def _scalars(R: RMatrix, legs) -> TensorOperator:
    """The leg embedding of R on the twofold space, entries as constants."""
    op = leg_embed(R, legs, 2)
    return TensorOperator(R.dim, 2, {out: {src: NCPoly({(): c}) for src, c in row.items()}
                                     for out, row in op.rows.items()})


def _generators(copy: int, leg: int, N: int, one) -> TensorOperator:
    """u1 = u (x) 1 (leg 1) or u2 = 1 (x) u (leg 2) for copy 0 or 1 of u;
    entry u[a,b] maps (b,c) to (a,c) on leg 1 and (c,b) to (c,a) on leg 2."""
    rows = {}
    for a, b, c in itertools.product(range(1, N + 1), repeat=3):
        out, src = ((a, c), (b, c)) if leg == 1 else ((c, a), (c, b))
        rows.setdefault(out, {})[src] = NCPoly.gen((copy * N + a - 1) * N + b - 1, one)
    return TensorOperator(N, 2, rows)


def _block(lhs_factors, rhs_factors):
    """Nonzero entry differences of two operator products, row-major."""
    lhs = functools.reduce(TensorOperator.matmul, lhs_factors)
    rhs = functools.reduce(TensorOperator.matmul, rhs_factors)
    return [d for _, _, d in lhs.differences(rhs)]


def matrix_roster(copy: str, N: int):
    return [Generator(copy, i, j) for i in range(1, N + 1) for j in range(1, N + 1)]


# ---------------------------------------------------------------------------
# relation blocks
# ---------------------------------------------------------------------------

def self_block(R: RMatrix):
    """R21 u1 R u2 - u2 R21 u1 R for braided matrices u on copy 0."""
    one = R.field.one
    r = _scalars(R, (1, 2))
    r21 = _scalars(R, (2, 1))
    u1 = _generators(0, 1, R.dim, one)
    u2 = _generators(0, 2, R.dim, one)
    return _block([r21, u1, r, u2], [u2, r21, u1, r])


def cross_block(R: RMatrix, form="r21"):
    """Exchange block between the higher copy v = copy 1 and the lower
    copy u = copy 0.

    form "r21":        R21 v1 R u2 = u2 R21 v1 R   (chain cross relations)
    form "statistics": R^-1 v1 R u2 = u2 R^-1 v1 R (braid statistics)
    """
    one = R.field.one
    N = R.dim
    r = _scalars(R, (1, 2))
    v1 = _generators(1, 1, N, one)
    u2 = _generators(0, 2, N, one)
    if form == "r21":
        r21 = _scalars(R, (2, 1))
        return _block([r21, v1, r, u2], [u2, r21, v1, r])
    if form == "statistics":
        rinv = _scalars(invert(R), (1, 2))
        return _block([rinv, v1, r, u2], [u2, rinv, v1, r])
    raise ValueError(f"unknown cross block form {form!r}")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def frt_algebra(R: RMatrix) -> Presentation:
    """The quantum-matrix bialgebra presentation: R t1 t2 = t2 t1 R."""
    invert(R)  # singular R is an error
    one = R.field.one
    r = _scalars(R, (1, 2))
    t1 = _generators(0, 1, R.dim, one)
    t2 = _generators(0, 2, R.dim, one)
    rels = _block([r, t1, t2], [t2, t1, r])
    return Presentation(R.dim, matrix_roster("t", R.dim), [(rels, R.dim * R.dim, (0,))],
                        field=R.field, name="frt")


def braided_matrices(R: RMatrix) -> Presentation:
    """Braided matrices B(R): generators u, relations R21 u1 R u2 = u2 R21 u1 R."""
    invert(R)
    return Presentation(R.dim, matrix_roster("u", R.dim),
                        [(self_block(R), R.dim * R.dim, (0,))], field=R.field, name="bm")


def braided_tensor_square(base: Presentation, R: RMatrix) -> Presentation:
    """Two independent copies of base with braid statistics between them:
    square position s < base.ngens is base generator s in the left factor,
    and s + base.ngens is the same generator in the right factor.

    The right factor sits above the left factor in the monomial order, so
    every mixed word normalizes to left-then-right; a singular statistics
    block is an OrientationError of the Presentation.
    """
    labels = list(dict.fromkeys(g.copy for g in base.roster))
    k, size = len(labels), base.dim * base.dim
    if list(base.roster) != [g for c in labels for g in matrix_roster(c, base.dim)] or any(
            s != size for _, s, _ in base.placements):
        raise ValueError("base is not placed on the copies of a row-major matrix roster")
    roster = [Generator(f"{t}.{g.copy}", g.row, g.col) for t in ("L", "R") for g in base.roster]
    placements = list(base.placements)
    placements += [(form, size, tuple(c + k for c in copies)) for form, _, copies in base.placements]
    statistics = cross_block(R, form="statistics")
    placements += [(statistics, size, (u, k + v)) for v in range(k) for u in range(k)]
    return Presentation(base.dim, roster, placements, field=base.field,
                        name=f"square({base.name})" if base.name else "square")


def braided_chain(R: RMatrix, n: int) -> Presentation:
    """The n-fold chain: copies u1..un, cross relations for every i > j."""
    if n < 1:
        raise ValueError("chain needs at least one copy")
    invert(R)
    size = R.dim * R.dim
    roster = [g for i in range(n) for g in matrix_roster(f"u{i + 1}", R.dim)]
    own = self_block(R)
    cross = cross_block(R, form="r21") if n > 1 else ()
    placements = [(own, size, (i,)) for i in range(n)]
    placements += [(cross, size, (j, i)) for i in range(n) for j in range(i)]
    return Presentation(R.dim, roster, placements, field=R.field, name=f"chain{n}")


# ---------------------------------------------------------------------------
# the square / chain comparison
# ---------------------------------------------------------------------------

@dataclass
class SquareIsoReport:
    """Graded-dimension comparison of the two double constructions."""

    bound: int
    square_dims: list      # braided tensor square of B(R), statistics form
    chain_dims: list       # two-copy chain, r21 cross form
    equal: bool


def square_iso_witness(R: RMatrix, bound: int) -> SquareIsoReport:
    """Compare Hilbert dimensions of B(R) (x) B(R) (braid statistics) and
    the two-copy chain; equal vectors witness the algebra isomorphism."""
    base = braided_matrices(R)
    square = braided_tensor_square(base, R)
    chain = braided_chain(R, 2)
    ds = ideals.hilbert_dims(square, bound)
    dc = ideals.hilbert_dims(chain, bound)
    return SquareIsoReport(bound, ds, dc, ds == dc)


# ---------------------------------------------------------------------------
# preset dispatch (shared by the command line and the test suite)
# ---------------------------------------------------------------------------

PRESETS = ("frt", "bm", "square", "chain")


def build_preset(preset: str, R: RMatrix, n: int = 1) -> Presentation:
    if preset == "frt":
        return frt_algebra(R)
    if preset == "bm":
        return braided_matrices(R)
    if preset == "square":
        return braided_tensor_square(braided_matrices(R), R)
    if preset == "chain":
        return braided_chain(R, n)
    raise ValueError(f"unknown preset {preset!r}")
