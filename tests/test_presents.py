"""Presentation builders: FRT, braided matrices, tensor squares, chains."""

import pytest

from braidalg import qscalar as qs
from braidalg.ideals import hilbert_dims, ideal_membership, relation_span_equal
from braidalg.ncalg import NCPoly, Presentation
from braidalg.presents import (braided_chain, braided_matrices,
                               braided_tensor_square, build_preset, cross_block,
                               frt_algebra, matrix_roster, square_iso_witness)
from braidalg.rewrite import orient_relations
from braidalg.rmat import (RMatrix, flip_rmatrix, glq2_rmatrix,
                           identity_rmatrix, second_inverse, ybe_check)
from braidalg.linalg import SingularMatrixError

ONE = qs.ONE


def perturbed_rmatrix():
    R = glq2_rmatrix()
    return RMatrix(2, dict(R.entries) | {(1, 2, 2, 1): qs.parse_scalar("1 + q")})


def is_commutator_presentation(P):
    want = set()
    for g in range(P.ngens):
        for h in range(P.ngens):
            if g > h:
                want.add((g, h))
    got = set()
    for r in P.relations:
        lead = P.order.leading_word(r)
        g, h = lead
        if r != NCPoly({(g, h): ONE, (h, g): -ONE}):
            return False
        got.add(lead)
    return got == want


# -- frt ------------------------------------------------------------------------

def test_frt_identity_is_commutative():
    assert is_commutator_presentation(frt_algebra(identity_rmatrix(2)))


def test_frt_glq2_span_dimension():
    F = frt_algebra(glq2_rmatrix())
    assert len(F.relations) == 6
    assert hilbert_dims(F, 2) == [1, 4, 10]


def test_frt_dim_one_is_free():
    F = frt_algebra(RMatrix(1, {(1, 1, 1, 1): qs.parse_scalar("q + 3")}))
    assert F.relations == ()


def test_frt_singular_raises():
    with pytest.raises(SingularMatrixError):
        frt_algebra(RMatrix(2, {(1, 1, 1, 1): ONE}))


# -- braided matrices -------------------------------------------------------------

def test_bm_identity_is_commutative():
    assert is_commutator_presentation(braided_matrices(identity_rmatrix(2)))


def test_bm_glq2_rules():
    P = braided_matrices(glq2_rmatrix())
    rules = orient_relations(P)
    a, b = P.gen("u", 1, 1), P.gen("u", 1, 2)
    assert rules.rules[(b, a)].rhs == NCPoly({(a, b): qs.parse_scalar("q^2")})


def test_bm_dim_one_is_free():
    P = braided_matrices(RMatrix(1, {(1, 1, 1, 1): qs.Q}))
    assert P.relations == ()
    assert hilbert_dims(P, 3) == [1, 1, 1, 1]


def test_bm_scaling_leaves_span_unchanged():
    lam = qs.parse_scalar("(1 + q^2)/2")
    P1 = braided_matrices(glq2_rmatrix())
    P2 = braided_matrices(glq2_rmatrix().scale(lam))
    assert relation_span_equal(P1, P2)


def test_bm_flip_accepted_but_flagged_nonbiinvertible():
    T = flip_rmatrix(2)
    assert ybe_check(T)[0]
    P = braided_matrices(T)           # builder accepts
    # tau u1 tau = u2 makes both sides of the reflection relation coincide,
    # so B(tau) comes out free
    assert P.relations == ()
    assert second_inverse(T) is None  # the pipeline flag


def test_builders_self_certify():
    for P in (braided_matrices(glq2_rmatrix()), frt_algebra(glq2_rmatrix()),
              braided_chain(glq2_rmatrix(), 2)):
        for r in P.relations:
            assert r.is_homogeneous(2)
            ok, cert = ideal_membership(r, P, 2)
            assert ok and len(cert.terms) == 1


# -- braided tensor square ---------------------------------------------------------

def test_square_identity_r_is_two_commuting_copies():
    base = braided_matrices(identity_rmatrix(2))
    sq = braided_tensor_square(base, identity_rmatrix(2))
    assert is_commutator_presentation(sq.presentation)
    assert len(sq.presentation.roster) == 8


def test_square_glq2_mixed_component_dimension():
    base = braided_matrices(glq2_rmatrix())
    sq = braided_tensor_square(base, glq2_rmatrix())
    left = set(range(sq.base.ngens))
    right = set(range(sq.base.ngens, sq.presentation.ngens))
    mixed = [r for r in sq.presentation.relations
             if r.generators() & left and r.generators() & right]
    assert len(mixed) == 16
    # all right-then-left words rewrite: their rules exist
    rules = orient_relations(sq.presentation)
    for v in right:
        for u in left:
            assert (v, u) in rules.rules


def test_square_dims_are_convolution_of_factor_dims():
    base = braided_matrices(glq2_rmatrix())
    sq = braided_tensor_square(base, glq2_rmatrix())
    factor = hilbert_dims(base, 3)
    conv = [sum(factor[i] * factor[d - i] for i in range(d + 1)) for d in range(4)]
    assert hilbert_dims(sq.presentation, 3) == conv


def test_square_requires_matrix_roster():
    bad = Presentation(2, matrix_roster("u", 2)[:3], [], name="partial")
    with pytest.raises(ValueError):
        braided_tensor_square(bad, glq2_rmatrix())


# -- braided chain ------------------------------------------------------------------

def test_chain_one_copy_equals_braided_matrices():
    R = glq2_rmatrix()
    c1 = braided_chain(R, 1)
    assert relation_span_equal(c1.relabel({"u1": "u"}), braided_matrices(R))


def test_chain_three_copies_block_structure():
    c3 = braided_chain(glq2_rmatrix(), 3)
    pairs = {tuple(sorted({c3.roster[g].copy for g in r.generators()})) for r in c3.relations}
    assert pairs == {("u1",), ("u2",), ("u3",),
                     ("u1", "u2"), ("u1", "u3"), ("u2", "u3")}


def test_chain_cross_block_r21_equals_rearranged_span():
    R = glq2_rmatrix()
    roster = matrix_roster("u1", 2) + matrix_roster("u2", 2)
    P1 = Presentation(2, roster, cross_block(R, 4, 0, form="r21"))
    P2 = Presentation(2, roster, cross_block(R, 4, 0, form="rearranged"))
    assert relation_span_equal(P1, P2)


def test_chain_rejects_bad_copies():
    with pytest.raises(ValueError):
        braided_chain(glq2_rmatrix(), 0)


def test_chain_identity_r():
    c2 = braided_chain(identity_rmatrix(2), 2)
    assert is_commutator_presentation(c2)


# -- square-iso witness ----------------------------------------------------------

def test_square_iso_identity():
    rep = square_iso_witness(identity_rmatrix(2), 3)
    assert rep.equal
    assert rep.square_dims == [1, 8, 36, 120]


def test_square_iso_glq2():
    rep = square_iso_witness(glq2_rmatrix(), 3)
    assert rep.equal
    assert rep.square_dims == rep.chain_dims == [1, 8, 36, 120]


def test_square_iso_negative_control():
    # deleting the cross block on one side must break dimension equality
    R = glq2_rmatrix()
    chain = braided_chain(R, 2)
    crippled = Presentation(2, list(chain.roster),
                            [r for r in chain.relations
                             if len({chain.roster[g].copy for g in r.generators()}) == 1],
                            name="no-cross")
    full = hilbert_dims(chain, 3)
    broken = hilbert_dims(crippled, 3)
    assert full != broken


# -- preset dispatch ----------------------------------------------------------------

def test_build_preset_dispatch():
    R = glq2_rmatrix()
    assert build_preset("frt", R).name == "frt"
    assert build_preset("bm", R).name == "bm"
    assert build_preset("square", R).name == "square(bm)"
    assert build_preset("chain", R, 3).name == "chain3"
    with pytest.raises(ValueError):
        build_preset("nope", R)
