"""Presentation builders: FRT, braided matrices, tensor squares, chains."""

import contextlib
import hashlib
import io
import os

import pytest

from braidalg import qscalar as qs
from braidalg.cli import main
from braidalg.ideals import hilbert_dims, ideal_membership
from braidalg.ncalg import NCPoly, Presentation
from braidalg.presents import (braided_chain, braided_matrices,
                               braided_tensor_square, build_preset, cross_block,
                               frt_algebra, matrix_roster, square_iso_witness)
from braidalg.rewrite import orient_relations
from braidalg.rmat import (RMatrix, flip_rmatrix, glq2_rmatrix,
                           identity_rmatrix, save_rmatrix, second_inverse,
                           ybe_check)
from braidalg.linalg import SingularMatrixError

from oracles import relation_span_equal

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
    assert braided_chain(R, 1).relations == braided_matrices(R).relations


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


# -- pinned presentation documents ------------------------------------------------

def glq_rmatrix(N):
    """The standard GL_q(N) R-matrix, built from its defining entries."""
    entries = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i == j:
                entries[(i, i, i, i)] = qs.Q
            else:
                entries[(i, j, i, j)] = ONE
                if i < j:
                    entries[(i, j, j, i)] = qs.Q - qs.QINV
    return RMatrix(N, entries)


# (argv, exit code, stdout length, stdout SHA-256) of present runs made in a
# directory holding glq3.json and pert2.json; the relation blocks of every
# preset, N = 3 included, must give byte-identical documents
PRESENT_GOLDEN = (
    (("present", "frt", "glq3.json"), 0, 2038,
     "9beafa78221cdfd4536b042d8ae6999bfcfa27d4c14c100b23d931b2a2186c52"),
    (("present", "bm", "glq3.json"), 0, 3058,
     "36c3d9fa43e88dd0e7f11abb7b30a5ceb5cdbca4be85ea25ba648fa82b3db506"),
    (("present", "square", "glq3.json"), 0, 15664,
     "8e088180e6bd165db5902d88a0d0b88fde24a03c836d5eecabe93d9ab11c86a1"),
    (("present", "chain", "glq3.json", "-n", "3"), 0, 36957,
     "3aa5b1774817fc11ec85e429416625ab224d23e77e0ec5e569604fc22bdbcfd5"),
    (("present", "square", "pert2.json"), 0, 2424,
     "60c69792f5a82f0ca2f1392d0ae55828aa72f04f1f043c9ce0d5a6790d5c19b3"),
    (("present", "chain", "pert2.json", "-n", "3"), 0, 5659,
     "d9d0f6d560c812f81d43bd47c258d715409ba5d36e476704fee78dc93164ded5"),
)


@pytest.fixture(scope="module")
def present_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("present")
    (work / "glq3.json").write_text(save_rmatrix(glq_rmatrix(3)))
    (work / "pert2.json").write_text(save_rmatrix(perturbed_rmatrix()))
    return work


@pytest.mark.parametrize("argv, code, length, sha256", PRESENT_GOLDEN,
                         ids=["frt-glq3", "bm-glq3", "square-glq3", "chain3-glq3",
                              "square-pert2", "chain3-pert2"])
def test_present_documents_are_pinned(present_dir, argv, code, length, sha256):
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(present_dir)
    try:
        with contextlib.redirect_stdout(out):
            got_code = main(list(argv))
    finally:
        os.chdir(cwd)
    data = out.getvalue().encode()
    assert (got_code, len(data), hashlib.sha256(data).hexdigest()) == (code, length, sha256)
