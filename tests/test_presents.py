"""Presentation builders: FRT, braided matrices, tensor squares, chains."""

import contextlib
import hashlib
import io
import itertools
import os
from collections import Counter

import pytest

from braidalg import ncalg, presents
from braidalg import qscalar as qs
from braidalg.cli import main
from braidalg.ideals import hilbert_dims, ideal_membership
from braidalg.ncalg import DegLexOrder, NCPoly, Presentation, _prune
from braidalg.presents import (braided_chain, braided_matrices,
                               braided_tensor_square, build_preset, cross_block,
                               frt_algebra, matrix_roster, square_iso_witness)
from braidalg.rewrite import orient_relations
from braidalg.rmat import (RMatrix, flip_rmatrix, glq2_rmatrix,
                           identity_rmatrix, save_rmatrix, second_inverse,
                           ybe_check)
from braidalg.linalg import SingularMatrixError

from oracles import (chain_relations_at_offsets, glq_rmatrix, perturbed_rmatrix,
                     rearranged_cross_block, relation_span_equal,
                     square_relations_at_offsets)

ONE = qs.ONE


def is_commutator_presentation(P):
    want = set()
    for g in range(P.ngens):
        for h in range(P.ngens):
            if g > h:
                want.add((g, h))
    got = set()
    for r in P.relations:
        lead = max(r.terms, key=P.order.key)
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
    rules = {r.lhs: r for r in orient_relations(P)}
    a, b = P.gen("u", 1, 1), P.gen("u", 1, 2)
    assert rules[(b, a)].rhs == NCPoly({(a, b): qs.parse_scalar("q^2")})


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
            ok, cert = ideal_membership(r, P)
            assert ok and len(cert.terms) == 1


# -- braided tensor square ---------------------------------------------------------

def test_square_identity_r_is_two_commuting_copies():
    base = braided_matrices(identity_rmatrix(2))
    sq = braided_tensor_square(base, identity_rmatrix(2))
    assert is_commutator_presentation(sq)
    assert len(sq.roster) == 8


def test_square_glq2_mixed_component_dimension():
    base = braided_matrices(glq2_rmatrix())
    sq = braided_tensor_square(base, glq2_rmatrix())
    left = set(range(base.ngens))
    right = set(range(base.ngens, sq.ngens))
    mixed = [r for r in sq.relations
             if set().union(*r.terms) & left and set().union(*r.terms) & right]
    assert len(mixed) == 16
    # all right-then-left words rewrite: their rules exist
    lhs = {r.lhs for r in orient_relations(sq)}
    for v in right:
        for u in left:
            assert (v, u) in lhs


def test_square_dims_are_convolution_of_factor_dims():
    base = braided_matrices(glq2_rmatrix())
    sq = braided_tensor_square(base, glq2_rmatrix())
    factor = hilbert_dims(base, 3)
    conv = [sum(factor[i] * factor[d - i] for i in range(d + 1)) for d in range(4)]
    assert hilbert_dims(sq, 3) == conv


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
    pairs = {tuple(sorted({c3.roster[g].copy for g in set().union(*r.terms)}))
             for r in c3.relations}
    assert pairs == {("u1",), ("u2",), ("u3",),
                     ("u1", "u2"), ("u1", "u3"), ("u2", "u3")}


def test_chain_cross_block_r21_equals_rearranged_span():
    R = glq2_rmatrix()
    roster = matrix_roster("u1", 2) + matrix_roster("u2", 2)
    P1 = Presentation(2, roster, cross_block(R, form="r21"))
    P2 = Presentation(2, roster, rearranged_cross_block(R))
    assert relation_span_equal(P1, P2)


@pytest.mark.parametrize("rmatrix, n", [(glq2_rmatrix, 3), (perturbed_rmatrix, 3),
                                        (lambda: glq_rmatrix(3), 2)],
                         ids=["glq2-n3", "pert2-n3", "glq3-n2"])
def test_placed_blocks_equal_blocks_built_at_their_offsets(rmatrix, n, monkeypatch):
    # the chain and its square are given placements whose placed relations
    # are those that building every block from scratch at its own roster
    # offsets gives, and so store the same relations; the square places
    # its base's canonical forms, which the base stores in another order,
    # so the relations are compared as multisets
    R = rmatrix()
    given = []

    def recording(dim, roster, placements, **kw):
        given.append([r.terms for form, size, copies in placements
                      for r in ncalg._place(form, size, copies)])
        return Presentation(dim, roster, placements, **kw)

    def multiset(terms):
        return Counter(frozenset(t.items()) for t in terms)

    monkeypatch.setattr(presents, "Presentation", recording)
    chain = braided_chain(R, n)
    square = braided_tensor_square(chain, R)
    reference = chain_relations_at_offsets(R, n)
    assert given.pop(0) == [r.terms for r in reference]
    assert chain.relations == Presentation(R.dim, chain.roster, reference, field=R.field).relations
    reference = square_relations_at_offsets(chain, R)
    assert multiset(given.pop(0)) == multiset(r.terms for r in reference)
    assert square.relations == Presentation(R.dim, square.roster, reference,
                                            field=R.field).relations


@pytest.mark.parametrize("rmatrix, ns", [(glq2_rmatrix, (1, 2, 3, 4)),
                                         (perturbed_rmatrix, (1, 2, 3, 4)),
                                         (lambda: glq_rmatrix(3), (1, 2))],
                         ids=["glq2", "pert2", "glq3"])
def test_stored_relations_are_the_placed_block_bases(rmatrix, ns):
    # the blocks have disjoint word supports, so the canonical echelon basis
    # of a chain or a square is the union of the canonical bases of its
    # placed block forms, by descending leading word
    R = rmatrix()
    size, order = R.dim * R.dim, DegLexOrder()
    own, cross, statistics = (_prune(block, order) for block in (
        presents.self_block(R), cross_block(R, "r21"), cross_block(R, "statistics")))

    def chain_blocks(copies):
        # the self block on each copy, the r21 block on each pair of them
        return ([(own, (c,)) for c in copies]
                + [(cross, pair) for pair in itertools.combinations(copies, 2)])

    def union(blocks):
        rels = [r for block, copies in blocks for r in ncalg._place(block, size, copies)]
        return sorted(rels, key=lambda r: order.key(max(r.terms, key=order.key)), reverse=True)

    for n in ns:
        chain = braided_chain(R, n)
        assert list(chain.relations) == union(chain_blocks(range(n)))
        square = braided_tensor_square(chain, R)
        assert list(square.relations) == union(
            chain_blocks(range(n)) + chain_blocks(range(n, 2 * n))
            + [(statistics, (u, n + v)) for u in range(n) for v in range(n)])


def test_each_block_form_is_built_once(monkeypatch):
    calls = []

    def counting(name, f):
        def wrapper(*args, **kw):
            calls.append(name)
            return f(*args, **kw)
        monkeypatch.setattr(presents, name, wrapper)

    for name in ("self_block", "cross_block", "invert"):
        counting(name, getattr(presents, name))
    R = glq2_rmatrix()
    chain = braided_chain(R, 4)
    assert sorted(calls) == ["cross_block", "invert", "self_block"]
    calls.clear()
    braided_tensor_square(chain, R)
    # one statistics block for all 16 copy pairs, and R inverted once for it
    assert sorted(calls) == ["cross_block", "invert"]
    calls.clear()
    braided_chain(R, 1)
    assert sorted(calls) == ["invert", "self_block"]


def test_built_presentations_keep_no_rules():
    # the builders orient only to fail fast on a singular exchange block;
    # completion orients again, so no rules stay cached on the presentation
    R = glq2_rmatrix()
    chain = braided_chain(R, 2)
    assert chain._cache == {}
    assert braided_tensor_square(chain, R)._cache == {}


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
                             if len({chain.roster[g].copy for g in set().union(*r.terms)}) == 1],
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
