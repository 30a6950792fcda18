"""Coproduct data and the degree-bounded bialgebra verification pipeline."""

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

import pytest

from braidalg import bialg, rewrite
from braidalg import qscalar as qs
from braidalg.cli import main
from braidalg.bialg import (CoproductError, CoproductSpec, RelationVerdict,
                            VerificationReport, matrix_coproduct, sample_points,
                            verify_bialgebra, verify_coassoc, verify_counit,
                            verify_homomorphism)
from braidalg.ideals import MembershipCertificate, substitute_generators
from braidalg.ncalg import (Generator, NCPoly, Presentation, format_poly, parse_poly,
                            word_str)
from braidalg.presents import braided_chain, braided_matrices, braided_tensor_square
from braidalg.rewrite import truncated_gb
from braidalg.rmat import (RMatrix, flip_rmatrix, glq2_rmatrix, identity_rmatrix,
                           save_rmatrix)

from oracles import glq_rmatrix, parse_presentation_document, perturbed_rmatrix

ONE = qs.ONE


@pytest.fixture(scope="module")
def bm():
    return braided_matrices(glq2_rmatrix())


@pytest.fixture(scope="module")
def square(bm):
    return braided_tensor_square(bm, glq2_rmatrix())


@pytest.fixture(scope="module")
def spec(bm):
    return matrix_coproduct(bm)


# -- coproduct images -----------------------------------------------------------

def test_matrix_coproduct_images(bm, square, spec):
    u12 = bm.gen("u", 1, 2)
    want = parse_poly("L.u[1,1]*R.u[1,2] + L.u[1,2]*R.u[2,2]", square)
    assert spec.images[u12] == want
    assert spec.counit[bm.gen("u", 1, 1)] == ONE
    assert not spec.counit[u12]


def test_matrix_coproduct_dim_one():
    R = RMatrix(1, {(1, 1, 1, 1): qs.Q})
    P = braided_matrices(R)
    sq = braided_tensor_square(P, R)
    cp = matrix_coproduct(P)
    u = P.gen("u", 1, 1)
    assert cp.images[u] == parse_poly("L.u[1,1]*R.u[1,1]", sq)
    assert cp.counit[u] == ONE


def test_matrix_coproduct_chain_acts_per_copy():
    R = glq2_rmatrix()
    chain = braided_chain(R, 2)
    sq = braided_tensor_square(chain, R)
    cp = matrix_coproduct(chain)
    g = chain.gen("u2", 1, 2)
    want = parse_poly("L.u2[1,1]*R.u2[1,2] + L.u2[1,2]*R.u2[2,2]", sq)
    assert cp.images[g] == want


# -- homomorphism ----------------------------------------------------------------

def test_homomorphism_identity_r():
    R = identity_rmatrix(2)
    P = braided_matrices(R)
    sq = braided_tensor_square(P, R)
    cp = matrix_coproduct(P)
    verdicts, warning = verify_homomorphism(P, cp, sq)
    assert all(v.passed for v in verdicts)
    assert not warning


def test_homomorphism_glq2_with_replayable_certificates(bm, square, spec):
    verdicts, warning = verify_homomorphism(bm, spec, square)
    assert all(v.passed for v in verdicts)
    assert not warning
    for v, r in zip(verdicts, bm.relations):
        image = substitute_generators(r, spec.images, square)
        cert = MembershipCertificate(v.certificate)
        assert cert.replay(square.relations) == image


def test_certificates_follow_the_field(bm, square, spec):
    # certificates are collected over Q(q) and never over Z/MZ
    verdicts, _ = verify_homomorphism(bm, spec, square)
    assert all(v.certificate for v in verdicts)
    x = qs.ModRing(bialg.PRIMES[:1]).image(Fraction(7, 6))
    P_x = bm.evaluate_mod(x)
    sampled, _ = verify_homomorphism(P_x, matrix_coproduct(P_x), square.evaluate_mod(x))
    assert [v.passed for v in sampled] == [v.passed for v in verdicts]
    assert all(v.certificate is None for v in sampled)


def test_homomorphism_rejects_small_bound():
    with pytest.raises(ValueError):
        verify_bialgebra(glq2_rmatrix(), preset="bm", bound=3)


def test_corrupted_images_fail_with_residue(bm, square, spec):
    # drop one term from one image: no longer an algebra map
    u11 = bm.gen("u", 1, 1)
    bad_images = dict(spec.images)
    terms = dict(bad_images[u11].terms)
    terms.popitem()
    bad_images[u11] = NCPoly(terms)
    bad = CoproductSpec(bad_images, dict(spec.counit))
    verdicts, _ = verify_homomorphism(bm, bad, square)
    failing = [v for v in verdicts if not v.passed]
    assert failing
    assert all(v.residue for v in failing)


# -- reduction with the quadratic rules first -------------------------------------

def test_non_confluent_square_verifies_without_completing(monkeypatch):
    # the class pass finds the chain pert2 square not confluent, yet every
    # image reduces to zero with its quadratic rules: the warning is the
    # pass's, and full completion never runs
    def refuse(self, bound):
        raise AssertionError("completion ran")

    monkeypatch.setattr(rewrite.TruncatedGB, "_complete", refuse)
    for mode in ("exact", "probabilistic"):
        rep = verify_bialgebra(perturbed_rmatrix(), preset="chain", n=2, bound=4, mode=mode)
        assert all(v.passed for v in rep.relation_verdicts) and not rep.ybe
        assert rep.completion_warning


def test_confluent_square_runs_the_class_pass_once(monkeypatch):
    calls = []
    class_pass = rewrite.TruncatedGB._resolved_by_classes

    def counted(self):
        calls.append(self)
        return class_pass(self)

    monkeypatch.setattr(rewrite.TruncatedGB, "_resolved_by_classes", counted)
    rep = verify_bialgebra(glq_rmatrix(4), preset="bm", bound=4)
    assert rep.passed and not rep.completion_warning
    assert len(calls) == 1


def test_residue_left_by_the_quadratic_rules_is_the_completed_one():
    R = perturbed_rmatrix()
    P = braided_chain(R, 2)
    SQ, spec = braided_tensor_square(P, R), matrix_coproduct(P)
    g = P.gen("u2", 2, 1)
    spec.images[g] = spec.images[g] + NCPoly.term((g, P.ngens + g), ONE)
    verdicts, warning = verify_homomorphism(P, spec, SQ)
    failing = [v for v in verdicts if not v.passed]
    assert failing and warning
    gb = truncated_gb(SQ, 4)
    assert len(gb.added_rules) == 361
    for v in failing:
        image = substitute_generators(P.relations[v.index], spec.images, SQ)
        assert v.residue == format_poly(gb.reduce(image)[0], SQ)
    # the images after the first failing one are reduced on the extended
    # basis, so their certificates go through adjoined rules: 1,692 terms
    # over the 27 passing images, where the quadratic rules alone give 616
    passing = [v for v in verdicts if v.passed]
    assert (len(passing), sum(len(v.certificate) for v in passing)) == (27, 1692)
    for v in passing:
        image = substitute_generators(P.relations[v.index], spec.images, SQ)
        assert MembershipCertificate(v.certificate).replay(SQ.relations) == image


# -- counit ----------------------------------------------------------------------

def test_counit_laws_hold(bm, spec):
    ok, detail = verify_counit(bm, spec)
    assert ok, detail


def test_counit_epsilon_kills_relations_value(bm, spec):
    # eps applied to R21 u1 R u2 - u2 R21 u1 R gives R21 R - R21 R = 0
    for r in bm.relations:
        total = qs.ZERO
        for w, c in r.terms.items():
            v = c
            for g in w:
                v = v * spec.counit[g]
            total = total + v
        assert total.is_zero()


def test_a_relation_the_counit_does_not_kill_fails(bm):
    # u12*u21 = u11*u22 keeps the unit laws of the matrix coproduct, but the
    # counit maps it to 0 - 1
    P = Presentation(2, bm.roster, [parse_poly("u[1,2]*u[2,1] - u[1,1]*u[2,2]", bm)])
    assert verify_counit(P, matrix_coproduct(P)) == (False, "eps(relation 0) = -1 != 0")


def test_corrupted_counit_fails_unit_law(bm, spec):
    bad = CoproductSpec(dict(spec.images), {g: qs.ZERO for g in range(bm.ngens)})
    ok, detail = verify_counit(bm, bad)
    assert not ok
    assert "(eps (x) id)" in detail


# -- coassociativity --------------------------------------------------------------

def test_coassoc_holds(bm, spec):
    ok, detail = verify_coassoc(bm, spec)
    assert ok, detail


def test_coassoc_dim_one():
    R = RMatrix(1, {(1, 1, 1, 1): qs.Q})
    P = braided_matrices(R)
    ok, _ = verify_coassoc(P, matrix_coproduct(P))
    assert ok


def test_coassoc_corrupted_image_fails(bm, spec):
    u11 = bm.gen("u", 1, 1)
    bad_images = dict(spec.images)
    terms = dict(bad_images[u11].terms)
    terms.popitem()
    bad_images[u11] = NCPoly(terms)
    ok, detail = verify_coassoc(bm, CoproductSpec(bad_images, dict(spec.counit)))
    assert not ok
    assert "coassociativity fails" in detail


def test_coassoc_rejects_non_pair_images(bm, spec):
    u11 = bm.gen("u", 1, 1)
    bad_images = dict(spec.images)
    g = 0  # the first left-factor position
    bad_images[u11] = NCPoly.gen(g, ONE) * NCPoly.gen(g, ONE)
    with pytest.raises(CoproductError):
        verify_coassoc(bm, CoproductSpec(bad_images, dict(spec.counit)))


# -- the full pipeline -------------------------------------------------------------

def test_verify_bm_glq2_exact_passes():
    rep = verify_bialgebra(glq2_rmatrix(), preset="bm", bound=4, mode="exact",
                           rmatrix_label="glq2")
    assert rep.passed and rep.ybe and rep.invertible and rep.second_inverse
    assert rep.orientation == "ok"
    assert not rep.completion_warning
    assert all(v.certificate for v in rep.relation_verdicts)


def test_verify_identity_passes():
    rep = verify_bialgebra(identity_rmatrix(2), preset="bm", bound=4)
    assert rep.passed


def test_verify_chain2_exact_passes():
    rep = verify_bialgebra(glq2_rmatrix(), preset="chain", n=2, bound=4)
    assert rep.passed
    assert len(rep.relation_verdicts) == 28


def test_verify_flip_passes_with_biinvertibility_flag():
    rep = verify_bialgebra(flip_rmatrix(2), preset="bm", bound=4)
    assert rep.passed
    assert rep.ybe
    assert not rep.second_inverse
    assert any("second inverse absent" in w for w in rep.warnings)


def test_verify_perturbed_fails_through_ybe_with_exact_residue():
    rep = verify_bialgebra(perturbed_rmatrix(), preset="bm", bound=4,
                           rmatrix_label="perturbed")
    assert not rep.passed
    assert not rep.ybe
    assert "residue" in rep.ybe_witness
    # the witness value is an exact nonzero element of Q(q)
    assert qs.parse_scalar(rep.ybe_witness.split("residue", 1)[1].strip())
    # forensics: orientation and homomorphism data still reported
    assert rep.orientation == "ok"
    assert rep.relation_verdicts


def test_verify_singular_r_is_structured_failure():
    rep = verify_bialgebra(RMatrix(2, {(1, 1, 1, 1): ONE}), preset="bm", bound=4)
    assert not rep.passed
    assert rep.failure and "singular" in rep.failure


def test_verify_rejects_unknown_preset():
    with pytest.raises(ValueError):
        verify_bialgebra(glq2_rmatrix(), preset="frt", bound=4)


def reference_document(rep):
    """The verify document as json.dumps prints it: the oracle for to_document."""
    doc = {
        "report": "verify",
        "index_convention": "R^{ij}_{kl}; upper indices are outputs, "
                            "index pairs flattened row-major as (i-1)*N+(j-1)",
        "preset": rep.preset,
        "rmatrix": rep.rmatrix,
        "copies": rep.copies,
        "degree_bound": rep.degree_bound,
        "mode": rep.mode,
        "points": rep.points,
        "ybe": rep.ybe,
        "ybe_witness": rep.ybe_witness,
        "invertible": rep.invertible,
        "second_inverse": rep.second_inverse,
        "orientation": rep.orientation,
        "warnings": rep.warnings,
        "relations": [
            {
                "index": v.index,
                "relation": v.relation,
                "verdict": "pass" if v.passed else "fail",
                **({"certificate": [
                    {"left": word_str(lw, rep.square_roster), "relation": idx,
                     "right": word_str(rw, rep.square_roster), "coeff": str(c)}
                    for lw, idx, rw, c in v.certificate]}
                   if v.certificate is not None else {}),
                **({"residue": v.residue} if v.residue is not None else {}),
            }
            for v in rep.relation_verdicts
        ],
        "counit": rep.counit,
        "counit_detail": rep.counit_detail,
        "coassoc": rep.coassoc,
        "coassoc_detail": rep.coassoc_detail,
        "completion_warning": rep.completion_warning,
        "square_relations": rep.square_relations,
        "failure": rep.failure,
        "passed": rep.passed,
    }
    return json.dumps(doc, indent=2) + "\n"


def hand_built_reports():
    """One VerificationReport per shape of the verify document, by hand."""
    roster = (Generator("L.u", 1, 1), Generator("L.u", 1, 2), Generator("R.u", 2, 1),
              Generator("é", 1, 1))
    c1, c2 = qs.Q - qs.QINV, qs.parse_scalar("-(q^2 + 1)/(q - 3)")
    cert = (((0, 1), 2, (), c1), ((), 0, (3, 2), ONE), ((3,), 1, (0,), c1), ((), 1, (), c2))
    base = dict(preset="bm", rmatrix="glq2", copies=1, degree_bound=4, mode="exact",
                ybe=True, invertible=True, second_inverse=True, orientation="ok",
                counit=True, coassoc=True, square_relations=["L.u[1,1]*L.u[1,2]", "é[1,1]"],
                square_roster=roster)
    key_line = '"\n  "relations": [],\n  "passed": true'
    return {
        "passing-with-certificates": VerificationReport(
            **base, passed=True, relation_verdicts=[
                RelationVerdict(0, "u[1,1]*u[1,2] - q*u[1,2]*u[1,1]", True, certificate=cert),
                RelationVerdict(1, "u[1,2]*u[1,2]", True, certificate=cert[1:3])]),
        "failing-with-residue": VerificationReport(
            **(base | dict(preset="chain", copies=3, degree_bound=6, ybe=False,
                           counit=False, coassoc=False)),
            ybe_witness="entry (1, 2) <- (2, 1): residue q + 1",
            warnings=["R does not satisfy the Yang-Baxter equation",
                      "completion adjoined extra rules (quadratic system not confluent)"],
            completion_warning=True, counit_detail="eps(relation 0) = 2 != 0",
            coassoc_detail="coassociativity fails on u[1,1]", relation_verdicts=[
                RelationVerdict(0, "u[1,1]", True, certificate=cert[:1]),
                RelationVerdict(1, "u[2,1]*u[1,1]", False, residue="(q + 1)*L.u[1,1]")]),
        "empty-certificate": VerificationReport(
            **base, passed=True, relation_verdicts=[
                RelationVerdict(0, "0", True, certificate=())]),
        "sampled": VerificationReport(
            **(base | dict(mode="probabilistic", square_relations=[], square_roster=())),
            points=["7/6", "-3", "-2"], passed=True, relation_verdicts=[
                RelationVerdict(0, "u[1,1]*u[1,2]", True),
                RelationVerdict(1, "u[1,2]*u[2,1]", False, residue="12*L.u[1,1]")]),
        "singular-r": VerificationReport(
            preset="bm", rmatrix="sing.json", copies=1, degree_bound=4, mode="exact",
            ybe=True, invertible=False,
            failure="R is singular; presentations are undefined"),
        "escaped-strings": VerificationReport(
            preset="bm", rmatrix='d\\"x\ty\nz\x01é√.json', copies=1, degree_bound=4,
            mode="exact", ybe=True, invertible=True, second_inverse=False,
            orientation='cannot orient "u[1,1]"\tat \\ degree 2\n\x01',
            warnings=['"quoted" back\\slash\ttab\nnewline\x01 é √']),
        # strings that hold the relations key line; the empty arrays print
        # lines of its shape
        "relations-key-in-strings": VerificationReport(
            preset="bm", rmatrix=f"{key_line}.json", copies=1, degree_bound=4,
            mode="exact", ybe=False, ybe_witness=f"entry {key_line}", invertible=True,
            second_inverse=True, orientation="ok", counit=True, coassoc=True,
            coassoc_detail=key_line, warnings=[], square_relations=[], square_roster=roster,
            relation_verdicts=[
                RelationVerdict(0, f"u[1,1] {key_line}", True, certificate=cert[1:2]),
                RelationVerdict(1, "u[1,2]", False, residue=f"{key_line}\n")]),
    }


@pytest.mark.parametrize("name", list(hand_built_reports()))
def test_report_document_matches_json_dumps(name):
    rep = hand_built_reports()[name]
    assert "".join(rep.to_document()).encode() == reference_document(rep).encode()


def test_report_document_is_deterministic_and_parseable():
    rep1 = verify_bialgebra(glq2_rmatrix(), preset="bm", bound=4,
                            rmatrix_label="glq2")
    rep2 = verify_bialgebra(glq2_rmatrix(), preset="bm", bound=4,
                            rmatrix_label="glq2")
    text = "".join(rep1.to_document())
    assert text == "".join(rep2.to_document()) == reference_document(rep1)
    doc = json.loads(text)
    assert doc["passed"] is True
    assert doc["relations"][0]["certificate"]
    assert doc["square_relations"]


def test_report_document_yields_one_relation_verdict_per_chunk():
    rep = verify_bialgebra(glq2_rmatrix(), preset="bm", bound=4, rmatrix_label="glq2")
    assert sum(bool(v.certificate) for v in rep.relation_verdicts) >= 3
    chunks = list(rep.to_document())
    # the head, one chunk per verdict, the tail
    assert [c.count('"index": ') for c in chunks] == \
        [0] + [1] * len(rep.relation_verdicts) + [0]
    empty = hand_built_reports()["singular-r"]
    chunks = list(empty.to_document())
    assert len(chunks) == 2 and '"relations": [],' in "".join(chunks)


# -- probabilistic mode ---------------------------------------------------------

def test_sample_points_deterministic_and_safe():
    R = glq2_rmatrix()
    pts1 = sample_points(R, 7261)
    pts2 = sample_points(R, 7261)
    assert pts1 == pts2
    assert len(set(pts1)) == 3
    for p in pts1:
        assert p not in (0, 1, -1)
    # a denominator that vanishes at the first draw, 7/6, replaces it by the
    # next good draw
    assert pts1[0] == Fraction(7, 6)
    assert sample_points(R, 7261, [qs.parse_scalar("6*q - 7")]) == [-3, -2, 6]


def test_probabilistic_agrees_with_exact_on_bm_glq2():
    exact = verify_bialgebra(glq2_rmatrix(), preset="bm", bound=4, mode="exact")
    sampled = verify_bialgebra(glq2_rmatrix(), preset="bm", bound=4,
                               mode="probabilistic")
    assert exact.passed == sampled.passed is True
    assert [v.passed for v in exact.relation_verdicts] == \
        [v.passed for v in sampled.relation_verdicts]
    assert sampled.points and not exact.points
    assert all(v.certificate is None for v in sampled.relation_verdicts)


def test_probabilistic_seed_changes_points():
    a = verify_bialgebra(glq2_rmatrix(), preset="bm", bound=4,
                         mode="probabilistic", seed=1)
    b = verify_bialgebra(glq2_rmatrix(), preset="bm", bound=4,
                         mode="probabilistic", seed=2)
    assert a.points != b.points
    assert a.passed and b.passed


# (argv, exit code, stdout length, stdout SHA-256) of exact verify runs made
# in a directory holding the perturbed R-matrix as pert2.json and GL_q(4) as
# glq4.json; every exact document, certificates included, must stay
# byte-identical
GOLDEN = (
    (("verify", "bm", "glq2", "-D", "4"), 0, 23153,
     "88d7a0a234fedcbe349178b4e2d4c903955922a221db333144bc35b45a70cefc"),
    (("verify", "chain", "glq2", "-n", "2", "-D", "4"), 0, 124215,
     "6d5415b8dc1962ca034ec621c6661319e7137d076d0e0d3d42f3a0809234f924"),
    # the square is not confluent, but every image reduces to zero with the
    # quadratic rules: 856 certificate terms over them, no completion
    (("verify", "chain", "pert2.json", "-n", "2", "-D", "4"), 1, 136184,
     "6089365b691891bd794ff12dfb8f47a378368ee0623a1de7e254889abb5fbda4"),
    # likewise 182 terms; completion to degree 6 would adjoin 41 rules
    (("verify", "bm", "pert2.json", "-D", "6"), 1, 29048,
     "4fc5a3cae0a7f6e81805e4f940495325c6d77fcfd6892ee9c4061461dc52f880"),
    # the benchmark's largest report: 21,061 certificate terms
    (("verify", "bm", "glq4.json", "-D", "4"), 0, 3060435,
     "3a1e86d0f052f358be0a08b27dac62a6e46ee820c706d4872e264885a68dc549"),
)


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """Runs main(argv) in a directory holding pert2.json and glq4.json, once
    per argv; returns (exit code, stdout)."""
    work = tmp_path_factory.mktemp("verify")
    (work / "pert2.json").write_text(save_rmatrix(perturbed_rmatrix()))
    (work / "glq4.json").write_text(save_rmatrix(glq_rmatrix(4)))
    done = {}

    def run(argv):
        if argv not in done:
            out = io.StringIO()
            cwd = os.getcwd()
            os.chdir(work)
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(list(argv))
            finally:
                os.chdir(cwd)
            done[argv] = (code, out.getvalue())
        return done[argv]
    return run


GOLDEN_IDS = ("bm-glq2", "chain-glq2-n2", "chain-pert2-n2", "bm-pert2-D6", "bm-glq4")


@pytest.mark.parametrize("argv, code, length, sha256", GOLDEN, ids=GOLDEN_IDS)
def test_exact_documents_are_pinned(cli_run, argv, code, length, sha256):
    got_code, out = cli_run(argv)
    data = out.encode()
    assert (got_code, len(data), hashlib.sha256(data).hexdigest()) == (code, length, sha256)


# SHA-256 of the non-confluent GOLDEN documents with every "certificate" key
# removed, re-dumped by json.dumps(indent=2), as recorded when their images
# were still reduced on the completed basis (2,905 and 346 certificate
# terms): reducing with the quadratic rules first moved only certificates
WITHOUT_CERTIFICATES = {
    "chain-pert2-n2": "ff88fab1be2446819d197b90f9cedc13ec01693c5d91d1d3159b7010026e4763",
    "bm-pert2-D6": "fa1209e20b1a494e0a493936d8579d98838abab800142e2bb8e98c44e14faf4d",
}


@pytest.mark.parametrize("name", WITHOUT_CERTIFICATES)
def test_quadratic_certificates_replay_and_move_nothing_else(cli_run, name):
    argv = dict(zip(GOLDEN_IDS, GOLDEN))[name][0]
    doc = json.loads(cli_run(argv)[1])
    # the square's own relations, read back through the document parser
    R = perturbed_rmatrix()
    P = braided_chain(R, 2) if "chain" in argv else braided_matrices(R)
    SQ, spec = braided_tensor_square(P, R), matrix_coproduct(P)
    _, parsed = parse_presentation_document("\n".join(
        [f"dim: {SQ.dim}", "generators: " + " ".join(map(str, SQ.roster))]
        + [f"relation: {r}" for r in doc["square_relations"]]))
    assert [format_poly(r, parsed) for r in parsed.relations] == doc["square_relations"]

    def word(text):
        return next(iter(parse_poly(text, parsed).terms))

    for v, r in zip(doc["relations"], P.relations):
        assert v["verdict"] == "pass" and v["relation"] == format_poly(r, P)
        cert = MembershipCertificate(tuple(
            (word(t["left"]), t["relation"], word(t["right"]), qs.parse_scalar(t["coeff"]))
            for t in v["certificate"]))
        assert cert.replay(parsed.relations) == substitute_generators(r, spec.images, SQ)
    for v in doc["relations"]:
        del v["certificate"]
    stripped = json.dumps(doc, indent=2).encode()
    assert hashlib.sha256(stripped).hexdigest() == WITHOUT_CERTIFICATES[name]


# (exit code, stdout length, stdout SHA-256) of each GOLDEN argv run with
# --mode probabilistic at the default seed; every sampled document must stay
# byte-identical too
SAMPLED_GOLDEN = (
    (0, 1388, "41aaca765098c3b1b0c37f25e94571f674e16449a09c9f2faa75f7d4ac5f4f40"),
    (0, 4719, "dce81f73ced9bd47800f6163a9ae8cf6837676fe04b16e2ea4de61036bad870c"),
    (1, 5351, "74f1ad4c7e02c83a5ce7ab2a44c16158f3911fe5373c8701e314a65e0e769ddf"),
    (1, 1792, "35190e0779b22f75d6e887aadb439553cb6957d82a51ff699f76b4c6b973bc31"),
    (0, 19049, "10fc5105701f110fe486c6126e74029ad6bb2b599732566a36529aba2a1e500f"),
)


@pytest.mark.parametrize("argv, code, length, sha256",
                         [(g[0] + ("--mode", "probabilistic"), *pin)
                          for g, pin in zip(GOLDEN, SAMPLED_GOLDEN)], ids=GOLDEN_IDS)
def test_sampled_documents_are_pinned(cli_run, argv, code, length, sha256):
    got_code, out = cli_run(argv)
    data = out.encode()
    assert (got_code, len(data), hashlib.sha256(data).hexdigest()) == (code, length, sha256)


# dimension reports that count normal words through non-quadratic rules
STRUCTURE_GOLDEN = (
    (("hilbert", "square", "pert2.json", "-D", "12"), 0, 225,
     "fae1741b32338acbf06b3602d5d42257592abba2ed5f9d466d66ed62f7331fdf"),
    (("square-iso", "pert2.json", "-D", "8"), 1, 275,
     "de5b7318872fecac15c9f6578e836a92897a83bc2766305d3bcd6affccb59390"),
)


@pytest.mark.parametrize("argv, code, length, sha256", STRUCTURE_GOLDEN,
                         ids=("hilbert-square-pert2-D12", "square-iso-pert2-D8"))
def test_dimension_reports_are_pinned(cli_run, argv, code, length, sha256):
    got_code, out = cli_run(argv)
    data = out.encode()
    assert (got_code, len(data), hashlib.sha256(data).hexdigest()) == (code, length, sha256)


@pytest.mark.parametrize("argv", [g[0] for g in GOLDEN], ids=GOLDEN_IDS)
def test_sampled_reports_give_the_exact_verdicts(cli_run, argv):
    exact_code, exact_out = cli_run(argv)
    code, out = cli_run(argv + ("--mode", "probabilistic"))
    exact, sampled = json.loads(exact_out), json.loads(out)
    skip = ("relations", "square_relations", "points", "mode")
    assert code == exact_code
    assert {k: v for k, v in sampled.items() if k not in skip} == \
        {k: v for k, v in exact.items() if k not in skip}
    assert [(v["relation"], v["verdict"]) for v in sampled["relations"]] == \
        [(v["relation"], v["verdict"]) for v in exact["relations"]]
    assert len(sampled["points"]) == 3


# the points of the sampled GOLDEN runs, recorded when each point ran its
# own pass; one pass over Z/MZ must draw the same ones
SAMPLED_POINTS = ["7/6", "-3", "-2"]


@pytest.mark.parametrize("argv", [g[0] for g in GOLDEN], ids=GOLDEN_IDS)
def test_sampled_points_are_pinned(cli_run, argv):
    _, out = cli_run(argv + ("--mode", "probabilistic"))
    assert json.loads(out)["points"] == SAMPLED_POINTS


@pytest.mark.parametrize("mode", [(), ("--mode", "probabilistic", "--seed", "7")],
                         ids=("exact", "sampled"))
@pytest.mark.parametrize("job", [("bm", "glq2"), ("chain", "pert2.json", "-n", "2"),
                                 ("bm", "pert2.json")],
                         ids=("bm-glq2", "chain-pert2-n2", "bm-pert2"))
def test_verify_documents_do_not_depend_on_the_degree_bound(cli_run, job, mode):
    # images of quadratic relations are quartic, so verify decides in degree
    # 4: -D is validated and recorded, and changes nothing else
    code, base = cli_run(("verify", *job, "-D", "4", *mode))
    for degree in (5, 6, 8):
        got_code, out = cli_run(("verify", *job, "-D", str(degree), *mode))
        lines, base_lines = out.splitlines(), base.splitlines()
        assert got_code == code and len(lines) == len(base_lines)
        assert [(a, b) for a, b in zip(base_lines, lines) if a != b] == \
            [('  "degree_bound": 4,', f'  "degree_bound": {degree},')]


def test_sample_points_skip_denominators_divisible_by_the_prime(monkeypatch):
    small = (7, 11, 13)
    monkeypatch.setattr(bialg, "PRIMES", small)

    def first_draw(seed):
        # the first point sample_points draws for this seed
        rng = random.Random(seed)
        q0 = Fraction(rng.randint(2, 19), rng.randint(1, 7))
        return -q0 if rng.random() < 0.5 else q0

    seed = next(s for s in range(1000) if first_draw(s).denominator == 7)
    R = glq2_rmatrix()
    points = sample_points(R, seed)
    assert points == sample_points(R, seed)
    assert first_draw(seed) not in points
    # point i avoids p_i, and only p_i: -7 is point 2 (mod 11), though it is 0 mod 7
    assert all(q0.denominator % p and q0.numerator % p for q0, p in zip(points, small))
    assert points == [Fraction(4), Fraction(-7), Fraction(6)]
    rep = verify_bialgebra(R, preset="bm", bound=4, mode="probabilistic", seed=seed)
    assert rep.points == [str(p) for p in points]
    assert rep.passed


def test_degenerate_point_is_detected_and_redrawn(monkeypatch, cli_run):
    # with these primes, completion of the chain pert2 square (which adjoins
    # rules) meets a leading coefficient that vanishes at the first point
    # only: it has the factor q^2 + q - 1, which is 101/25 at q = 9/5
    small = (101, 103, 107)
    monkeypatch.setattr(bialg, "PRIMES", small)
    R, seed = perturbed_rmatrix(), 3
    points = sample_points(R, seed)
    assert points == [Fraction(9, 5), Fraction(-13, 5), Fraction(-4, 5)]
    ring = qs.ModRing(small)
    x = ring.crt([F.image(q0) for F, q0 in zip(ring.fields, points)])
    square = braided_tensor_square(braided_chain(R, 2), R)
    with pytest.raises(qs.NonUnitError, match="zero mod 101$") as err:
        truncated_gb(square.evaluate_mod(x), 4)
    assert err.value.primes == (101,)

    def sampled(exact):
        rep = verify_bialgebra(R, preset="chain", n=2, bound=4, mode="probabilistic",
                               seed=seed)
        assert [v.passed for v in rep.relation_verdicts] == \
            [v["verdict"] == "pass" for v in exact["relations"]]
        assert (rep.passed, rep.ybe, rep.counit, rep.coassoc, rep.completion_warning) == \
            (exact["passed"], exact["ybe"], exact["counit"], exact["coassoc"],
             exact["completion_warning"])
        return rep

    # every image reduces to zero with the quadratic rules: nothing is
    # completed, so nothing divides at 9/5 and the point is kept
    argv = ("verify", "chain", "pert2.json", "-n", "2", "-D", "4")
    assert sampled(json.loads(cli_run(argv)[1])).points == ["9/5", "-13/5", "-4/5"]

    # one corrupted image leaves a residue, so the square is completed at
    # every point, which 9/5 cannot be
    def corrupted(P):
        spec = matrix_coproduct(P)
        g = P.gen("u1", 1, 2)
        spec.images[g] = spec.images[g] + NCPoly.term((g, P.ngens + g), P.field.one)
        return spec

    monkeypatch.setattr(bialg, "matrix_coproduct", corrupted)
    exact = json.loads("".join(verify_bialgebra(R, preset="chain", n=2, bound=4).to_document()))
    assert any(v["verdict"] == "fail" for v in exact["relations"])
    rep = sampled(exact)
    assert "9/5" not in rep.points and rep.points[:2] == ["-13/5", "-4/5"]


def test_failing_residue_prints_at_the_first_point_where_it_is_nonzero(bm, square, spec):
    # a coproduct that is right at point 1 and wrong at point 2: its
    # residues over Z/MZ must print as the residues at point 2 alone
    p1, p2 = bialg.PRIMES[:2]
    ring = qs.ModRing((p1, p2))
    F2 = ring.fields[1]
    x = ring.crt([F.image(q0) for F, q0 in zip(ring.fields, (Fraction(7, 6), Fraction(-3)))])
    n = bm.ngens
    u12 = bm.gen("u", 1, 2)

    def at(x):
        P_x, square_x = bm.evaluate_mod(x), square.evaluate_mod(x)
        images = {g: img.map_coefficients(lambda c: c.evaluate_mod(x))
                  for g, img in spec.images.items()}
        images[u12] = images[u12] + NCPoly.term((u12, n + u12), x.ring.from_int(p1))
        counit = {g: c.evaluate_mod(x) for g, c in spec.counit.items()}
        return verify_homomorphism(P_x, CoproductSpec(images, counit), square_x)[0]

    both, second = at(x), at(F2.from_int(x.v))
    assert any(not v.passed for v in second)
    assert [(v.passed, v.residue) for v in both] == [(v.passed, v.residue) for v in second]


def test_counit_detail_names_the_first_generator_failing_at_any_point(bm, spec):
    # u[1,1] fails only at point 2 and u[2,2] only at point 1: over Z/MZ the
    # detail names u[1,1], the first generator that fails anywhere, printed
    # as at point 2 alone; point 1 alone names u[2,2]
    p1, p2 = bialg.PRIMES[:2]
    ring = qs.ModRing((p1, p2))
    x = ring.crt([F.image(q0) for F, q0 in zip(ring.fields, (Fraction(7, 6), Fraction(-3)))])
    n = bm.ngens
    u11, u12, u22 = bm.gen("u", 1, 1), bm.gen("u", 1, 2), bm.gen("u", 2, 2)

    def detail(x, extra):
        P_x = bm.evaluate_mod(x)
        images = {g: img.map_coefficients(lambda c: c.evaluate_mod(x))
                  for g, img in spec.images.items()}
        for g, (word, c) in extra.items():
            images[g] = images[g] + NCPoly.term(word, x.ring.from_int(c))
        counit = {g: c.evaluate_mod(x) for g, c in spec.counit.items()}
        passed, text = verify_counit(P_x, CoproductSpec(images, counit))
        assert not passed
        return text

    # a right-copy u[1,2] alone breaks (eps (x) id), a left-copy one (id (x) eps)
    for word, law in (((n + u12,), "(eps (x) id)"), ((u12,), "(id (x) eps)")):
        extra = {u11: (word, p1), u22: (word, p2)}
        both = detail(x, extra)
        assert both.startswith(f"{law} Delta u[1,1] = ")
        assert both == detail(ring.fields[1].from_int(x.v), extra)
        assert detail(ring.fields[0].from_int(x.v), extra).startswith(f"{law} Delta u[2,2] = ")


# -- q -> 1 specialization ---------------------------------------------------------

def test_certificate_specializes_at_q_equals_1(bm, square, spec):
    # evaluating a passing exact certificate at q = 1 must replay against the
    # classical (q = 1) relations
    verdicts, _ = verify_homomorphism(bm, spec, square)
    classical_rels = [r.map_coefficients(lambda c: c.evaluate(1))
                      for r in square.relations]
    for v, r in zip(verdicts, bm.relations):
        image = substitute_generators(r, spec.images, square)
        image1 = image.map_coefficients(lambda c: c.evaluate(1))
        total = NCPoly.zero()
        for lw, idx, rw, c in v.certificate:
            total = total + classical_rels[idx].sandwich(lw, rw).scale(c.evaluate(1))
        assert total == image1
