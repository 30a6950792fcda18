"""Acceptance criteria, one test per criterion.

Each test drives the same surfaces a user would (CLI subcommands where the
criterion names them) and prints one PASS line on success; tolerances are
exact (integer equality, or zero/nonzero over Q(q)) and runtime budgets are
asserted with wall clocks.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import json
import math
import random
import time

from braidalg import qscalar as qs
from braidalg.bialg import matrix_coproduct, verify_bialgebra
from braidalg.cli import main
from braidalg.ideals import MembershipCertificate, ideal_membership, substitute_generators
from braidalg.ncalg import NCPoly, Presentation
from braidalg.presents import (braided_chain, braided_matrices,
                               braided_tensor_square, cross_block, matrix_roster)
from braidalg.rewrite import RewriteSystem, orient_relations
from braidalg.rmat import (RMatrix, flip_rmatrix, glq2_rmatrix,
                           identity_rmatrix, leg_embed)

from oracles import perturbed_doc, rearranged_cross_block, relation_span_equal

ONE = qs.ONE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_1_ybe_and_biinvertibility(capsys):
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "ybe", "glq2")
    t_ybe = time.perf_counter() - t0
    assert code == 0 and out == "YBE: PASS\n"

    t0 = time.perf_counter()
    code, out = run_cli(capsys, "biinv", "glq2")
    t_biinv = time.perf_counter() - t0
    assert code == 0
    assert "invertible: yes" in out and "second_inverse: present" in out

    t0 = time.perf_counter()
    code, out = run_cli(capsys, "biinv", "flip:2")
    t_flip = time.perf_counter() - t0
    assert code == 1
    assert "second_inverse: absent" in out

    assert t_ybe < 1.0 and t_biinv < 1.0 and t_flip < 1.0
    print(f"\nACCEPTANCE 1 (YBE + biinvertibility, < 1 s each): PASS "
          f"({t_ybe:.2f}s/{t_biinv:.2f}s/{t_flip:.2f}s)")


def test_criterion_2_bialgebra_verification(capsys):
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "verify", "bm", "glq2", "-D", "4", "--mode", "exact")
    t_bm = time.perf_counter() - t0
    assert code == 0 and json.loads(out)["passed"] is True

    # replayable certificates for every relation, checked at the API level
    R = glq2_rmatrix()
    P = braided_matrices(R)
    square = braided_tensor_square(P, R)
    spec = matrix_coproduct(P)
    report = verify_bialgebra(R, preset="bm", bound=4, mode="exact")
    assert len(report.relation_verdicts) == len(P.relations) > 0
    for v, r in zip(report.relation_verdicts, P.relations):
        assert v.passed and v.certificate
        image = substitute_generators(r, spec.images, square)
        cert = MembershipCertificate(v.certificate)
        assert cert.replay(square.relations) == image

    t0 = time.perf_counter()
    code, out = run_cli(capsys, "verify", "chain", "glq2", "-n", "2", "-D", "4")
    t_c2 = time.perf_counter() - t0
    assert code == 0 and json.loads(out)["passed"] is True

    t0 = time.perf_counter()
    code, out = run_cli(capsys, "verify", "chain", "glq2", "-n", "3", "-D", "4",
                        "--mode", "probabilistic")
    t_c3 = time.perf_counter() - t0
    assert code == 0 and json.loads(out)["passed"] is True

    t_exact = t_bm + t_c2
    assert t_exact <= 600.0, f"exact runs took {t_exact:.1f}s"
    assert t_c3 <= 60.0, f"probabilistic run took {t_c3:.1f}s"
    print(f"\nACCEPTANCE 2 (bialgebra verification with certificates): PASS "
          f"(exact {t_exact:.2f}s <= 600s, probabilistic {t_c3:.2f}s <= 60s)")


def test_criterion_3_negative_control(capsys, perturbed_doc):
    code, out = run_cli(capsys, "ybe", perturbed_doc)
    assert code == 1 and out.startswith("YBE: FAIL")

    code, out = run_cli(capsys, "verify", "bm", perturbed_doc, "-D", "4")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["ybe"] is False
    # the residue witness is an exact nonzero element of Q(q)
    witness = doc["ybe_witness"]
    residue = qs.parse_scalar(witness.split("residue", 1)[1].strip())
    assert not residue.is_zero()
    print("\nACCEPTANCE 3 (negative control discriminates, exact zero/nonzero "
          f"over Q(q)): PASS (residue {residue})")


def test_criterion_4_flatness(capsys):
    code, out = run_cli(capsys, "hilbert", "bm", "glq2", "-D", "3")
    assert code == 0 and "dims: [1, 4, 10, 20]" in out
    assert [math.comb(d + 3, 3) for d in range(4)] == [1, 4, 10, 20]

    code, out = run_cli(capsys, "hilbert", "chain", "glq2", "-n", "2", "-D", "2")
    assert code == 0 and "dims: [1, 8, 36]" in out
    assert [math.comb(d + 7, 7) for d in range(3)] == [1, 8, 36]
    print("\nACCEPTANCE 4 (flat deformation dimensions, exact integers): PASS")


def test_criterion_5_square_iso_witness(capsys):
    code, out = run_cli(capsys, "square-iso", "glq2", "-D", "3")
    assert code == 0
    assert "equal: yes" in out
    assert "square_dims: [1, 8, 36, 120]" in out
    assert "chain_dims: [1, 8, 36, 120]" in out
    print("\nACCEPTANCE 5 (cross-coproduct square vs chain dimensions): PASS")


def test_criterion_6_relation_rearrangement():
    R = glq2_rmatrix()
    roster = matrix_roster("u1", 2) + matrix_roster("u2", 2)
    P1 = Presentation(2, roster, cross_block(R, form="r21"))
    P2 = Presentation(2, roster, rearranged_cross_block(R))
    assert relation_span_equal(P1, P2)
    print("\nACCEPTANCE 6 (R21-form vs rearranged cross relations, equal spans): PASS")


def test_criterion_7_classical_limit(capsys):
    P = braided_matrices(glq2_rmatrix())
    rules = orient_relations(P)
    assert len(rules) == 6
    for rule in rules:
        g, h = rule.lhs
        rhs1 = rule.rhs.map_coefficients(lambda c: c.evaluate(1))
        assert rhs1.terms == {(h, g): 1}, "rule does not degenerate to commutation"

    code, out = run_cli(capsys, "verify", "bm", "identity:2", "-D", "4")
    assert code == 0 and json.loads(out)["passed"] is True
    print("\nACCEPTANCE 7 (classical limit q=1 and identity-R bialgebra): PASS")


def test_criterion_8_engine_invariants():
    rng = random.Random(20250810)
    R = glq2_rmatrix()
    P = braided_matrices(R)
    rules = RewriteSystem(P, orient_relations(P))

    # normal-form idempotence on random polynomials
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            w = tuple(rng.randrange(P.ngens) for _ in range(rng.randint(0, 4)))
            terms[w] = qs.RatFunc.from_int(rng.randint(-4, 4))
        p = NCPoly(terms)
        nf = rules.reduce(p)[0]
        assert rules.reduce(nf)[0] == nf

    # certificate replay on random ideal elements
    for _ in range(25):
        r = rng.choice(P.relations)
        left = tuple(rng.randrange(P.ngens) for _ in range(rng.randint(0, 1)))
        right = tuple(rng.randrange(P.ngens) for _ in range(rng.randint(0, 1)))
        c = qs.RatFunc.from_int(rng.randint(1, 3))
        p = r.sandwich(left, right).scale(c)
        ok, cert = ideal_membership(p, P, 4)
        assert ok
        assert cert.replay(P.relations) == p

    # orientation solvability for glq2 across the shipped builders
    for Q in (P, braided_chain(R, 2),
              braided_tensor_square(P, R)):
        rs = orient_relations(Q)
        assert len(rs) == len(Q.relations)

    # leg-embed composition law on random sparse R at N=2, arity 3
    for _ in range(6):
        entries = {}
        for i in range(1, 3):
            for j in range(1, 3):
                for k in range(1, 3):
                    for l in range(1, 3):
                        if rng.random() < 0.4:
                            c = rng.randint(-2, 2)
                            if c:
                                entries[(i, j, k, l)] = qs.RatFunc.from_int(c)
        A = RMatrix(2, entries)
        B = flip_rmatrix(2) if rng.random() < 0.5 else identity_rmatrix(2)
        legs = rng.choice([(1, 2), (2, 3), (1, 3)])
        dense = A.as_dense()
        denseB = B.as_dense()
        prod = [[sum((dense[i][k] * denseB[k][j] for k in range(4)), qs.ZERO)
                 for j in range(4)] for i in range(4)]
        AB = RMatrix.from_dense(2, prod)
        assert leg_embed(A, legs, 3).matmul(leg_embed(B, legs, 3)) == \
            leg_embed(AB, legs, 3)

    print("\nACCEPTANCE 8 (engine invariants on randomized inputs, 100%): PASS")
