"""R-matrix calculus: leg embeddings, Yang-Baxter, inverses, documents."""

import random

import pytest

from braidalg import qscalar as qs
from braidalg.bialg import PRIMES, sample_points
from braidalg.linalg import SingularMatrixError, dense_inverse
from braidalg.rmat import (MAX_DIM, RMatrix, RMatrixDocumentError,
                           builtin_rmatrix, flip_rmatrix,
                           glq2_rmatrix, identity_rmatrix, invert, leg_embed,
                           load_rmatrix, partial_transpose2, save_rmatrix,
                           second_inverse, ybe_check)

from oracles import (dense_rank, glq_rmatrix, perturbed_rmatrix,
                     second_inverse_identities_hold)


def random_sparse(N, rng, density=0.5):
    entries = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            for k in range(1, N + 1):
                for l in range(1, N + 1):
                    if rng.random() < density:
                        c = rng.randint(-3, 3)
                        if c:
                            entries[(i, j, k, l)] = qs.RatFunc.from_int(c)
    return RMatrix(N, entries)


# -- documents ----------------------------------------------------------------

def test_document_roundtrip():
    R = glq2_rmatrix()
    assert load_rmatrix(save_rmatrix(R)) == R
    # twice through: byte-identical
    once = save_rmatrix(load_rmatrix(save_rmatrix(R)))
    assert once == save_rmatrix(R)


def test_document_errors():
    with pytest.raises(RMatrixDocumentError):
        load_rmatrix('{"dim": 2, "entries": [{"i": 3, "j": 1, "k": 1, "l": 1, "coeff": "1"}]}')
    with pytest.raises(RMatrixDocumentError):
        load_rmatrix('{"dim": 2, "entries": ['
                     '{"i": 1, "j": 1, "k": 1, "l": 1, "coeff": "1"},'
                     '{"i": 1, "j": 1, "k": 1, "l": 1, "coeff": "2"}]}')
    with pytest.raises(qs.ScalarParseError):
        load_rmatrix('{"dim": 2, "entries": [{"i": 1, "j": 1, "k": 1, "l": 1, "coeff": "zz"}]}')
    with pytest.raises(RMatrixDocumentError):
        load_rmatrix("not json")


def test_document_rejects_bad_entries_coeff_and_dim():
    rec = '{"i": 1, "j": 1, "k": 1, "l": 1, "coeff": %s}'
    for text in ('{"dim": 2, "entries": 7}',
                 '{"dim": 2, "entries": {"i": 1}}',
                 '{"dim": 2, "entries": [%s]}' % (rec % "5"),
                 '{"dim": 2, "entries": [%s]}' % (rec % "null"),
                 '{"dim": 2, "entries": [%s]}' % (rec % '["q"]'),
                 '{"dim": %d, "entries": []}' % (MAX_DIM + 1),
                 '{"dim": 0, "entries": []}',
                 '{"dim": true, "entries": []}',
                 '{"dim": 2.0, "entries": []}',
                 '{"dim": "2", "entries": []}'):
        with pytest.raises(RMatrixDocumentError):
            load_rmatrix(text)
    assert load_rmatrix('{"dim": %d, "entries": []}' % MAX_DIM).dim == MAX_DIM


def test_builtin_dimension_bound():
    assert builtin_rmatrix(f"identity:{MAX_DIM}").dim == MAX_DIM
    for name in (f"identity:{MAX_DIM + 1}", "flip:1000000000", "flip:0", "identity:-2"):
        with pytest.raises(RMatrixDocumentError):
            builtin_rmatrix(name)


def test_identity_and_flip_documents():
    I = identity_rmatrix(2)
    assert all(i == k and j == l for (i, j, k, l) in I.entries)
    T = flip_rmatrix(2)
    assert all(i == l and j == k for (i, j, k, l) in T.entries)


def test_document_zero_coefficient_is_dropped():
    R = load_rmatrix('{"dim": 2, "entries": ['
                     '{"i": 1, "j": 1, "k": 1, "l": 1, "coeff": "q"},'
                     '{"i": 2, "j": 2, "k": 2, "l": 2, "coeff": "q - q"}]}')
    assert set(R.entries) == {(1, 1, 1, 1)}


# -- leg embeddings -----------------------------------------------------------

def test_leg_embed_12_and_23():
    R = glq2_rmatrix()
    op12 = leg_embed(R, (1, 2), 3)
    op23 = leg_embed(R, (2, 3), 3)
    for (i, j, k, l), c in R.entries.items():
        for m in (1, 2):
            assert op12.rows[(i, j, m)][(k, l, m)] == c
            assert op23.rows[(m, i, j)][(m, k, l)] == c


def test_leg_embed_13_matches_conjugation_by_swap():
    # independent oracle: acting on legs (1,3) equals swapping legs 2,3,
    # acting on legs (1,2), and swapping back
    rng = random.Random(5)
    R = random_sparse(2, rng)
    direct = leg_embed(R, (1, 3), 3)
    p23 = leg_embed(flip_rmatrix(2), (2, 3), 3)
    conj = p23.matmul(leg_embed(R, (1, 2), 3)).matmul(p23)
    assert direct == conj
    # and entrywise: R^{ik}_{ln} delta^j_m
    for (a, b, c), row in direct.rows.items():
        for (d, e, f), v in row.items():
            assert b == e
            assert v == R.entries[(a, c, d, f)]


def test_leg_embed_21_is_tau_r_tau():
    R = glq2_rmatrix()
    tau = flip_rmatrix(2)
    r21 = leg_embed(R, (2, 1), 2)
    conj = leg_embed(tau, (1, 2), 2).matmul(leg_embed(R, (1, 2), 2)) \
        .matmul(leg_embed(tau, (1, 2), 2))
    assert r21 == conj


def test_leg_embed_respects_composition():
    rng = random.Random(17)
    for legs in [(1, 2), (2, 3), (1, 3), (3, 1)]:
        A = random_sparse(2, rng)
        B = random_sparse(2, rng)
        ab = RMatrix.from_dense(2, _dense_product(A, B))
        lhs = leg_embed(A, legs, 3).matmul(leg_embed(B, legs, 3))
        assert lhs == leg_embed(ab, legs, 3)


def _dense_product(A, B):
    da, db = A.as_dense(), B.as_dense()
    n = len(da)
    zero = qs.ZERO
    return [[sum((da[i][k] * db[k][j] for k in range(n)), zero)
             for j in range(n)] for i in range(n)]


def test_leg_embed_validates_legs():
    R = glq2_rmatrix()
    with pytest.raises(ValueError):
        leg_embed(R, (1, 1), 2)
    with pytest.raises(ValueError):
        leg_embed(R, (0, 2), 2)


# -- Yang-Baxter --------------------------------------------------------------

def test_ybe_identity_flip_glq2():
    assert ybe_check(identity_rmatrix(2))[0]
    assert ybe_check(flip_rmatrix(2))[0]
    assert ybe_check(glq2_rmatrix())[0]
    assert ybe_check(identity_rmatrix(3))[0]
    assert ybe_check(flip_rmatrix(3))[0]


def test_ybe_perturbed_fails_with_witness():
    ok, wit = ybe_check(perturbed_rmatrix())
    assert not ok
    out, src, residue = wit
    assert len(out) == 3 and len(src) == 3
    assert not residue.is_zero()


def test_ybe_scale_invariance():
    lam = qs.parse_scalar("(q + 2)/3")
    assert ybe_check(glq2_rmatrix().scale(lam))[0]
    assert not ybe_check(perturbed_rmatrix().scale(lam))[0]


# -- inverses -----------------------------------------------------------------

def test_invert_identity_and_flip():
    assert invert(identity_rmatrix(2)) == identity_rmatrix(2)
    assert invert(flip_rmatrix(2)) == flip_rmatrix(2)


def test_invert_glq2_is_exact_inverse():
    R = glq2_rmatrix()
    prod = _dense_product(R, invert(R))
    for i in range(4):
        for j in range(4):
            assert prod[i][j] == (qs.ONE if i == j else qs.ZERO)


def test_invert_twice_is_identity():
    rng = random.Random(23)
    found = 0
    while found < 3:
        R = random_sparse(2, rng)
        try:
            Rinv = invert(R)
        except SingularMatrixError:
            continue
        found += 1
        assert invert(Rinv) == R


def _matmul(a, b, field):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), field.zero)
             for j in range(n)] for i in range(n)]


def _is_identity(m, field):
    return all(m[i][j] == (field.one if i == j else field.zero)
               for i in range(len(m)) for j in range(len(m)))


@pytest.mark.parametrize("N", [3, 4])
def test_dense_inverse_glq_r_and_partial_transpose(N):
    R = glq_rmatrix(N)
    for M in (R.as_dense(), partial_transpose2(R).as_dense()):
        inv = dense_inverse(M, qs.QQ_Q)
        assert _is_identity(_matmul(M, inv, qs.QQ_Q), qs.QQ_Q)
        assert _is_identity(_matmul(inv, M, qs.QQ_Q), qs.QQ_Q)


def test_dense_inverse_rejects_non_square():
    with pytest.raises(ValueError):
        dense_inverse([[qs.ONE, qs.ZERO]], qs.QQ_Q)


@pytest.mark.parametrize("R", [glq2_rmatrix(), glq_rmatrix(3), perturbed_rmatrix()])
def test_specialization_commutes_with_inversion(R):
    GF = qs.ModRing(PRIMES[:1])
    for q0 in sample_points(R, 91):
        x = GF.image(q0)
        assert invert(R.evaluate_mod(x)) == invert(R).evaluate_mod(x)
        assert (second_inverse(R.evaluate_mod(x))
                == second_inverse(R).evaluate_mod(x))


def test_dense_rank_over_both_fields():
    q, one = qs.Q, qs.ONE
    x = qs.ModRing(PRIMES[:1]).from_int(12345)
    # rank 2 over Q(q) but rank 1 at q = x, where the rows become equal
    m = [[one, q], [one, qs.RatFunc.from_int(12345)]]
    assert dense_rank(m) == 2
    mx = [[c.evaluate_mod(x) for c in row] for row in m]
    assert dense_rank(mx) == 1
    # rectangular, with a zero column ahead of the pivots
    rect = [[qs.ZERO, one, q, q * q], [qs.ZERO, q, q * q, q * q * q]]
    assert dense_rank(rect) == 1
    assert dense_rank([]) == 0
    # the flip's partial transpose has rank 1 over either field; GL_q(3) is full
    T, G = partial_transpose2(flip_rmatrix(3)), glq_rmatrix(3)
    for field_of in (lambda A: A, lambda A: A.evaluate_mod(x)):
        assert dense_rank(field_of(T).as_dense()) == 1
        assert dense_rank(field_of(G).as_dense()) == 9


def test_dense_inverse_singular_mod_p_only():
    x = qs.ModRing(PRIMES[:1]).from_int(12345)
    m = [[qs.ONE, qs.Q], [qs.ONE, qs.RatFunc.from_int(12345)]]
    dense_inverse(m, qs.QQ_Q)
    with pytest.raises(SingularMatrixError):
        dense_inverse([[c.evaluate_mod(x) for c in row] for row in m], x.ring)


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert(RMatrix(2, {(1, 1, 1, 1): qs.ONE}))


# -- second inverse -----------------------------------------------------------

def test_second_inverse_identity():
    assert second_inverse(identity_rmatrix(2)) == identity_rmatrix(2)


def test_second_inverse_flip_absent_rank_one():
    T = flip_rmatrix(2)
    assert second_inverse(T) is None
    assert dense_rank(partial_transpose2(T).as_dense()) == 1


def test_second_inverse_glq2_present_with_identities():
    assert second_inverse_identities_hold(glq2_rmatrix())


def test_shipped_presets_are_biinvertible():
    for R in (glq2_rmatrix(), identity_rmatrix(2), identity_rmatrix(3)):
        assert ybe_check(R)[0]
        invert(R)
        assert second_inverse(R) is not None


def test_perturbed_stays_biinvertible():
    # the negative control breaks YBE only
    R = perturbed_rmatrix()
    invert(R)
    assert second_inverse(R) is not None
