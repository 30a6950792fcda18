"""Free algebra, monomial order, orientation, and normal forms."""

import itertools
import random
from fractions import Fraction

import pytest

from braidalg import qscalar as qs
from braidalg.ncalg import (Generator, NCAlgError, NCPoly, OrientationError,
                            PolyParseError, Presentation, format_poly, parse_poly)
from braidalg.cli import format_presentation_document
from braidalg.bialg import DEFAULT_SEED, PRIMES, sample_points
from braidalg.ideals import hilbert_dims, span_rank
from braidalg.linalg import SparseEchelon
from braidalg.rewrite import RewriteSystem, orient_relations
from braidalg.rmat import RMatrix, glq2_rmatrix, identity_rmatrix
from braidalg.presents import (braided_chain, braided_matrices, braided_tensor_square,
                               build_preset, cross_block, frt_algebra, matrix_roster,
                               self_block)

from oracles import (SINGULAR_EXCHANGE, chain_relations_at_offsets,
                     parse_presentation_document, perturbed_rmatrix,
                     square_relations_at_offsets)

ONE = qs.ONE


def two_gen_presentation(relations=()):
    roster = [Generator("x", 1, 1), Generator("y", 1, 1)]
    return Presentation(1, roster, list(relations), name="toy")


def test_poly_arithmetic():
    P = two_gen_presentation()
    x = NCPoly.gen(P.gen("x", 1, 1), ONE)
    y = NCPoly.gen(P.gen("y", 1, 1), ONE)
    z = x * y
    assert x * (y + z) == x * y + x * z
    one = NCPoly.unit(ONE)
    assert one * x == x and x * one == x
    assert (x * y) * z == x * (y * z)
    assert (x - x).is_zero()
    assert x * NCPoly.zero() == NCPoly.zero()


def test_word_concatenation_not_commutative():
    P = two_gen_presentation()
    x = NCPoly.gen(P.gen("x", 1, 1), ONE)
    y = NCPoly.gen(P.gen("y", 1, 1), ONE)
    assert x * y != y * x


def test_deglex_order():
    P = two_gen_presentation()
    x, y = range(P.ngens)
    key = P.order.key
    assert key((y,)) > key((x,))
    assert key((x, x)) > key((y,))        # degree first
    assert key((y, x)) > key((x, y))      # then precedence, left to right
    assert max(NCPoly({(x, y): ONE, (y, x): ONE}).terms, key=key) == (y, x)


def builder_presentations():
    R, Rp = glq2_rmatrix(), perturbed_rmatrix()
    return [frt_algebra(R), braided_matrices(R), braided_chain(R, 2), braided_chain(R, 3),
            braided_tensor_square(braided_matrices(R), R),
            braided_matrices(Rp), braided_chain(Rp, 2),
            braided_tensor_square(braided_matrices(Rp), Rp)]


def test_parse_and_format_roundtrip():
    R = glq2_rmatrix()
    P = braided_matrices(R)
    for src in ["u[1,2]*u[1,1]",
                "q^2 * u[1,1]*u[1,2] + (1 - q^-2) * u[2,1]*u[1,2]",
                "(q - q^-1)/(q + 1) * u[1,1] - 3",
                "1"]:
        p = parse_poly(src, P)
        assert parse_poly(format_poly(p, P), P) == p
    Rp = perturbed_rmatrix()
    for P in (P, braided_chain(R, 2), braided_tensor_square(P, R),
              braided_matrices(Rp)):
        for r in P.relations:
            assert parse_poly(format_poly(r, P), P) == r
    chain = braided_chain(R, 2)
    for src in ["u2[1,2]*u1[2,1] - q * u1[1,1]*u2[2,2]", "u1[2,2]*u2[1,1]"]:
        p = parse_poly(src, chain)
        assert parse_poly(format_poly(p, chain), chain) == p


def test_relation_words_are_roster_positions():
    for P in builder_presentations():
        _, parsed = parse_presentation_document(
            format_presentation_document(P, "doc", "glq2", 1))
        assert parsed.relations == P.relations
        for r in P.relations:
            for w in r.terms:
                assert type(w) is tuple
                assert all(type(g) is int and 0 <= g < P.ngens for g in w), P.name


def test_parse_rejects_unknown_generator_and_bad_syntax():
    P = two_gen_presentation()
    with pytest.raises(PolyParseError):
        parse_poly("z[1,1]", P)
    with pytest.raises(PolyParseError):
        parse_poly("x[1,1]^2", P)
    with pytest.raises(PolyParseError):
        parse_poly("x[1,1] * ", P)
    with pytest.raises(PolyParseError):
        parse_poly("1/x[1,1]", P)


def test_parse_poly_bounds():
    P = two_gen_presentation()
    x = NCPoly.gen(P.gen("x", 1, 1), ONE)
    depth = qs.MAX_NESTING
    assert parse_poly("(" * depth + "x[1,1]" + ")" * depth, P) == x
    assert parse_poly("-" * 5001 + "x[1,1]", P) == -x
    assert parse_poly(f"(1+q)^{qs.MAX_POWER_SPAN} * x[1,1]", P) == x.scale(
        qs.parse_scalar(f"(1+q)^{qs.MAX_POWER_SPAN}"))
    for bad in ("(" * (depth + 1) + "x[1,1]" + ")" * (depth + 1),
                "(" * 5000 + "x[1,1]" + ")" * 5000,
                f"(1+q)^{qs.MAX_POWER_SPAN + 1} * x[1,1]",
                "(1+q)^1600",
                "2^100000",
                "9" * 5000 + " * x[1,1]"):
        with pytest.raises(PolyParseError):
            parse_poly(bad, P)


def test_parse_poly_power_over_gf_p():
    GF = qs.ModRing(PRIMES[:1])
    P = two_gen_presentation().evaluate_mod(GF.from_int(3))
    x = NCPoly.gen(P.gen("x", 1, 1), P.field.one)
    assert parse_poly("2^-3 * x[1,1]", P) == x.scale(GF.one / GF.from_int(8))
    with pytest.raises(PolyParseError):
        parse_poly("0^-1", P)


def test_presentation_rejects_bad_relations():
    P = two_gen_presentation()
    x = NCPoly.gen(P.gen("x", 1, 1), ONE)
    with pytest.raises(NCAlgError):
        two_gen_presentation([x])                    # degree 1
    with pytest.raises(NCAlgError):
        two_gen_presentation([NCPoly.gen(2, ONE) * x])  # position outside the roster
    with pytest.raises(NCAlgError):
        Presentation(1, [Generator("x", 1, 1)] * 2, [])  # duplicate roster generators
    with pytest.raises(NCAlgError):
        P.gen("z", 1, 1)                                # not a roster generator


# -- orientation --------------------------------------------------------------

def test_orient_identity_r_gives_commutators():
    P = braided_matrices(identity_rmatrix(2))
    rules = orient_relations(P)
    assert len(rules) == 6
    for rule in rules:
        g, h = rule.lhs
        assert g > h
        assert rule.rhs == NCPoly({(h, g): ONE})


def test_orient_glq2_contains_expected_rule():
    # oracle: expand R21 u1 R u2 - u2 R21 u1 R through plain dense products
    # of operator-valued matrices written from scratch (no leg_embed), then
    # orient and inspect the rule for b*a
    R = glq2_rmatrix()
    N = 2
    gens = {(i, j): (i - 1) * 2 + (j - 1) for i in range(1, 3) for j in range(1, 3)}

    def entry(i, j, k, l):
        return R.entries.get((i, j, k, l), qs.ZERO)

    idx = list(itertools.product((1, 2), repeat=2))
    size = N * N

    def flat(i, j):
        return (i - 1) * N + (j - 1)

    def scalar_mat(f):
        m = [[NCPoly.zero()] * size for _ in range(size)]
        for (i, j), (k, l) in itertools.product(idx, idx):
            c = f(i, j, k, l)
            if c:
                m[flat(i, j)][flat(k, l)] = NCPoly({(): c})
        return m

    r_mat = scalar_mat(lambda i, j, k, l: entry(i, j, k, l))
    r21_mat = scalar_mat(lambda i, j, k, l: entry(j, i, l, k))
    u1 = [[NCPoly.zero()] * size for _ in range(size)]
    u2 = [[NCPoly.zero()] * size for _ in range(size)]
    for (i, j), (k, l) in itertools.product(idx, idx):
        if j == l:
            u1[flat(i, j)][flat(k, l)] = NCPoly.gen(gens[(i, k)], ONE)
        if i == k:
            u2[flat(i, j)][flat(k, l)] = NCPoly.gen(gens[(j, l)], ONE)

    def matmul(A, B):
        return [[sum((A[i][k] * B[k][j] for k in range(size)), NCPoly.zero())
                 for j in range(size)] for i in range(size)]

    lhs = matmul(matmul(matmul(r21_mat, u1), r_mat), u2)
    rhs = matmul(matmul(matmul(u2, r21_mat), u1), r_mat)
    relations = []
    for i in range(size):
        for j in range(size):
            d = lhs[i][j] - rhs[i][j]
            if d:
                relations.append(d)
    roster = [Generator("u", i, j) for i in range(1, 3) for j in range(1, 3)]
    P_oracle = Presentation(2, roster, relations, name="bm-oracle")
    rules = {r.lhs: r for r in orient_relations(P_oracle)}
    a, b = gens[(1, 1)], gens[(1, 2)]
    rule = rules[(b, a)]
    assert rule.rhs == NCPoly({(a, b): qs.parse_scalar("q^2")})
    # and the span agrees with the builder's
    P_built = braided_matrices(glq2_rmatrix())
    assert [dict(r.terms) for r in P_oracle.relations] == \
        [dict(r.terms) for r in P_built.relations]


def test_a_plain_list_is_one_placement_on_all_generators():
    R = glq2_rmatrix()
    roster = [g for c in ("u1", "u2") for g in matrix_roster(c, 2)]
    given = chain_relations_at_offsets(R, 2)
    plain = Presentation(2, roster, given, field=R.field)
    placed = Presentation(2, roster, [(given, 8, (0,))], field=R.field)
    assert plain.relations == placed.relations == braided_chain(R, 2).relations
    assert plain.leads == placed.leads
    assert [(size, copies) for _, size, copies in plain.placements] == [(8, (0,))]


def test_placements_with_overlapping_word_supports_are_refused():
    R = glq2_rmatrix()
    own, cross = self_block(R), cross_block(R, "r21")
    roster = [g for c in ("u1", "u2", "u3") for g in matrix_roster(c, 2)]
    refused = {
        "one form twice on one copy": [(own, 4, (0,)), (own, 4, (0,))],
        "two forms on one copy pair": [(cross, 4, (0, 1)), (list(cross), 4, (0, 1))],
        "a two-copy form over a placed block": [(own, 4, (1,)), (own + cross, 4, (1, 2))],
        "two block sizes": [(own, 4, (0,)), (own, 6, (1,))],
        "copies out of order": [(cross, 4, (1, 0))],
        "a copy past the roster": [(own, 4, (3,))],
        "a form too wide for its copies": [(cross, 4, (2,))],
        "a form on three copies": [(chain_relations_at_offsets(R, 3), 4, (0, 1, 2))],
        "a self block on two copies": [(self_block(perturbed_rmatrix()), 4, (0, 1))],
    }
    for placements in refused.values():
        with pytest.raises(NCAlgError):
            Presentation(2, roster, placements, field=R.field)
    # disjoint supports on shared copies are placements like any other
    P = Presentation(2, roster, [(own, 4, (0,)), (own, 4, (2,)), (cross, 4, (0, 2))],
                     field=R.field)
    assert len(P.forms) == 2 and len(P.relations) == 2 * 6 + 16


def test_a_self_block_placed_on_two_copies_is_refused():
    # its words all lie on the first copy; the class pass rests on every
    # two-copy word taking one letter from each copy, and would read this
    # placement as confluent and miscount degrees 3 and 4
    R = perturbed_rmatrix()
    own = self_block(R)
    roster = [g for c in ("u", "v") for g in matrix_roster(c, 2)]
    with pytest.raises(NCAlgError):
        Presentation(2, roster, [(own, 4, (0, 1))], field=R.field)
    P = Presentation(2, roster, [(own, 4, (0,))], field=R.field)
    dims = [P.ngens ** d - span_rank(P, d) for d in range(5)]
    assert hilbert_dims(P, 4) == dims == [1, 8, 54, 374, 2583]


def test_orient_singular_exchange_raises():
    # two copies with relations E (vu-words) - F (uv-words) where E is
    # singular: solving forces a rule for an ascending cross-copy word
    u, v = 0, 1
    roster = [Generator("u", 1, 1), Generator("v", 1, 1)]
    vu = NCPoly({(v, u): ONE})
    uv = NCPoly({(u, v): ONE})
    with pytest.raises(OrientationError, match=r"cross-copy word u\[1,1\]\*v\[1,1\]\)"):
        Presentation(1, roster, [vu - uv, vu - uv.scale(qs.parse_scalar("2"))],
                     name="singular-exchange")


def test_singular_exchange_block_is_refused_at_construction():
    # as a plain list, as placements and through the builders, the
    # presentation names the word that the present command reports
    R = RMatrix(2, {k: qs.parse_scalar(v) for k, v in SINGULAR_EXCHANGE.items()})
    own, base = self_block(R), braided_matrices(R)
    chain_roster = [g for c in ("u1", "u2") for g in matrix_roster(c, 2)]
    square_roster = [Generator(f"{t}.u", g.row, g.col) for t in "LR" for g in base.roster]
    for word, roster, given, cross, build in (
            ("u1[2,2]*u2[1,2]", chain_roster, chain_relations_at_offsets(R, 2), "r21",
             lambda: braided_chain(R, 2)),
            ("L.u[2,2]*R.u[2,1]", square_roster, square_relations_at_offsets(base, R),
             "statistics", lambda: braided_tensor_square(base, R))):
        placements = [(own, 4, (0,)), (own, 4, (1,)), (cross_block(R, cross), 4, (0, 1))]
        for make in (lambda: Presentation(2, roster, given, field=R.field),
                     lambda: Presentation(2, roster, placements, field=R.field), build):
            with pytest.raises(OrientationError) as e:
                make()
            assert str(e.value) == (
                "cannot orient for this order: exchange coefficient matrix is singular "
                f"(forced a rule for the ascending cross-copy word {word})")


def test_orientation_solvable_for_glq2_presets():
    R = glq2_rmatrix()
    from braidalg.presents import braided_chain, braided_tensor_square
    for P in (braided_matrices(R), braided_chain(R, 2),
              braided_tensor_square(braided_matrices(R), R)):
        rules = orient_relations(P)
        assert len(rules) == len(P.relations)


def test_rules_read_off_pruned_relations_match_the_general_solve():
    # rules are read off the stored relations; the reference solves the
    # relations as given for their leading words with an echelon basis
    R = glq2_rmatrix()
    Rp = perturbed_rmatrix()
    base = braided_matrices(Rp)
    for P, given in ((braided_matrices(R), self_block(R)),
                     (braided_chain(R, 2), chain_relations_at_offsets(R, 2)),
                     (braided_tensor_square(base, Rp),
                      square_relations_at_offsets(base, Rp))):
        ech = SparseEchelon(P.order.key)
        for r in given:
            ech.insert(dict(r.terms))
        solved = []
        for row, _ in ech.canonical():
            lead = max(row, key=P.order.key)
            solved.append((lead, NCPoly({w: -c for w, c in row.items() if w != lead})))
        rules = list(orient_relations(P))
        assert [(r.lhs, r.rhs) for r in rules] == solved, P.name
        assert all(r.source == i for i, r in enumerate(rules))


@pytest.mark.parametrize("preset, n", [("bm", 1), ("chain", 2), ("square", 1)])
@pytest.mark.parametrize("rmatrix", [glq2_rmatrix, perturbed_rmatrix], ids=["glq2", "pert2"])
def test_specialized_relations_are_the_entrywise_specialization(rmatrix, preset, n):
    # evaluate_mod keeps each specialized relation in its place without
    # pruning again, so verdicts stay aligned with the symbolic relations
    R = rmatrix()
    P = build_preset(preset, R, n)
    dens = {qs.RatFunc(0, c.den) for r in P.relations for c in r.terms.values()}
    # at each point alone, and at all three at once over Z/MZ
    ring = qs.ModRing(PRIMES[:3])
    images = [F.image(q0) for F, q0 in zip(ring.fields, sample_points(R, DEFAULT_SEED, dens))]
    for x in images + [ring.crt(images)]:
        want = tuple(r.map_coefficients(lambda c: c.evaluate_mod(x)) for r in P.relations)
        assert P.evaluate_mod(x).relations == want, (preset, x)


def test_specialization_evaluates_each_distinct_coefficient_once(monkeypatch):
    R = perturbed_rmatrix()
    P = braided_tensor_square(braided_chain(R, 2), R)
    distinct = {c for r in P.relations for c in r.terms.values()}
    occurrences = sum(len(r.terms) for r in P.relations)
    assert len(distinct) < occurrences
    x = qs.ModRing(PRIMES[:1]).image(Fraction(7, 6))
    calls = []
    evaluate_mod = qs.RatFunc.evaluate_mod

    def counting(c, x):
        calls.append(c)
        return evaluate_mod(c, x)

    monkeypatch.setattr(qs.RatFunc, "evaluate_mod", counting)
    P_x = P.evaluate_mod(x)
    assert sorted(map(id, calls)) == sorted(map(id, distinct))
    # a copy over Z/MZ with the roster, order and orientation of P
    assert (P_x.field, P_x.roster, P_x.leads) == (x.ring, P.roster, P.leads)
    assert P_x._cache == {} and P_x._cache is not P._cache
    assert [r.lhs for r in orient_relations(P_x)] == [r.lhs for r in orient_relations(P)]


# -- normal form --------------------------------------------------------------

def test_normal_form_kills_relations():
    P = braided_matrices(glq2_rmatrix())
    rules = RewriteSystem(P, orient_relations(P))
    for r in P.relations:
        assert rules.reduce(r)[0].is_zero()


def test_normal_form_of_unit():
    P = braided_matrices(glq2_rmatrix())
    rules = RewriteSystem(P, orient_relations(P))
    assert rules.reduce(NCPoly.unit(ONE))[0] == NCPoly.unit(ONE)


def test_normal_form_ba():
    P = braided_matrices(glq2_rmatrix())
    rules = RewriteSystem(P, orient_relations(P))
    ba = parse_poly("u[1,2]*u[1,1]", P)
    assert rules.reduce(ba)[0] == parse_poly("q^2 * u[1,1]*u[1,2]", P)


def test_normal_form_idempotent_on_random_inputs():
    P = braided_matrices(glq2_rmatrix())
    rules = RewriteSystem(P, orient_relations(P))
    rng = random.Random(41)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            w = tuple(rng.randrange(P.ngens) for _ in range(rng.randint(0, 3)))
            terms[w] = qs.RatFunc.from_int(rng.randint(-3, 3))
        p = NCPoly(terms)
        nf = rules.reduce(p)[0]
        assert rules.reduce(nf)[0] == nf
