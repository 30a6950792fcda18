"""Ideal membership (both engines), certificates, Hilbert dimensions,
span comparison, and generator substitution."""

import math
import random

import pytest

from braidalg import qscalar as qs
from braidalg.ideals import (MissingImageError, hilbert_dims, ideal_membership,
                             reduce_mod_ideal, span_membership, span_rank,
                             substitute_generators)
from braidalg.ncalg import Generator, NCPoly, Presentation, parse_poly, word_str
from braidalg.presents import (braided_chain, braided_matrices,
                               braided_tensor_square, cross_block, frt_algebra,
                               matrix_roster)
from braidalg.rewrite import (RewriteSystem, TruncatedGB, orient_relations,
                              quadratic_system, truncated_gb)
from braidalg.rmat import glq2_rmatrix, identity_rmatrix

from oracles import (RosterMismatchError, perturbed_rmatrix, rearranged_cross_block,
                     relation_span_equal, rule_element)

ONE = qs.ONE


def commutative_count(nvars, d):
    return math.comb(d + nvars - 1, nvars - 1)


def span_dims(P, bound):
    """hilbert_dims by sandwich-span elimination (the oracle)."""
    return [P.ngens ** d - span_rank(P, d) for d in range(bound + 1)]


@pytest.fixture(scope="module")
def bm():
    return braided_matrices(glq2_rmatrix())


# -- membership basics ---------------------------------------------------------

def test_relation_is_member_with_unit_certificate(bm):
    for i, r in enumerate(bm.relations):
        ok, cert = ideal_membership(r, bm)
        assert ok
        assert cert.terms == (((), i, (), ONE),)


def test_sandwiched_relations_are_members(bm):
    x = NCPoly.gen(0, ONE)
    y = NCPoly.gen(3, ONE)
    r, s = bm.relations[0], bm.relations[1]
    p = x * r + s * y
    ok, cert = ideal_membership(p, bm)
    assert ok
    assert cert.replay(bm.relations) == p


def test_single_generator_is_not_member(bm):
    ok, cert = ideal_membership(NCPoly.gen(0, ONE), bm)
    assert not ok and cert is None


def test_membership_methods_agree_on_random_inputs(bm):
    rng = random.Random(97)
    agreements = 0
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            w = tuple(rng.randrange(bm.ngens) for _ in range(rng.randint(2, 3)))
            terms[w] = qs.RatFunc.from_int(rng.randint(-2, 2))
        if rng.random() < 0.5 and bm.relations:
            # mix in an actual ideal element half of the time
            r = rng.choice(bm.relations)
            g = rng.randrange(bm.ngens)
            p = NCPoly(terms) + NCPoly.gen(g, ONE) * r
        else:
            p = NCPoly(terms)
        if p.degree() > 3 or p.is_zero():
            continue
        got_rw, cert = ideal_membership(p, bm)
        got_sp, cert_sp = span_membership(p, bm)
        assert got_rw == got_sp
        if got_rw:
            assert cert.replay(bm.relations) == p
            assert cert_sp.replay(bm.relations) == p
        agreements += 1
    assert agreements >= 10


def test_nf_zero_implies_membership(bm):
    rules = RewriteSystem(bm, orient_relations(bm))
    rng = random.Random(3)
    for _ in range(10):
        r = rng.choice(bm.relations)
        g = rng.randrange(bm.ngens)
        p = NCPoly.gen(g, ONE) * r - r * NCPoly.gen(g, ONE)
        if rules.reduce(p)[0].is_zero():
            assert ideal_membership(p, bm)[0]


def test_nf_minus_input_is_always_member(bm):
    rules = RewriteSystem(bm, orient_relations(bm))
    rng = random.Random(13)
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            w = tuple(rng.randrange(bm.ngens) for _ in range(3))
            terms[w] = qs.RatFunc.from_int(rng.randint(-2, 2))
        p = NCPoly(terms)
        diff = rules.reduce(p)[0] - p
        if diff.is_zero():
            continue
        ok, cert = ideal_membership(diff, bm)
        assert ok
        assert cert.replay(bm.relations) == diff


def test_certificate_replay_exact(bm):
    SQ = braided_tensor_square(bm, glq2_rmatrix())
    r = SQ.relations[0]
    g = 2
    p = r * NCPoly.gen(g, ONE) * NCPoly.gen(g, ONE)
    residue, cert, _ = reduce_mod_ideal(p, SQ)
    assert residue.is_zero()
    assert cert.replay(SQ.relations) == p


def test_sampled_membership_agrees_with_exact(bm):
    # non-certifying numeric mode must agree with exact mode at generic points
    from fractions import Fraction
    points = [Fraction(5, 2), Fraction(-3), Fraction(7, 3)]
    rng = random.Random(61)
    GF = qs.ModRing((2 ** 61 - 1,))
    for _ in range(12):
        r = rng.choice(bm.relations)
        g = NCPoly.gen(rng.randrange(bm.ngens), ONE)
        p = g * r if rng.random() < 0.5 else NCPoly.gen(rng.randrange(bm.ngens), ONE) * g
        exact = ideal_membership(p, bm)[0]
        sampled = True
        for q0 in points:
            x = GF.image(q0)
            residue, cert, _ = reduce_mod_ideal(p.map_coefficients(lambda c: c.evaluate_mod(x)),
                                                bm.evaluate_mod(x))
            # over Z/MZ no certificate is collected
            assert cert is None
            sampled = sampled and residue.is_zero()
        assert sampled == exact


# -- confluence of the shipped presets -----------------------------------------

def test_non_confluent_input_surfaces_completion_and_engines_agree():
    # the perturbed R-matrix gives a quadratic system that is NOT confluent;
    # completion must adjoin rules (surfaced as a warning) and the completed
    # reduction must still agree with the independent span elimination
    Rp = perturbed_rmatrix()
    Pp = braided_matrices(Rp)
    gb = truncated_gb(Pp, 4)
    assert gb.completion_warning
    assert all(len(r.lhs) == 3 for r in gb.added_rules)
    assert hilbert_dims(Pp, 4) == span_dims(Pp, 4) == \
        [1, 4, 6, 6, 7]
    # adjoined rules are derived from earlier rules: each source sums exactly
    for rule in gb.added_rules:
        total = NCPoly.zero()
        for lw, earlier, rw, c in rule.source:
            total = total + rule_element(earlier, ONE).sandwich(lw, rw).scale(c)
        assert total == rule_element(rule, ONE)


def test_every_adjoined_rule_of_a_deep_completion_is_certified():
    # the bm pert2 square at D = 8 adjoins 60 rules whose derivations nest
    # 7 deep; certifying each rule's own element expands every source
    Rp = perturbed_rmatrix()
    SQ = braided_tensor_square(braided_matrices(Rp), Rp)
    gb = truncated_gb(SQ, 8)
    depth = {}  # a source names only earlier rules, so depth[r] is known
    for rule in gb.added_rules:
        depth[rule] = 1 + max(0 if type(r.source) is int else depth[r]
                              for _, r, _, _ in rule.source)
    assert len(gb.added_rules) == 60
    assert max(depth.values()) == 7
    for rule in gb.added_rules:
        element = rule_element(rule, ONE)
        residue, cert, warned = reduce_mod_ideal(element, SQ)
        assert residue.is_zero() and warned
        assert cert.replay(SQ.relations) == element


# adjoined rules of the perturbed presets at D = 4, in the order completion
# adjoins them; the order in which overlaps are visited decides both
PERTURBED_ADJOINED = {
    "bm": ["u[1,1]*u[1,1]*u[2,2]", "u[1,1]*u[2,2]*u[2,2]"],
    "chain": [
        "u1[1,1]*u1[1,1]*u1[2,2]", "u1[1,1]*u1[2,2]*u1[2,2]", "u1[1,2]*u2[1,1]*u2[1,1]",
        "u1[2,2]*u2[1,1]*u2[1,1]", "u1[2,1]*u2[1,1]*u2[1,1]", "u2[1,1]*u2[1,1]*u2[2,2]",
        "u1[1,2]*u1[1,2]*u2[1,1]", "u1[1,2]*u1[2,1]*u2[1,1]", "u1[1,1]*u1[2,2]*u2[1,1]",
        "u1[2,2]*u1[2,2]*u2[1,1]", "u1[2,1]*u2[1,2]*u2[1,2]", "u1[2,2]*u2[1,2]*u2[1,2]",
        "u1[2,2]*u2[1,2]*u2[2,1]", "u1[2,1]*u1[2,1]*u2[1,1]", "u2[1,1]*u2[2,2]*u2[2,2]",
        "u1[2,1]*u2[1,2]*u2[2,1]", "u1[2,2]*u2[1,1]*u2[2,2]", "u1[2,2]*u2[2,1]*u2[2,1]",
        "u1[1,2]*u1[2,1]*u2[1,2]", "u1[2,1]*u1[2,1]*u2[1,2]", "u1[1,1]*u1[2,2]*u2[1,2]",
        "u1[2,2]*u1[2,2]*u2[1,2]", "u1[1,1]*u1[2,2]*u2[2,1]", "u1[2,2]*u1[2,2]*u2[2,1]",
        "u1[1,2]*u2[1,1]*u2[2,2]", "u1[2,1]*u2[1,1]*u2[2,2]",
    ],
    "square": [
        "L.u[1,1]*L.u[1,1]*L.u[2,2]", "L.u[1,1]*L.u[2,2]*L.u[2,2]",
        "L.u[1,2]*L.u[1,2]*R.u[2,1]", "L.u[1,2]*L.u[2,1]*R.u[2,1]",
        "L.u[1,1]*L.u[2,2]*R.u[2,1]", "L.u[2,2]*L.u[2,2]*R.u[2,1]",
        "L.u[1,2]*R.u[1,2]*R.u[2,1]", "L.u[2,2]*R.u[1,2]*R.u[2,1]",
        "L.u[1,2]*R.u[2,1]*R.u[2,1]", "L.u[2,2]*R.u[2,1]*R.u[2,1]",
        "R.u[1,1]*R.u[1,1]*R.u[2,2]", "L.u[1,2]*L.u[1,2]*R.u[2,2]",
        "L.u[1,2]*L.u[2,1]*R.u[2,2]", "L.u[1,1]*L.u[2,2]*R.u[2,2]",
        "L.u[2,2]*L.u[2,2]*R.u[2,2]", "L.u[1,2]*R.u[1,1]*R.u[2,2]",
        "L.u[2,2]*R.u[1,1]*R.u[2,2]", "L.u[1,2]*R.u[2,2]*R.u[2,2]",
        "L.u[2,2]*R.u[2,2]*R.u[2,2]", "R.u[1,1]*R.u[2,2]*R.u[2,2]",
        "L.u[1,2]*L.u[2,1]*L.u[2,1]*R.u[2,1]", "L.u[1,2]*L.u[2,1]*R.u[1,2]*R.u[2,1]",
        "L.u[1,2]*L.u[2,1]*L.u[2,1]*R.u[2,2]", "L.u[1,2]*L.u[2,1]*R.u[1,1]*R.u[2,2]",
        "L.u[1,2]*R.u[1,2]*R.u[1,2]*R.u[2,1]", "L.u[2,2]*R.u[1,2]*R.u[1,2]*R.u[2,1]",
    ],
}


def test_perturbed_completion_adjoins_the_recorded_rules():
    from braidalg.presents import build_preset
    Rp = perturbed_rmatrix()
    counts = {}
    for preset, n in (("bm", 1), ("chain", 2), ("square", 1)):
        gb = truncated_gb(build_preset(preset, Rp, n), 4)
        counts[preset] = len(gb.added_rules)
        assert [word_str(r.lhs, gb.presentation.roster) for r in gb.added_rules] == PERTURBED_ADJOINED[preset]
    assert counts == {"bm": 2, "chain": 26, "square": 26}


def test_shipped_presets_confluent_at_degree_4():
    # the quadratic rewrite systems need no completion up to degree 4; if
    # they ever do, the completion warning must surface, not vanish
    R = glq2_rmatrix()
    presentations = [
        braided_matrices(R),
        braided_chain(R, 2),
        braided_tensor_square(braided_matrices(R), R),
        frt_algebra(R),
        braided_matrices(identity_rmatrix(2)),
    ]
    for P in presentations:
        gb = truncated_gb(P, 4)
        assert not gb.completion_warning, P.name


def test_reduction_completes_only_a_residue_on_a_non_confluent_square():
    R, Rp = glq2_rmatrix(), perturbed_rmatrix()
    SQ = braided_tensor_square(braided_matrices(R), R)
    SQp = braided_tensor_square(braided_matrices(Rp), Rp)
    # resolved rules are the basis itself
    assert quadratic_system(SQ, 4) is truncated_gb(SQ, 4)
    quad = quadratic_system(SQp, 4)
    assert quad.confluent is False and quad.completion_warning and not quad.added_rules
    # a member reduces to zero on the quadratic rules, a non-member again
    # on the completed basis
    member = SQp.relations[0] * NCPoly.gen(1, ONE) * NCPoly.gen(2, ONE)
    residue, cert, warned = reduce_mod_ideal(member, SQp)
    assert residue.is_zero() and warned and cert.replay(SQp.relations) == member
    assert ("gb", 4) not in SQp._cache
    p = NCPoly.term((0, 0, 5, 5), ONE)
    residue, cert, warned = reduce_mod_ideal(p, SQp)
    gb = truncated_gb(SQp, 4)
    assert gb is not quad and gb.added_rules
    assert residue == gb.reduce(p)[0] and warned
    assert cert.replay(SQp.relations) == p - residue


def test_completion_to_the_degree_of_p_gives_the_residue_of_any_higher_one():
    # the ideal is homogeneous, so a degree-4 polynomial reduced on the basis
    # completed to degree 4 has the residue it has on the degree-8 basis;
    # the members are degree-4 multiples of the rules completion adjoins
    Rp = perturbed_rmatrix()
    SQ = braided_tensor_square(braided_matrices(Rp), Rp)
    quad, deep = quadratic_system(SQ, 4), truncated_gb(SQ, 8)
    rng = random.Random(41)
    coeffs = [ONE, -ONE, qs.Q, ONE + qs.Q]
    polys = [rule_element(rule, ONE) * NCPoly.gen(g, ONE)
             for rule, g in zip(truncated_gb(SQ, 4).added_rules[:4], (0, 3, 5, 6))]
    while len(polys) < 8:  # random ones, kept when they leave a residue
        p = NCPoly({tuple(rng.randrange(SQ.ngens) for _ in range(4)): rng.choice(coeffs)
                    for _ in range(3)})
        if not quad.reduce(p)[0].is_zero():
            polys.append(p)
    members = 0
    for p in polys:
        assert p.degree() == 4 and not quad.reduce(p)[0].is_zero()
        residue, cert, warned = reduce_mod_ideal(p, SQ)
        assert residue == deep.reduce(p)[0] and warned
        assert cert.replay(SQ.relations) == p - residue
        members += residue.is_zero()
    assert 4 <= members < 8
def test_bound_2_reduction_takes_the_full_path():
    # below degree 3 no overlap lies within the bound: the quadratic rules
    # are the basis
    P = braided_matrices(perturbed_rmatrix())
    gb = truncated_gb(P, 2)
    assert quadratic_system(P, 2) is gb and gb.confluent and gb.classes == 0
    for p in (NCPoly.term((3, 0), ONE) + NCPoly.term((1, 2), ONE), P.relations[1].scale(ONE + ONE)):
        residue, cert, warned = reduce_mod_ideal(p, P)
        assert residue == TruncatedGB(P, 2).reduce(p)[0] and not warned
        assert cert.replay(P.relations) == p - residue


# -- Hilbert dimensions ---------------------------------------------------------

def test_hilbert_free_algebra():
    roster = [Generator("x", 1, 1), Generator("y", 1, 1)]
    P = Presentation(1, roster, [], name="free2")
    assert hilbert_dims(P, 3) == [1, 2, 4, 8]


def test_hilbert_bm_glq2_matches_commutative_counts(bm):
    want = [commutative_count(4, d) for d in range(4)]
    assert hilbert_dims(bm, 3) == want == [1, 4, 10, 20]


def test_hilbert_chain2_matches_commutative_counts():
    chain = braided_chain(glq2_rmatrix(), 2)
    want = [commutative_count(8, d) for d in range(3)]
    assert hilbert_dims(chain, 2) == want == [1, 8, 36]


def test_hilbert_methods_agree(bm):
    assert span_dims(bm, 3) == hilbert_dims(bm, 3)
    assert span_dims(bm, 5) == hilbert_dims(bm, 5)
    chain = braided_chain(glq2_rmatrix(), 2)
    assert span_dims(chain, 2) == hilbert_dims(chain, 2)


def test_hilbert_first_entries(bm):
    dims = hilbert_dims(bm, 2)
    assert dims[0] == 1
    assert dims[1] == len(bm.roster)


def test_hilbert_with_dead_end_generator():
    # a*a = a*b = 0 leaves 'a' with no allowed successor; the walk count
    # must handle the emptied state (regression for a KeyError)
    a, b = 0, 1
    P = Presentation(1, [Generator("x", 1, 1), Generator("y", 1, 1)], [NCPoly({(a, a): ONE}), NCPoly({(a, b): ONE})])
    dims = hilbert_dims(P, 3)
    assert dims == span_dims(P, 3) == [1, 2, 2, 2]


def skew_ring(extra=False):
    """x, y, z with yx, zx, zy q-commuting past x y, x z, y z by factors
    that leave the packed Laurent path (2^70 + q) or stay on it; extra adds
    x x = (2^70*q + 5) y z, which puts denominators in the basis and makes
    completion adjoin rules."""
    c = {(0, 1): qs.parse_scalar("2^70 + q"), (0, 2): qs.parse_scalar("q^-1 - 3*q"),
         (1, 2): qs.parse_scalar("(2^31 - 1)*q^2 + 3")}
    rels = [NCPoly({(b, a): ONE, (a, b): -f}) for (a, b), f in c.items()]
    if extra:
        rels.append(NCPoly({(0, 0): ONE, (1, 2): -qs.parse_scalar("2^70*q + 5")}))
    return Presentation(1, [Generator(g, 1, 1) for g in "xyz"], rels, name="skew3")


@pytest.mark.parametrize("extra", [False, True], ids=["confluent", "completed"])
def test_completion_is_exact_with_coefficients_past_the_packed_bound(extra):
    P = skew_ring(extra)
    dims = hilbert_dims(P, 4)
    assert dims == span_dims(P, 4)
    assert dims == ([1, 3, 5, 4, 4] if extra else [commutative_count(3, d) for d in range(5)])
    assert bool(truncated_gb(P, 4).added_rules) == extra
    rng = random.Random(29)
    coeffs = [ONE, qs.Q, qs.parse_scalar("2^70 - q^-1"), qs.parse_scalar("(2^30 + 1)*q^2 - 7")]
    members = 0
    for _ in range(12):
        d = rng.choice((3, 4))
        left = tuple(rng.randrange(3) for _ in range(rng.randrange(d - 1)))
        right = tuple(rng.randrange(3) for _ in range(d - 2 - len(left)))
        p = rng.choice(P.relations).sandwich(left, right).scale(rng.choice(coeffs))
        if rng.random() < 0.5:  # plus a word, which mostly leaves the ideal
            p = p + NCPoly.term(tuple(rng.randrange(3) for _ in range(d)), rng.choice(coeffs))
        residue, cert, _ = reduce_mod_ideal(p, P)
        assert cert.replay(P.relations) == p - residue
        assert span_membership(p - residue, P)[0]
        assert span_membership(p, P)[0] == residue.is_zero()
        members += residue.is_zero()
    assert 0 < members < 12


# -- relation span comparison ----------------------------------------------------

def test_span_equal_scaling(bm):
    scaled = [r.scale(qs.RatFunc.from_int(2)) for r in bm.relations]
    P2 = Presentation(bm.dim, bm.roster, scaled, name="scaled")
    assert relation_span_equal(bm, P2)


def test_span_not_equal_empty(bm):
    P2 = Presentation(bm.dim, bm.roster, [], name="empty")
    assert not relation_span_equal(bm, P2)
    assert not relation_span_equal(P2, bm)


def test_span_equal_roster_mismatch(bm):
    other = Presentation(2, matrix_roster("v", 2), [], name="other")
    with pytest.raises(RosterMismatchError):
        relation_span_equal(bm, other)


def test_span_equal_r21_vs_rearranged_cross_block():
    R = glq2_rmatrix()
    roster = matrix_roster("u1", 2) + matrix_roster("u2", 2)
    P1 = Presentation(2, roster, cross_block(R, form="r21"))
    P2 = Presentation(2, roster, rearranged_cross_block(R))
    assert relation_span_equal(P1, P2)


# -- substitution -----------------------------------------------------------------

def test_substitute_identity_images(bm):
    images = {g: NCPoly.gen(g, ONE) for g in range(bm.ngens)}
    p = parse_poly("u[1,2]*u[1,1] + q * u[2,2]", bm)
    assert substitute_generators(p, images, bm) == p


def test_substitute_counit_kills_relations(bm):
    # u[i,j] -> delta_ij as constants: every relation collapses to zero
    images = {i: NCPoly.unit(ONE) if g.row == g.col else NCPoly.zero()
              for i, g in enumerate(bm.roster)}
    for r in bm.relations:
        assert substitute_generators(r, images, bm).is_zero()


def test_substitute_coproduct_images_are_members_at_degree_4(bm):
    from braidalg.bialg import matrix_coproduct
    square = braided_tensor_square(bm, glq2_rmatrix())
    spec = matrix_coproduct(bm)
    for r in bm.relations:
        image = substitute_generators(r, spec.images, square)
        assert image.is_homogeneous(4)
        ok, cert = ideal_membership(image, square)
        assert ok
        assert cert.replay(square.relations) == image


def test_substitute_missing_image(bm):
    with pytest.raises(MissingImageError):
        substitute_generators(parse_poly("u[1,1]", bm), {}, bm)


def test_substitute_reduce_option(bm):
    images = {g: NCPoly.gen(g, ONE) for g in range(bm.ngens)}
    ba = parse_poly("u[1,2]*u[1,1]", bm)
    raw = substitute_generators(ba, images, bm)
    red = truncated_gb(bm, 2).reduce(raw)[0]
    assert raw == ba
    assert red == parse_poly("q^2 * u[1,1]*u[1,2]", bm)


def test_substitute_reduce_is_canonical_on_non_confluent_input():
    P = braided_matrices(perturbed_rmatrix())
    images = {g: NCPoly.gen(g, ONE) for g in range(P.ngens)}
    rule = truncated_gb(P, 3).added_rules[0]
    p = rule_element(rule, ONE)
    raw = substitute_generators(p, images, P)
    assert raw == p
    assert truncated_gb(P, 3).reduce(raw)[0].is_zero()
