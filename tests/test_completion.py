"""Completion by copy classes: the class pass of TruncatedGB against full
completion, its fallbacks, and its share of the work budget."""

import pytest

from braidalg import qscalar as qs
from braidalg import rewrite
from braidalg.cli import format_presentation_document, parse_presentation_document
from braidalg.ideals import hilbert_dims
from braidalg.ncalg import NCPoly, Presentation, format_poly, parse_poly
from braidalg.presents import (braided_chain, braided_matrices, braided_tensor_square,
                               cross_block, frt_algebra, matrix_roster, self_block)
from braidalg.rewrite import CompletionBudgetError, TruncatedGB
from braidalg.rmat import RMatrix, glq2_rmatrix

from test_rewrite import reference_reduce

BOUND = 4


class FullCompletion(TruncatedGB):
    """TruncatedGB with the class pass refused: always completes."""

    def _resolved_by_classes(self):
        return False


def glq_rmatrix(N):
    entries = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i == j:
                entries[(i, i, i, i)] = qs.Q
            else:
                entries[(i, j, i, j)] = qs.ONE
                if i < j:
                    entries[(i, j, j, i)] = qs.Q - qs.QINV
    return RMatrix(N, entries)


def pert2_rmatrix():
    R = glq2_rmatrix()
    return RMatrix(2, dict(R.entries) | {(1, 2, 2, 1): qs.parse_scalar("1 + q")})


def square(P, R):
    return braided_tensor_square(P, R).presentation


def assert_same_verdict(P, bound=BOUND, gb=None):
    gb = TruncatedGB(P, bound) if gb is None else gb
    full = FullCompletion(P, bound)
    assert [(r.lhs, r.rhs) for r in gb.added_rules] == \
        [(r.lhs, r.rhs) for r in full.added_rules]
    assert gb.normal_word_counts(bound) == full.normal_word_counts(bound)
    assert list(gb.rules) == list(full.rules)
    return gb, full


# (name, presentation builder, classes, representative overlaps reduced, work)
CONFLUENT = [
    ("frt-glq2", lambda: frt_algebra(glq2_rmatrix()), 1, 4, 22),
    ("bm-glq2", lambda: braided_matrices(glq2_rmatrix()), 1, 4, 28),
    *((f"chain-glq2-n{n}", lambda n=n: square(braided_chain(glq2_rmatrix(), n), glq2_rmatrix()),
       classes, 292 if n > 2 else 228, 3678 if n > 2 else 2754)
      for n, classes in ((2, 5), (3, 6), (4, 6), (5, 6))),
    ("chain-glq3-n2", lambda: square(braided_chain(glq_rmatrix(3), 2), glq_rmatrix(3)), 5, 2838,
     51845),
    ("chain-glq3-n3-unsquared", lambda: braided_chain(glq_rmatrix(3), 3), 3, 1461, 28563),
    ("bm-glq3", lambda: square(braided_matrices(glq_rmatrix(3)), glq_rmatrix(3)), 2, 732, 11161),
    ("bm-glq4", lambda: square(braided_matrices(glq_rmatrix(4)), glq_rmatrix(4)), 2, 4400, 83137),
]


@pytest.mark.parametrize("name,build,classes,reduced,work", CONFLUENT,
                         ids=[c[0] for c in CONFLUENT])
def test_class_pass_gives_full_completions_verdict(name, build, classes, reduced, work,
                                                  monkeypatch):
    P = build()
    gb, steps = assert_class_pass_steps_match_reduce(P, monkeypatch)
    gb, full = assert_same_verdict(P, gb=gb)
    assert not gb.fell_back and gb.added_rules == []
    assert (gb.classes, gb.class_overlaps) == (classes, reduced)
    assert not any(residue for residue, _ in steps)
    # the budget unit: one per reduced overlap plus its steps
    assert gb.work == work == sum(1 + n for _, n in steps)
    # one representative per class does less work than every overlap
    assert 0 < gb.work <= full.work
    assert full.fell_back and full.classes == 0


def _decode(terms, n):
    return {(w // (n * n), w // n % n, w % n): c for w, c in terms.items()}


def assert_class_pass_steps_match_reduce(P, monkeypatch):
    """Build TruncatedGB(P, BOUND) recording each overlap difference the
    class pass reduces, the steps it took and the residue it left; check
    each against the reference reducer with the quadratic rules.  Returns
    the system and (residue, steps) of each."""
    seen, counts = [], []
    overlap_terms, reduce_coded = rewrite._overlap_terms, TruncatedGB._reduce_coded

    def recording_overlap(pairs, n, a, b, c):
        terms = overlap_terms(pairs, n, a, b, c)
        if terms:
            # a copy of the difference, and the dict the pass reduces in place
            seen.append(((a, b, c), dict(terms), terms))
        return terms

    def recording_reduce(self, terms, length, steps=None):
        count = reduce_coded(self, terms, length, steps)
        counts.append(count)
        return count

    with monkeypatch.context() as m:
        m.setattr(rewrite, "_overlap_terms", recording_overlap)
        m.setattr(TruncatedGB, "_reduce_coded", recording_reduce)
        gb = TruncatedGB(P, BOUND)
    # the pass reduces each recorded difference before any other reduction
    assert len(seen) == gb.class_overlaps <= len(counts)
    quadratic, reduced = rewrite.orient_relations(P), []
    for ((a, b, c), diff_terms, residue_terms), count in zip(seen, counts):
        r1, r2 = quadratic.rules[(a, b)], quadratic.rules[(b, c)]
        diff = r1.rhs.sandwich((), (c,)) - r2.rhs.sandwich((a,), ())
        assert _decode(diff_terms, gb.n) == diff.terms
        residue, steps = reference_reduce(quadratic, diff, collect=True)
        assert count == len(steps)
        assert _decode(residue_terms, gb.n) == residue.terms
        reduced.append((residue, len(steps)))
    return gb, reduced


def test_non_confluent_square_falls_back_to_full_completion():
    Rp = pert2_rmatrix()
    gb, full = assert_same_verdict(square(braided_chain(Rp, 2), Rp))
    assert gb.fell_back and gb.classes == 5 and gb.class_overlaps == 1
    assert len(gb.added_rules) == 361
    # the pass's reductions are charged on top of completion's
    assert gb.work > full.work


def _mutated_chain3(k):
    """chain glq2 n=3 with one non-leading coefficient of relation k of the
    u3/u1 cross block multiplied by 1 + q."""
    R = glq2_rmatrix()
    rels = [r for i in range(3) for r in self_block(R, 4 * i)]
    for i in range(3):
        for j in range(i):
            block = cross_block(R, 4 * i, 4 * j)
            if (i, j) == (2, 0):
                terms = dict(block[k].terms)
                w = min(terms)
                terms[w] = terms[w] * qs.parse_scalar("1 + q")
                block[k] = NCPoly(terms)
            rels.extend(block)
    roster = [g for i in range(3) for g in matrix_roster(f"u{i + 1}", 2)]
    return Presentation(2, roster, rels, field=R.field, name="chain3")


def test_a_changed_cross_block_separates_its_copy_pair():
    # all three pairs of the chain carry the same r21 block: one single,
    # one pair and one triple class
    gb = TruncatedGB(braided_chain(glq2_rmatrix(), 3), BOUND)
    assert (gb.classes, gb.fell_back) == (3, False)
    for k in (0, 2, 6):
        mutated, _ = assert_same_verdict(_mutated_chain3(k))
        # u1u3 now differs from u1u2 and u2u3
        assert mutated.classes == 4
        assert mutated.fell_back and mutated.added_rules


def test_class_pass_steps_match_reduce_up_to_a_residue(monkeypatch):
    # the pert2 square's first reduced overlap leaves a residue; the mutated
    # chain's first residue comes after dozens of zero ones
    Rp = pert2_rmatrix()
    for P in (square(braided_chain(Rp, 2), Rp), _mutated_chain3(0)):
        gb, reduced = assert_class_pass_steps_match_reduce(P, monkeypatch)
        assert gb.fell_back
        assert [bool(residue) for residue, _ in reduced] == [False] * (len(reduced) - 1) + [True]


def _chain2_document():
    R = glq2_rmatrix()
    return format_presentation_document(braided_chain(R, 2), "chain", "glq2", 2)


def _interleaved_tensor_product_document():
    # two copies of bm glq2 that commute, with the roster alternating
    # u1, u2, u1, u2, ...
    lines = _chain2_document().splitlines()
    gens = next(ln for ln in lines if ln.startswith("generators:")).split()[1:]
    u1, u2 = gens[:4], gens[4:]
    out = []
    for ln in lines:
        if ln.startswith("generators:"):
            ln = "generators: " + " ".join(g for pair in zip(u1, u2) for g in pair)
        elif ln.startswith("relation:") and "u1" in ln and "u2" in ln:
            continue
        out.append(ln)
    out += [f"relation: {v}*{u} - {u}*{v}" for v in u2 for u in u1]
    return "\n".join(out) + "\n"


# (document, nf input, hilbert dims to degree 4, nf output) as the completion
# without a class pass gives them
FALLBACKS = {
    "interleaved-roster": (
        _interleaved_tensor_product_document,
        "u2[2,2]*u1[1,1]*u2[1,2] + q*u1[2,1]*u2[1,1]*u1[1,2]",
        [1, 8, 36, 120, 330],
        "q * u2[1,1]*u1[1,2]*u1[2,1] + u1[1,1]*u2[1,2]*u2[2,2] + (q^-1 - q) * "
        "u1[1,1]*u2[1,1]*u1[2,2] - (q^-2 - 1) * u1[1,1]*u2[1,1]*u2[1,2] - "
        "(q^-1 - q) * u1[1,1]*u1[1,1]*u2[1,1]"),
    "copy-multiset-changing-relation": (
        lambda: _chain2_document() + "relation: u2[1,1]*u1[1,1] - u1[1,2]*u1[2,1]\n",
        "u2[2,2]*u1[1,1]*u2[1,1] + q*u2[1,1]*u2[1,1]*u1[1,1]",
        [1, 8, 35, 107, 243],
        "-(q^-2 - 2 + q^2) * u1[2,2]*u1[2,2]*u2[1,1] + (1 - q^2) * u1[2,1]*u1[2,2]*u2[1,2] "
        "- (1 - q^2) * u1[1,2]*u1[2,2]*u2[2,1] + u1[1,1]*u2[1,1]*u2[2,2] + "
        "(q^-2 - 1 + q - q^2 + q^4) * u1[1,1]*u2[1,1]*u2[1,1] + (2*q^-2 - 4 + 2*q^2) * "
        "u1[1,1]*u1[2,2]*u2[1,1] + (q^-4 - 2*q^-2 + q^2) * u1[1,1]*u1[2,1]*u2[1,2] + "
        "(q^2 - q^4) * u1[1,1]*u1[1,2]*u2[2,1] - (q^-2 - 2 + q^2) * u1[1,1]*u1[1,1]*u2[1,1]"),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_unqualified_input_takes_the_fallback(case):
    document, poly, dims, nf = FALLBACKS[case]
    _, P = parse_presentation_document(document())
    gb, _ = assert_same_verdict(P)
    assert gb.fell_back and gb.classes == 0 and gb.class_overlaps == 0
    assert hilbert_dims(P, BOUND) == dims
    p = parse_poly(poly, P)
    assert format_poly(TruncatedGB(P, p.degree()).reduce(p)[0], P) == nf


def test_bounds_below_three_take_the_fallback():
    P = braided_chain(glq2_rmatrix(), 2)
    for bound in (0, 2):
        gb = TruncatedGB(P, bound)
        assert gb.fell_back and gb.classes == 0 and gb.work == 0


def test_the_class_pass_is_charged_to_the_work_budget(monkeypatch):
    P = square(braided_chain(glq2_rmatrix(), 3), glq2_rmatrix())
    needed = TruncatedGB(P, BOUND).work
    monkeypatch.setattr(rewrite, "MAX_COMPLETION_WORK", needed - 1)
    with pytest.raises(CompletionBudgetError):
        TruncatedGB(P, BOUND)
    monkeypatch.setattr(rewrite, "MAX_COMPLETION_WORK", needed)
    assert not TruncatedGB(P, BOUND).fell_back
