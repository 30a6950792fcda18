"""Completion by copy classes: the class pass of TruncatedGB against full
completion, its fallbacks, and its share of the work budget."""

import heapq
import itertools
import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from braidalg import qscalar as qs
from braidalg import rewrite
from braidalg.cli import format_presentation_document
from braidalg.ideals import hilbert_dims
from braidalg.ncalg import NCPoly, Presentation, format_poly, parse_poly
from braidalg.presents import (braided_chain, braided_matrices, braided_tensor_square,
                               cross_block, frt_algebra, matrix_roster, self_block)
from braidalg.rewrite import CompletionBudgetError, TruncatedGB
from braidalg.rmat import RMatrix, glq2_rmatrix

from oracles import overlap_pushes, parse_presentation_document
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
    return braided_tensor_square(P, R)


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


def _decode(terms, gb, length=3):
    """Coded terms of words of this length as {word: value}, through gb's
    value table."""
    return {gb.decode(w, length): gb.values[c] for w, c in terms.items()}


def assert_class_pass_steps_match_reduce(P, monkeypatch):
    """Build TruncatedGB(P, BOUND) recording each overlap difference the
    class pass reduces, the steps it took and the residue it left; check
    each against the reference reducer with the quadratic rules.  Returns
    the system and (residue, steps) of each."""
    seen, counts, in_pass = [], [], []
    overlap_terms, reduce_coded = rewrite._overlap_terms, TruncatedGB._reduce_coded
    resolved_by_classes = TruncatedGB._resolved_by_classes

    def recording_pass(self):
        # full completion builds and reduces its overlaps with the same
        # functions; only the class pass's calls are recorded
        in_pass.append(True)
        try:
            return resolved_by_classes(self)
        finally:
            in_pass.clear()

    def recording_overlap(rs, r1, r2, ell):
        terms = overlap_terms(rs, r1, r2, ell)
        if terms and in_pass:
            # a copy of the difference, and the dict the pass reduces in place
            seen.append((r1.lhs, r2.lhs, ell, dict(terms), terms))
        return terms

    def recording_reduce(self, terms, length, steps=None):
        count = reduce_coded(self, terms, length, steps)
        if in_pass:
            counts.append(count)
        return count

    with monkeypatch.context() as m:
        m.setattr(TruncatedGB, "_resolved_by_classes", recording_pass)
        m.setattr(rewrite, "_overlap_terms", recording_overlap)
        m.setattr(TruncatedGB, "_reduce_coded", recording_reduce)
        gb = TruncatedGB(P, BOUND)
    # the pass reduces each recorded difference, and nothing else
    assert len(seen) == gb.class_overlaps == len(counts)
    quadratic, reduced = rewrite.orient_relations(P), []
    by_lhs = {r.lhs: r for r in quadratic}
    for ((a, b), (b2, c), ell, diff_terms, residue_terms), count in zip(seen, counts):
        assert (b2, ell) == (b, 1)
        r1, r2 = by_lhs[(a, b)], by_lhs[(b, c)]
        diff = r1.rhs.sandwich((), (c,)) - r2.rhs.sandwich((a,), ())
        assert _decode(diff_terms, gb) == diff.terms
        residue, steps = reference_reduce(quadratic, diff, collect=True)
        assert count == len(steps)
        assert _decode(residue_terms, gb) == residue.terms
        reduced.append((residue, len(steps)))
    return gb, reduced


def test_the_specialized_glq4_square_takes_the_same_class_pass(monkeypatch):
    # the bm GL_q(4) square at q = 123456789 in GF(2^61 - 1): the class
    # pass over residues gives the counters it gives over Q(q)
    R = glq_rmatrix(4)
    x = qs.ModRing((2 ** 61 - 1,)).from_int(123456789)
    symbolic = square(braided_matrices(R), R)
    P = symbolic.evaluate_mod(x)
    # the specialized square keeps its placements, each form specialized
    # entrywise
    assert [(size, copies) for _, size, copies in P.placements] == \
        [(size, copies) for _, size, copies in symbolic.placements]
    for (form_x, _, _), (form, _, _) in zip(P.placements, symbolic.placements):
        assert form_x == tuple(r.map_coefficients(lambda c: c.evaluate_mod(x)) for r in form)
    assert len(P.forms) == len(symbolic.forms) == 2
    gb, steps = assert_class_pass_steps_match_reduce(P, monkeypatch)
    assert not gb.fell_back and gb.added_rules == []
    assert (gb.classes, gb.class_overlaps, gb.work) == (2, 4400, 83137)
    assert not any(residue for residue, _ in steps)
    assert gb.work == sum(1 + n for _, n in steps)


ORIENTED = [
    ("chain-glq2-n5", lambda: braided_chain(glq2_rmatrix(), 5)),
    ("bm-glq4-square", lambda: square(braided_matrices(glq_rmatrix(4)), glq_rmatrix(4))),
    ("chain-pert2-n2", lambda: braided_chain(pert2_rmatrix(), 2)),
]


@pytest.mark.parametrize("build", [b for _, b in ORIENTED], ids=[n for n, _ in ORIENTED])
def test_orientation_reads_the_rules_off_the_relations_with_each_coefficient_negated(build):
    # the rules that negating every term's coefficient gives: the same left
    # sides, right sides and sources, over Q(q) and at a point of Z/MZ
    P = build()
    x = qs.ModRing((2 ** 61 - 1, 2 ** 61 - 31)).image(Fraction(3, 7))
    for S in (P, P.evaluate_mod(x)):
        want = [(lead, {w: -c for w, c in r.terms.items() if w != lead}, i)
                for i, (r, lead) in enumerate(zip(S.relations, S.leads))]
        assert [(r.lhs, r.rhs.terms, r.source) for r in rewrite.orient_relations(S)] == want


def test_threads_reducing_on_one_cached_system_get_the_serial_results():
    R = glq_rmatrix(3)
    P = square(braided_matrices(R), R)
    rng = random.Random(19)
    coeffs = [qs.ONE, qs.Q, -qs.QINV, qs.Q - qs.QINV, qs.parse_scalar("1/(1 + q)"),
              qs.parse_scalar("2*q^2 - 3")]
    polys = [NCPoly({tuple(rng.randrange(P.ngens) for _ in range(rng.choice((3, 4)))):
                     rng.choice(coeffs) for _ in range(4)}) for _ in range(40)]

    def plain(result):
        residue, steps = result
        return residue, [(left, rule.lhs, right, c) for left, rule, right, c in steps]

    serial = [plain(TruncatedGB(P, BOUND).reduce(p, collect=True)) for p in polys]
    gb = rewrite.truncated_gb(P, BOUND)

    class SlowMisses(dict):
        # a miss yields to the other threads, which are after the same value
        def get(self, key, default=None):
            out = super().get(key, default)
            if out is None:
                time.sleep(1e-4)
            return out

    gb._ids = SlowMisses(gb._ids)
    start, results = threading.Barrier(4, timeout=60), {}

    def work(k):
        start.wait()
        results[k] = [plain(gb.reduce(p, collect=True)) for p in polys]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [results.get(k) for k in range(4)] == [serial] * 4
    # one index per value, and each memo entry names the index of its value
    assert len(set(gb.values)) == len(gb.values) == len(gb._ids)
    assert all(gb._ids[v] == i for i, v in enumerate(gb.values))
    values = gb.values
    for (s, v), i in gb._sums.items():
        assert values[i] == values[s] + values[v]
    for r, row in gb._rows.items():
        assert all(values[i] == values[c] * values[r] for c, i in row.items())


def test_non_confluent_square_falls_back_to_full_completion():
    Rp = pert2_rmatrix()
    gb, full = assert_same_verdict(square(braided_chain(Rp, 2), Rp))
    assert gb.fell_back and gb.classes == 5 and gb.class_overlaps == 1
    assert len(gb.added_rules) == 361
    # the pass's reductions are charged on top of completion's
    assert gb.work > full.work
    assert (gb.work, full.work) == (51651, 51646)


def test_completion_builds_and_reduces_overlaps_without_reduce(monkeypatch):
    def refuse(self, p, collect=False):
        raise AssertionError("completion called RewriteSystem.reduce")

    monkeypatch.setattr(rewrite.RewriteSystem, "reduce", refuse)
    Rp = pert2_rmatrix()
    gb = TruncatedGB(square(braided_chain(Rp, 2), Rp), BOUND)
    assert gb.fell_back and len(gb.added_rules) == 361 and gb.work == 51651
    # the hilbert chain pert2 -n 3 -D 5 benchmark job's completion
    chain = TruncatedGB(braided_chain(Rp, 3), 5)
    assert chain.fell_back and (chain.work, len(chain.added_rules)) == (21123, 105)


class _RecordingHeapq:
    """heapq whose heappush records the overlaps completion queues."""

    heapify, heappop = staticmethod(heapq.heapify), staticmethod(heapq.heappop)

    def __init__(self):
        self.pushed = []

    def heappush(self, heap, item):
        if type(item) is tuple:  # reduction pushes word codes, ints
            _, w, _, r1, r2 = item
            self.pushed.append((w, r1.lhs, r2.lhs))
        heapq.heappush(heap, item)


@pytest.mark.parametrize("copies, bound, pushed", [(2, 4, 5616), (3, 5, 2745)],
                         ids=["square-pert2-n2-D4", "chain-pert2-n3-D5"])
def test_completion_queues_the_overlaps_of_the_reference_pairing(copies, bound, pushed,
                                                                 monkeypatch):
    # completion pairs each arriving rule only with the rules it overlaps,
    # through its prefix and suffix index; the reference pairs it with a
    # superset and filters, and both queue the same overlaps in one order
    Rp = pert2_rmatrix()
    P = braided_chain(Rp, copies)
    P = square(P, Rp) if copies == 2 else P
    recording = _RecordingHeapq()
    monkeypatch.setattr(rewrite, "heapq", recording)
    gb = TruncatedGB(P, bound)
    assert gb.fell_back
    assert recording.pushed == overlap_pushes(list(gb), bound)
    assert len(recording.pushed) == pushed


def test_overlap_terms_of_adjoined_rules_are_the_overlap_difference():
    # pairs of the length-3 rules adjoined on the pert2 square, overlapping
    # in one letter (a degree-5 word) or two (degree 4)
    Rp = pert2_rmatrix()
    gb = TruncatedGB(square(braided_chain(Rp, 2), Rp), BOUND)
    cubic = [r for r in gb.added_rules if len(r.lhs) == 3]
    checked = {1: 0, 2: 0}
    for r1, r2 in itertools.product(cubic, repeat=2):
        for ell in (1, 2):
            if r1.lhs[3 - ell:] == r2.lhs[:ell]:
                diff = (r1.rhs.sandwich((), r2.lhs[ell:])
                        - r2.rhs.sandwich(r1.lhs[:3 - ell], ()))
                terms = rewrite._overlap_terms(gb, r1, r2, ell)
                assert all(terms.values())
                assert _decode(terms, gb, 6 - ell) == diff.terms
                checked[ell] += 1
    assert checked[1] and checked[2]


def _mutated_chain3(k):
    """chain glq2 n=3 with one non-leading coefficient of relation k of the
    u3/u1 cross block multiplied by 1 + q: the placements of the chain, the
    changed block placed on its own on copies 0 and 2."""
    R = glq2_rmatrix()
    own, cross = self_block(R), cross_block(R, "r21")
    changed = list(cross)
    terms = dict(changed[k].terms)
    w = min(terms)
    terms[w] = terms[w] * qs.parse_scalar("1 + q")
    changed[k] = NCPoly(terms)
    placements = [(own, 4, (i,)) for i in range(3)]
    placements += [(changed if (j, i) == (0, 2) else cross, 4, (j, i))
                   for i in range(3) for j in range(i)]
    roster = [g for i in range(3) for g in matrix_roster(f"u{i + 1}", 2)]
    return Presentation(2, roster, placements, field=R.field, name="chain3")


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
