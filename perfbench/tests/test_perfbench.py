"""Tests of the benchmark itself:  python3 -m pytest -q perfbench/tests"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture(scope="module")
def work():
    w = run.prepare("test")
    yield w
    shutil.rmtree(w, ignore_errors=True)


def _rounds(workload, seed, n=4):
    sched = inputs.schedule(workload, seed)
    return [next(sched) for _ in range(n)]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_and_order_are_a_function_of_the_seed(workload):
    assert inputs.documents() == inputs.documents()
    assert inputs.jobs(workload, 5) == inputs.jobs(workload, 5)
    assert _rounds(workload, 5) == _rounds(workload, 5)
    assert inputs.hash_seed(5, "bm-glq4") == inputs.hash_seed(5, "bm-glq4")
    orders = {json.dumps(_rounds(workload, seed)) for seed in range(8)}
    assert len(orders) > 1
    for order in _rounds(workload, 5):
        assert sorted(order) == sorted(inputs.jobs(workload, 5))


def test_sampled_seed_changes_with_the_seed_only():
    sampled = [inputs.jobs("verify-sampled", s) for s in (1, 1, 2)]
    assert sampled[0] == sampled[1] != sampled[2]
    exact = {name: argv for name, argv in inputs.jobs("verify-exact", 1)}
    for name, argv in sampled[0]:
        assert argv[:len(exact[name])] == exact[name]
        assert argv[-4:-1] == ["--mode", "probabilistic", "--seed"]


def test_generated_documents_have_the_stated_properties():
    from braidalg import rmat
    docs = inputs.documents()
    assert rmat.load_rmatrix(docs["glq2.json"]) == rmat.glq2_rmatrix()
    for N in (3, 4):
        R = rmat.load_rmatrix(docs[f"glq{N}.json"])
        assert rmat.ybe_check(R)[0] and rmat.second_inverse(R) is not None
    assert not rmat.ybe_check(rmat.load_rmatrix(docs["pert2.json"]))[0]


def test_input_checks_pass(work):
    assert run.check_inputs(work, "verify-exact") == []


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

SMALL_JOBS = [
    ("v", ["verify", "bm", "glq2.json", "-D", "4"]),
    ("p", ["verify", "chain", "pert2.json", "-n", "2", "-D", "4", "--mode",
           "probabilistic", "--seed", "3"]),
    ("h", ["hilbert", "chain", "pert2.json", "-n", "2", "-D", "4"]),
    ("f", ["present", "frt", "glq2.json"]),
    ("b", ["biinv", "glq3.json"]),
]


@pytest.mark.parametrize("name,argv", SMALL_JOBS)
def test_traced_run_leaves_stdout_byte_identical(work, name, argv):
    plain = run.run_job(work, 1, name, argv, False, f"{name}-plain")
    traced = run.run_job(work, 1, name, argv, True, f"{name}-traced")
    assert plain.result is not None and traced.result is not None
    assert traced.rc == plain.rc
    assert traced.out_path.read_bytes() == plain.out_path.read_bytes()
    trace = traced.result["trace"]
    assert all(n > 0 for n in trace["bindings"].values()), trace["bindings"]
    # the self times of all traced frames add up to the cli.main span
    (main,) = [s for s in trace["spans"] if s[2] == "cli.main.s"]
    total = sum(tracer.self_times(trace).values())
    assert total == pytest.approx(main[4] - main[3], rel=1e-6)
    # every span's parent is an earlier, enclosing span
    for sid, parent, _, t0, t1, _ in trace["spans"]:
        if parent is not None:
            p = trace["spans"][parent]
            assert p[3] <= t0 <= t1 <= p[4]


def test_rebinding_reaches_every_imported_copy(work):
    job = run.run_job(work, 1, "v", SMALL_JOBS[0][1], True, "bindings")
    assert job.result["trace"]["missing"] == []
    bindings = job.result["trace"]["bindings"]
    # defined in one module and imported by others
    assert bindings["braidalg.ideals.reduce_mod_ideal"] >= 2      # ideals, bialg
    assert bindings["braidalg.rmat.invert"] >= 3                  # rmat, presents, bialg
    assert bindings["braidalg.rewrite.orient_relations"] >= 3     # rewrite, cli, presents
    assert bindings["braidalg.linalg.dense_inverse"] >= 2         # linalg, rmat
    assert bindings["RatFunc.__add__"] == 2                       # __add__, __radd__
    values = run.layer_values(job)
    assert values["ideals.cert_terms"] > 0
    assert values["rewrite.overlap_reductions"] > 0
    assert values["rewrite.reduce_steps"] > 0


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def report(work):
    argv = SMALL_JOBS[0][1]
    ex = run.run_job(work, 1, "v", argv, False, "report")
    out = ex.out_path.read_bytes()
    expected = {"v": check.record(argv, ex.rc, out)}
    return argv, ex.rc, json.loads(out), expected


def _check(report, doc, rc=None):
    argv, rc0, _, expected = report
    out = json.dumps(doc, indent=2).encode()
    return check.check("v", argv, rc0 if rc is None else rc, out, expected,
                       {"glq2.json": 2})


def test_checker_accepts_the_real_report(report):
    assert _check(report, report[2]) == []


def test_checker_rejects_a_flipped_verdict(report):
    doc = copy.deepcopy(report[2])
    doc["relations"][1]["verdict"] = "fail"
    assert _check(report, doc)


def test_checker_rejects_an_altered_certificate_coefficient(report):
    doc = copy.deepcopy(report[2])
    term = next(t for v in doc["relations"] for t in v["certificate"])
    term["coeff"] = f"({term['coeff']}) + q"
    problems = _check(report, doc)
    assert any("does not replay" in p for p in problems)


def test_checker_rejects_a_dropped_certificate_term(report):
    doc = copy.deepcopy(report[2])
    rel = next(v for v in doc["relations"] if v["certificate"])
    rel["certificate"].pop()
    assert any("does not replay" in p for p in _check(report, doc))


def test_replay_reads_coefficients_and_terms_from_the_text():
    q, P = 5, check.P

    def inv(x):
        return pow(x, P - 2, P)

    assert check.evaluate("q^-2 - 2*q + 1", q) == (inv(25) - 10 + 1) % P
    assert check.evaluate("((-q)/(1 + q))", q) == -5 * inv(6) % P
    assert check.parse_terms("R.u[2,2]*L.u[1,1] - (q^-1 + 1) * L.u[1,2] + 2*q") == [
        (1, "1", ("R.u[2,2]", "L.u[1,1]")), (-1, "(q^-1 + 1)", ("L.u[1,2]",)), (1, "2*q", ())]
    with pytest.raises(ValueError):
        check.evaluate("q^ + 1", q)


def test_replay_uses_no_braidalg_code(report):
    code = ("import json, sys, check; "
            "assert check.replay_certificates(json.load(sys.stdin), 2) == []; "
            "assert not [m for m in sys.modules if m.startswith('braidalg')]")
    subprocess.run([sys.executable, "-c", code], cwd=HERE, input=json.dumps(report[2]),
                   text=True, check=True)


def test_checker_rejects_wrong_exit_code_and_bytes(report):
    assert _check(report, report[2], rc=1)
    want = {"y": check.record(["ybe", "x"], 0, b"YBE: PASS\n")}
    assert check.check("y", ["ybe", "x"], 0, b"YBE: PASS\n", want, {}) == []
    assert check.check("y", ["ybe", "x"], 0, b"YBE: PASS \n", want, {})


def test_expected_covers_every_job():
    expected = check.load_expected()
    for workload in inputs.WORKLOADS:
        for name, _ in inputs.jobs(workload, 0):
            assert name in expected


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
