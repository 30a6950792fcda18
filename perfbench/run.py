"""The braidalg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; braidalg is imported from ``src/``.  The
run writes the workload's R-matrix documents into a scratch directory under
``.perfbench_work/``, checks them, and then runs the workload's jobs, each
as ``braidalg.cli.main(argv)`` in a fresh interpreter, one after another
(a closed loop with one client).  Jobs run in rounds, each round the whole
job list in a seeded order, for S seconds; the first round always
completes (see measure()).  Every output is checked (see check.py).

With ``--trace 0`` the last line of stdout is the end-to-end result:

  setup_s        median over the run's job processes of the time from
                 process launch until ``braidalg.cli`` is imported
  solve_s        sum over the workload's jobs of the median wall time of
                 ``cli.main(argv)``: time to solution for the job list
  peak_rss_mb    highest peak resident set of any job process
  jobs_ok_ratio  jobs whose exit code and output were right, over jobs
                 attempted (its complement is the failure ratio)

With ``--trace 1`` every job runs twice per round, untraced and traced (in
a seeded order), and the last line carries the per-module metrics of the
traced runs (see tracer.py): per-job medians summed over the job list.
The traced stdout must equal the untraced stdout byte for byte.

Exit status is 0 when the run completed (the result line says whether the
outputs were correct), 1 when the generated inputs fail their own checks
or no job completed, and 2 when there is nothing to benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# a run must end within 180 s; jobs still running at this point are killed
# and count as failed
DEADLINE_S = 160

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB"),
              ("jobs_ok_ratio", "ratio"))

PER_LAYER = (
    ("rewrite.completion.s", "s"), ("rewrite.completions", "count"),
    ("rewrite.rules_adjoined", "count"), ("rewrite.overlap_reductions", "count"),
    ("rewrite.reduce.s", "s"), ("rewrite.reduce.calls", "count"),
    ("rewrite.reduce_steps", "count"), ("rewrite.find_redex.calls", "count"),
    ("rewrite.orient_relations.s", "s"), ("rewrite.orient_relations.calls", "count"),
    ("ideals.reduce_mod_ideal.s", "s"), ("ideals.substitute_generators.s", "s"),
    ("ideals.hilbert_dims.s", "s"), ("ideals.cert_terms", "count"),
    ("bialg.verify_bialgebra.s", "s"), ("bialg.verify_homomorphism.s", "s"),
    ("bialg.verify_counit.s", "s"), ("bialg.verify_coassoc.s", "s"),
    ("bialg.sample_points.s", "s"), ("bialg.to_document.s", "s"), ("bialg.points", "count"),
    ("cli.main.s", "s"), ("cli.stdout_bytes", "bytes"),
    ("presents.build_preset.s", "s"), ("presents.braided_tensor_square.s", "s"),
    ("presents.braided_chain.s", "s"), ("presents.blocks.s", "s"),
    ("rmat.invert.s", "s"), ("rmat.second_inverse.s", "s"), ("rmat.ybe_check.s", "s"),
    ("rmat.load_rmatrix.s", "s"),
    ("linalg.dense_inverse.s", "s"), ("linalg.dense_inverse.calls", "count"),
    ("linalg.echelon_insert.s", "s"), ("linalg.echelon_insert.calls", "count"),
    ("linalg.echelon_reduce.calls", "count"),
    ("ncalg.presentation.s", "s"), ("ncalg.presentation.calls", "count"),
    ("ncalg.order_key.calls", "count"), ("ncalg.format_poly.s", "s"),
    ("qscalar.ratfunc_mul.calls", "count"), ("qscalar.ratfunc_add.calls", "count"),
    ("qscalar.ratfunc_div.calls", "count"), ("qscalar.ratfunc.s", "s"),
    ("qscalar.evaluate.calls", "count"),
    ("trace.overhead_s", "s"), ("trace.unattributed_share", "ratio"),
)


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

class Execution:
    """One finished job process."""

    def __init__(self, name, argv, traced, result, out_path, problems):
        self.name = name
        self.argv = argv
        self.traced = traced
        self.result = result          # job.py's result dict, None if it crashed
        self.out_path = out_path
        data = out_path.read_bytes()
        self.out_len = len(data)
        self.digest = hashlib.sha256(data).hexdigest()
        self.problems = problems

    @property
    def rc(self):
        return None if self.result is None else self.result["rc"]

    @property
    def key(self):
        return (self.name, self.rc, self.digest)


def run_job(work: Path, seed: int, name: str, argv, traced: bool, tag: str,
            timeout: float = DEADLINE_S) -> Execution:
    """Run ``cli.main(argv)`` in a fresh interpreter with cwd = work."""
    out, err, res = (work / f"{tag}.{ext}" for ext in ("out", "err", "json"))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=inputs.hash_seed(seed, name))
    problems = []
    result = None
    with open(out, "wb") as fo, open(err, "wb") as fe:
        launch = monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "job.py"), repr(launch), str(res),
                 "1" if traced else "0", "--", *argv],
                cwd=work, stdout=fo, stderr=fe, env=env, timeout=timeout)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            problems.append(f"job killed after {timeout:.0f} s")
            return Execution(name, argv, traced, None, out, problems)
    if proc.returncode == 0 and res.is_file():
        result = json.loads(res.read_text())
        res.unlink()
    else:
        tail = err.read_text(errors="replace").strip().splitlines()[-1:]
        problems.append(f"job process exited {proc.returncode}: {' '.join(tail)}")
    return Execution(name, argv, traced, result, out, problems)


def check_executions(execs, expected: dict):
    """Fill in each execution's problems; identical outputs are checked once."""
    dims = {name: json.loads(text)["dim"] for name, text in inputs.documents().items()}
    verdicts = {}
    for ex in execs:
        if ex.result is None:
            continue
        if ex.key not in verdicts:
            verdicts[ex.key] = check.check(ex.name, ex.argv, ex.rc, ex.out_path.read_bytes(),
                                           expected, dims)
        ex.problems.extend(verdicts[ex.key])


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------

def _cli(argv):
    """cli.main in this process; returns (exit code, stdout text)."""
    from braidalg import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def check_inputs(work: Path, workload: str):
    """Problems with the generated documents a workload uses.

    The generated GL_q(2) must give the builtin glq2's ``present bm``
    document (apart from the ``rmatrix:`` label line); every GL_q(N) must
    pass ``ybe`` and ``biinv``, and pert2 must fail ``ybe``.
    """
    problems = []

    def unlabelled(text):
        return [ln for ln in text.splitlines() if not ln.startswith("rmatrix: ")]

    builtin = _cli(["present", "bm", "glq2"])
    generated = _cli(["present", "bm", str(work / "glq2.json")])
    if builtin[0] != 0 or unlabelled(builtin[1]) != unlabelled(generated[1]):
        problems.append("generated GL_q(2) does not match the builtin glq2")
    for doc in inputs.documents_used(workload):
        path = str(work / doc)
        want_ybe = 1 if doc == "pert2.json" else 0
        if _cli(["ybe", path])[0] != want_ybe:
            problems.append(f"{doc}: ybe exit code is not {want_ybe}")
        if doc != "pert2.json" and _cli(["biinv", path])[0] != 0:
            problems.append(f"{doc}: not biinvertible")
    return problems


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure(work: Path, workload: str, seed: int, seconds: float, traced: bool,
            deadline: float):
    """Run rounds of the job list for ``seconds``; the first round always
    completes.  Returns the executions.

    After the first round a job is started only if its last run says it
    will end within ``seconds``, so a run does not overshoot by a long job.
    Traced, each job runs untraced and traced in a seeded order.
    """
    execs = []
    kept = set()
    last = {}
    rng = random.Random(f"pairs:{workload}:{seed}")
    start = monotonic()
    for rnd, order in enumerate(inputs.schedule(workload, seed)):
        ran = False
        for name, argv in order:
            if rnd > 0 and monotonic() - start + last[name] > seconds:
                continue
            ran = True
            modes = [False, True] if traced else [False]
            if traced and rng.random() < 0.5:
                modes.reverse()
            t0 = monotonic()
            for mode in modes:
                left = deadline - monotonic()
                if left <= 0:
                    return execs
                ex = run_job(work, seed, name, argv, mode, str(len(execs)), timeout=left)
                execs.append(ex)
                # one stdout file per distinct output is enough for the checks
                if ex.key in kept:
                    ex.out_path.unlink()
                kept.add(ex.key)
            last[name] = monotonic() - t0
        if rnd > 0 and not ran:
            return execs


def _sum_of_medians(execs, value) -> float:
    """Sum over jobs of the median of value(execution) over its executions."""
    by_job = {}
    for ex in execs:
        by_job.setdefault(ex.name, []).append(value(ex))
    return sum(statistics.median(vals) for vals in by_job.values())


def end_to_end_metrics(execs, attempted: int, failed: int) -> dict:
    ok = [ex for ex in execs if ex.result is not None]
    return {
        "setup_s": statistics.median(ex.result["setup_s"] for ex in ok),
        "solve_s": _sum_of_medians(ok, lambda ex: ex.result["solve_s"]),
        "peak_rss_mb": max(ex.result["maxrss_kb"] for ex in ok) / 1024,
        "jobs_ok_ratio": (attempted - failed) / attempted,
    }


def layer_values(ex) -> dict:
    """Every per-layer value of one traced execution."""
    t = ex.result["trace"]
    vals = {name: 0 for name, _ in PER_LAYER}
    vals.update(t["calls"])
    vals.update(t["counters"])
    vals.update(tracer.self_times(t))
    vals["cli.stdout_bytes"] = ex.out_len
    vals["cli.main.duration_s"] = sum(t1 - t0 for _, _, name, t0, t1, _ in t["spans"]
                                      if name == "cli.main.s")
    return vals


def per_layer_metrics(execs) -> dict:
    plain = [ex for ex in execs if not ex.traced and ex.result is not None]
    traced = [ex for ex in execs if ex.traced and ex.result is not None]
    values = {id(ex): layer_values(ex) for ex in traced}
    metrics = {key: _sum_of_medians(traced, lambda ex, key=key: values[id(ex)][key])
               for key in values[id(traced[0])]}
    metrics["trace.overhead_s"] = (_sum_of_medians(traced, lambda ex: ex.result["solve_s"])
                                   - _sum_of_medians(plain, lambda ex: ex.result["solve_s"]))
    metrics["trace.unattributed_share"] = metrics["cli.main.s"] / metrics["cli.main.duration_s"]
    return metrics


def traced_output_problems(execs):
    """Traced and untraced runs of a job must print the same bytes."""
    plain = {}
    for ex in execs:
        if not ex.traced:
            plain.setdefault(ex.name, set()).add(ex.digest)
    for ex in execs:
        if ex.traced and ex.digest not in plain.get(ex.name, ()):
            ex.problems.append("traced stdout differs from the untraced stdout")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

MODULES = ("cli", "rewrite", "ideals", "bialg", "presents", "rmat", "linalg", "ncalg",
           "qscalar")


def print_jobs(execs):
    print(f"{'job':<24} {'mode':<7} {'runs':>4} {'solve_s':>9} {'cpu_s':>8} "
          f"{'setup_s':>8} {'rss_mb':>7}")
    rows = {}
    for ex in execs:
        if ex.result is not None:
            rows.setdefault((ex.name, ex.traced), []).append(ex.result)
    for (name, traced), res in rows.items():
        med = {k: statistics.median(r[k] for r in res) for k in ("solve_s", "cpu_s", "setup_s")}
        print(f"{name:<24} {'traced' if traced else 'plain':<7} {len(res):>4} "
              f"{med['solve_s']:>9.3f} {med['cpu_s']:>8.3f} {med['setup_s']:>8.4f} "
              f"{max(r['maxrss_kb'] for r in res) / 1024:>7.1f}")


def print_layers(metrics, execs):
    missing = {m for ex in execs if ex.traced and ex.result
               for m in ex.result["trace"]["missing"]}
    if missing:
        print("not traced (no longer in braidalg):", ", ".join(sorted(missing)))
    total = metrics["cli.main.duration_s"]
    print(f"{'module':<10} {'self_s':>9} {'share':>7}")
    for mod in MODULES:
        s = sum(v for k, v in metrics.items() if k.startswith(mod + ".") and k.endswith(".s"))
        print(f"{mod:<10} {s:>9.3f} {s / total:>7.1%}")
    for name, unit in PER_LAYER:
        print(f"  {name:<34} {metrics[name]:>14.6g} {unit}")
    print(f"traced cli.main time {total:.3f} s; tracing overhead "
          f"{metrics['trace.overhead_s']:.3f} s; not attributed to any module "
          f"{metrics['trace.unattributed_share']:.2%}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description="braidalg benchmark")
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def prepare(prefix: str) -> Path:
    """A scratch directory holding the generated documents."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=WORK))
    for name, text in inputs.documents().items():
        (work / name).write_text(text)
    return work


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = monotonic() + DEADLINE_S
    if not (SRC / "braidalg" / "cli.py").is_file():
        print(f"perfbench: no braidalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = prepare(args.workload)
    try:
        problems = check_inputs(work, args.workload)
        if problems:
            print("perfbench: generated inputs failed their checks:", *problems,
                  sep="\n  ", file=sys.stderr)
            return 1
        run_job(work, args.seed, "warm-up", ["ybe", "glq2.json"], False, "warm-up")
        execs = measure(work, args.workload, args.seed, args.seconds, bool(args.trace),
                        deadline)
        check_executions(execs, check.load_expected())
        if args.trace:
            traced_output_problems(execs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [ex for ex in execs if ex.problems]
    for ex in failed:
        print(f"FAILED {ex.name} {'traced' if ex.traced else ''}: {'; '.join(ex.problems)}")
    # a job the deadline kept from completing counts as attempted and failed
    done = {(ex.name, ex.traced) for ex in execs if ex.result is not None}
    missing = [name for name, _ in inputs.jobs(args.workload, args.seed)
               for traced in {False, bool(args.trace)} if (name, traced) not in done]
    for name in missing:
        print(f"FAILED {name}: no completed run")
    attempted, n_failed = len(execs) + len(missing), len(failed) + len(missing)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} job runs, {n_failed} failed")
    if not done or (args.trace and not any(traced for _, traced in done)):
        print("perfbench: no job completed", file=sys.stderr)
        return 1
    print_jobs(execs)
    if args.trace:
        values = per_layer_metrics(execs)
        print_layers(values, execs)
        names = PER_LAYER
    else:
        values = end_to_end_metrics(execs, attempted, n_failed)
        names = END_TO_END
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }))
    return 0


def record_expected():
    """Write expected.json from this checkout's own outputs (exact jobs plus
    the structure jobs); see check.py."""
    sys.path.insert(0, str(SRC))
    work = prepare("record")
    try:
        expected = {}
        for workload in ("verify-exact", "structure"):
            for name, argv in inputs.jobs(workload, 0):
                ex = run_job(work, 0, name, argv, False, name)
                if ex.result is None:
                    raise SystemExit(f"{name}: {ex.problems}")
                expected[name] = check.record(argv, ex.rc, ex.out_path.read_bytes())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
