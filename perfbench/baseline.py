"""Steadiness check and baseline record for the end-to-end metrics.

    python3 perfbench/baseline.py --seeds 1-10 [--label L] [--record] [WORKLOAD ...]

Runs ``run.py --trace 0`` once per seed on each workload (all three by
default), one run after another, each measuring for the ``run_seconds`` of
BENCHMARK.json, and prints for every end-to-end metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median.
With ``--record`` the set is added to ``baseline.json`` under the label.
Run from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import run

BASELINE = Path(__file__).resolve().parent / "baseline.json"
RUN_SECONDS = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(inputs.WORKLOADS))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--label", default="")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    sets = {}
    for workload in args.workloads:
        values, failed, attempted = {}, 0, 0
        for seed in args.seeds:
            res = run_once(workload, seed, RUN_SECONDS)
            attempted += res["attempted"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        sets[workload] = {"attempted": attempted, "failed": failed,
                          "metrics": {k: summarize(v) for k, v in values.items()}}
    print(f"{'workload':<15} {'metric':<14} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7}")
    for workload, res in sets.items():
        for name, s in res["metrics"].items():
            print(f"{workload:<15} {name:<14} {s['median']:>10.4f} {s['q1']:>10.4f} "
                  f"{s['q3']:>10.4f} {s['spread']:>7.2%}")
        print(f"{workload:<15} {res['failed']} of {res['attempted']} job runs failed")
    if args.record:
        doc = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {"sets": []}
        doc["sets"].append({"label": args.label, "started": started, "seeds": args.seeds,
                            "seconds": RUN_SECONDS, "python": platform.python_version(),
                            "workloads": sets})
        BASELINE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
