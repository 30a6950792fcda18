"""Derived readouts, printed but not gated.

    python3 perfbench/readout.py [--seed N]

Runs every job of the three workloads once (exact and probabilistic
twins back to back) and prints the time of each job, the
probabilistic/exact ratio of each verify pair (the ROADMAP.md target is
1/3 or less) and the rows of the ROADMAP.md baseline table these jobs
cover.
"""

from __future__ import annotations

import argparse
import shutil
import sys

import inputs
import run

# ROADMAP.md baseline table: (workload, job) -> (row, seconds)
BASELINE = {
    ("verify-exact", "chain-glq2-n4"): ("verify chain glq2 -n 4 -D 4 (exact)", 2.6),
    ("verify-sampled", "chain-glq2-n4"): ("verify chain glq2 -n 4 -D 4 (probabilistic)", 7.0),
    ("verify-exact", "bm-glq4"): ("verify bm GL_q(4) -D 4", 3.95),
    ("structure", "hilbert-chain-glq3-n3"): ("hilbert chain GL_q(3) -n 3 -D 4", 1.7),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    work = run.prepare("readout")
    times = {}

    def time_job(workload, name, argv):
        ex = run.run_job(work, args.seed, name, argv, False, name)
        if ex.result is None:
            raise SystemExit(f"{name}: {'; '.join(ex.problems)}")
        times[(workload, name)] = ex.result["solve_s"]

    try:
        pairs = zip(inputs.jobs("verify-exact", args.seed),
                    inputs.jobs("verify-sampled", args.seed))
        for (name, exact), (_, sampled) in pairs:
            time_job("verify-exact", name, exact)
            time_job("verify-sampled", name, sampled)
        for name, argv in inputs.jobs("structure", args.seed):
            time_job("structure", name, argv)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{'workload':<15} {'job':<24} {'solve_s':>8}")
    for (workload, name), t in times.items():
        print(f"{workload:<15} {name:<24} {t:>8.3f}")
    print("\nprobabilistic / exact")
    for name, _ in inputs.jobs("verify-exact", args.seed):
        ratio = times[("verify-sampled", name)] / times[("verify-exact", name)]
        print(f"  {name:<24} {ratio:>6.2f}  (exact {times[('verify-exact', name)]:.3f} s)")
    print("\nROADMAP.md baseline rows (ROADMAP: whole cold process; now: cli.main only)")
    for key, (row, seconds) in BASELINE.items():
        print(f"  {row:<46} ROADMAP {seconds:>5.2f} s   now {times[key]:>6.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
