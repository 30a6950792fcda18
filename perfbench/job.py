"""Run one benchmark job in a fresh interpreter, as a user runs the CLI.

    python3 job.py LAUNCH RESULT TRACE -- ARGV...

LAUNCH is the parent's CLOCK_MONOTONIC reading taken just before this
process was started, RESULT the path of the JSON result to write, and
TRACE 0 or 1.  The job's stdout and stderr are
whatever the parent attached.  ``braidalg`` must be importable (the parent
sets PYTHONPATH).

The result records the set-up time (launch until ``braidalg.cli`` is
imported), the wall and CPU time of ``cli.main(argv)``, the exit code and
the process's peak resident set.  With TRACE 1 the public functions of
every module are wrapped after set-up, and their counters and spans are
added to the result.
"""

import sys
import time


def run(launch, imported):
    import json
    import resource

    import braidalg.cli

    result_path, trace = sys.argv[2], sys.argv[3] == "1"
    if sys.argv[4:5] != ["--"]:
        raise SystemExit("usage: job.py LAUNCH RESULT TRACE -- ARGV...")
    argv = sys.argv[5:]
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    main = braidalg.cli.main
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        rc = main(argv)
    except SystemExit as e:  # argparse usage errors
        rc = e.code if isinstance(e.code, int) else 2
    solve = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    sys.stdout.flush()
    result = {
        "rc": rc,
        "setup_s": imported - launch,
        "solve_s": solve,
        "cpu_s": cpu,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    _launch = float(sys.argv[1])
    import braidalg.cli  # noqa: F401  (set-up is timed up to this import)
    run(_launch, time.clock_gettime(time.CLOCK_MONOTONIC))
