"""One cold set-up of a workload, in a fresh interpreter.

Usage (``run.py`` starts it; from the root of the repository)::

    python3 perfbench/setup_once.py serve_cohort <seed> <journal dir>
    python3 perfbench/setup_once.py exemplars_threads <seed>

Prints the seconds from before the program is imported to the point where
the workload's first timed operation would start: the server boot with
journal replay and cache warm-up, or one warm-up run of each of the ten
exemplar calls (forking the pool on the process backend).  The benchmark's
own inputs are made before the clock starts.  Everything it started has
ended when it exits.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import benchlib as bl


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    bl.pin_environment(workload)
    bl.pin_cpus()
    if workload == "serve_cohort":
        import serve_cohort

        data_dir = Path(argv[2])
        t0 = time.perf_counter()
        bl.load_program()
        app = serve_cohort.boot(data_dir)
        elapsed = time.perf_counter() - t0
        app.close()
    else:
        import exemplar_runs

        inputs = exemplar_runs.Inputs(seed)
        t0 = time.perf_counter()
        bl.load_program()
        calls = exemplar_runs.exemplar_calls(inputs, bl.BACKEND_BY_WORKLOAD[workload])
        for name in bl.EXEMPLAR_RUNS:
            calls[name]()
        elapsed = time.perf_counter() - t0
        if bl.BACKEND_BY_WORKLOAD[workload] == "processes":
            result = bl.RunResult()
            exemplar_runs.stop_pool(result)
            if result.problems:
                raise RuntimeError(result.problems[0])
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
