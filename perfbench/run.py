"""Run one benchmark workload and print its metrics.

Usage (from the root of the repository)::

    python3 perfbench/run.py --workload serve_cohort --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (a separate, traced
run of the same workload and seed).  Lines before it give the settings the
run used and a few reference figures.  Exit status 0 means a result was
printed; the run exits 2 without a result when the checkout holds no
program to benchmark.
"""

from __future__ import annotations

import argparse
import os
import platform
import shutil
import sys

import benchlib as bl


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bl.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    settings = bl.pin_environment(args.workload)
    cpus = bl.pin_cpus()
    try:
        bl.load_program()
    except bl.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(
        f"settings: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} python={platform.python_version()} cpus={os.cpu_count()} "
        f"affinity={','.join(map(str, sorted(cpus)))} "
        + " ".join(f"{k}={v or '(unset)'}" for k, v in settings.items())
    )
    result = bl.RunResult()
    work_dir = bl.HERE / "work" / str(os.getpid())
    try:
        if args.workload == "serve_cohort":
            import serve_cohort

            serve_cohort.run(args.seed, args.seconds, bool(args.trace), result, work_dir)
        else:
            import exemplar_runs

            exemplar_runs.run(args.workload, args.seed, args.seconds, bool(args.trace),
                              result)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    left = bl.wait_ended(bl.child_pids())
    if left:
        result.fail_check(f"child processes {left} still running at exit")

    for line in result.notes:
        print(line)
    for problem in result.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    names = bl.PER_LAYER if args.trace else bl.END_TO_END
    if not args.trace:
        missing = [name for name in names if name not in result.values]
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    print(bl.result_line(result, names), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
