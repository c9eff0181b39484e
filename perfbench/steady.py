"""Steadiness check: do two sets of runs of the same code agree?

Usage (from the root of the repository)::

    python3 perfbench/steady.py [WORKLOAD ...]

For each workload (every workload in ``BENCHMARK.json`` by default) it makes
two sets of five runs with tracing off and the run length ``run_seconds``
from ``BENCHMARK.json``, alternating between the sets (A B A B ...) with
seeds 1 to 10 in that order.  For every end-to-end metric it prints each
set's median and quartiles, each set's spread (quartile distance over the
median), how far set B's median sits from set A's in the worse direction,
and the median and spread of all ten runs.  Quartiles are
``benchlib.percentile`` at 25 and 75, the quartiles of
``statistics.quantiles(values, n=4)``.

The sets agree on a metric when each set's spread and the spread of all ten
runs are within the metric's bound, and B's median is within the bound of
A's in either direction.  Every output must be correct and both sets must
fail exactly the same share of operations.  Exit status 0 means every
workload agreed on every metric.
"""

from __future__ import annotations

import json
import subprocess
import sys

import benchlib as bl

RUNS_PER_SET = 5
SEEDS = range(1, 2 * RUNS_PER_SET + 1)


def run_once(spec: dict, workload: str, seed: int) -> dict:
    args = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(args, cwd=bl.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med, q1, q3 = (bl.percentile(values, q) for q in (50, 25, 75))
    return med, q1, q3, (q3 - q1) / med


def compare(metric: dict, a: list[float], b: list[float]) -> tuple[str, bool]:
    med_a, q1a, q3a, sa = spread(a)
    med_b, q1b, q3b, sb = spread(b)
    med, _, _, both = spread(a + b)
    worse = (med_b - med_a) / med_a
    if metric["better"] == "higher":
        worse = -worse
    bound = metric["bound"]
    ok = max(sa, sb, both, abs(worse)) <= bound
    row = (f"  {metric['name']:<12} A {med_a:>11.4f} [{q1a:.4f}, {q3a:.4f}] spread {sa:6.3f}"
           f" | B {med_b:>11.4f} [{q1b:.4f}, {q3b:.4f}] spread {sb:6.3f}"
           f" | B worse by {worse:+.3f} | all ten: median {med:.4f} spread {both:.3f}"
           f" | bound {bound} {'agree' if ok else 'DIFFER'}")
    return row, ok


def main(argv: list[str]) -> int:
    spec = json.loads((bl.ROOT / "BENCHMARK.json").read_text())
    workloads = argv or [w["name"] for w in spec["workloads"]]
    all_ok = True
    for workload in workloads:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for i, seed in enumerate(SEEDS):
            sets["AB"[i % 2]].append(run_once(spec, workload, seed))
        print(f"{workload}: {RUNS_PER_SET} runs per set, seeds {SEEDS.start}-{SEEDS.stop - 1}"
              f" alternating, {spec['run_seconds']} s each")
        for metric in spec["end_to_end"]:
            values = {k: [r["metrics"][metric["name"]]["value"] for r in v]
                      for k, v in sets.items()}
            row, ok = compare(metric, values["A"], values["B"])
            all_ok &= ok
            print(row)
        shares = {k: {r["failed"] / r["attempted"] for r in v} for k, v in sets.items()}
        same_share = len(shares["A"] | shares["B"]) == 1
        correct = all(r["correct"] for v in sets.values() for r in v)
        all_ok &= same_share and correct
        print(f"  failed share A {sorted(shares['A'])} B {sorted(shares['B'])} "
              f"{'same' if same_share else 'DIFFER'}; all outputs correct: {correct}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
