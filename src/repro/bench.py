"""``repro bench`` — wall-clock benchmarks with a regression gate.

The handout's closing benchmarking study measures *simulated* platforms;
this module measures the real ones: a small registry of sequential and
parallel kernels drawn from the exemplars, timed with warmup/repeat
control, written as schema-versioned JSON under ``benchmarks/results/``,
and compared against a committed baseline with a configurable threshold so
CI can fail on performance regressions.

Cross-machine comparability
---------------------------
Absolute seconds measured on a contributor's laptop mean nothing next to
seconds measured on a CI runner.  Every run therefore also times a fixed
pure-Python *calibration* loop and stores each benchmark as a multiple of
it (``normalized = time_s / calibration_s``).  The regression gate
compares normalized values, so "this kernel got 40% slower relative to
the interpreter itself" survives a hardware change; absolute times are
kept alongside for humans.
"""

from __future__ import annotations

import atexit
import json
import os
import platform as _platform
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable

from .mpi.serial import reset_serialized, serialized_totals
from .platforms.speedup import measure_wall_time

__all__ = [
    "SCHEMA_VERSION",
    "NOISE_FLOOR_S",
    "BenchSpec",
    "REGISTRY",
    "bench_names",
    "calibrate",
    "run_benchmarks",
    "compare_results",
    "format_comparison",
    "baseline_delta",
    "serialization_report",
    "default_results_path",
    "DEFAULT_BASELINE",
    "DEFAULT_THRESHOLD",
]

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1

#: Regression gate: fail when a benchmark is this much slower than baseline.
DEFAULT_THRESHOLD = 0.30

#: Timings where both sides sit under this many seconds never gate: at
#: sub-5ms scale the best-of-repeat minimum is dominated by interpreter
#: and scheduler jitter, so a ratio there is noise, not a regression.
#: (Quick smoke runs keep several kernels under the floor by design; the
#: full problem sizes put every kernel well above it.)
NOISE_FLOOR_S = 0.005

#: Committed reference results (repo-relative).
DEFAULT_BASELINE = Path("benchmarks") / "baseline.json"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark.

    ``make(quick, backend)`` returns the zero-argument thunk to time;
    ``quick`` selects the smaller problem size for CI smoke runs, and
    ``backend`` is threaded through to the parallel kernels (sequential
    ones ignore it).
    """

    name: str
    group: str
    make: Callable[[bool, str], Callable[[], Any]]


def _integration_seq(quick: bool, _backend: str) -> Callable[[], Any]:
    from .exemplars.integration import integrate_seq, quarter_circle

    n = 20_000 if quick else 200_000
    return lambda: integrate_seq(quarter_circle, 0.0, 2.0, n)


def _integration_omp(quick: bool, backend: str) -> Callable[[], Any]:
    from .exemplars.integration import integrate_omp

    n = 20_000 if quick else 200_000
    workers = min(4, os.cpu_count() or 1)
    return lambda: integrate_omp(n, num_threads=workers, backend=backend)


def _drugdesign_seq(quick: bool, _backend: str) -> Callable[[], Any]:
    from .exemplars.drugdesign import generate_ligands, run_seq

    ligands = generate_ligands(60 if quick else 400, max_len=24, seed=42)
    return lambda: run_seq(ligands)


def _drugdesign_omp(quick: bool, backend: str) -> Callable[[], Any]:
    from .exemplars.drugdesign import generate_ligands, run_omp

    ligands = generate_ligands(60 if quick else 400, max_len=24, seed=42)
    workers = min(4, os.cpu_count() or 1)
    return lambda: run_omp(
        ligands, num_threads=workers, schedule="dynamic", chunk=8, backend=backend
    )


def _heat_seq(quick: bool, _backend: str) -> Callable[[], Any]:
    from .exemplars.heat import heat_seq

    n, steps = (400, 100) if quick else (2_000, 400)
    return lambda: heat_seq(n, steps)


def _heat_omp(quick: bool, backend: str) -> Callable[[], Any]:
    from .exemplars.heat import heat_omp

    n, steps = (400, 100) if quick else (2_000, 400)
    workers = min(4, os.cpu_count() or 1)
    return lambda: heat_omp(n, steps, num_threads=workers, backend=backend)


def _sorting_blocks(quick: bool, backend: str) -> Callable[[], Any]:
    import random

    from .exemplars.sorting import merge_sort_blocks

    rng = random.Random(2021)
    values = [rng.random() for _ in range(5_000 if quick else 50_000)]
    workers = min(4, os.cpu_count() or 1)
    return lambda: merge_sort_blocks(values, num_workers=workers, backend=backend)


def _sorting_blocks_vector(quick: bool, backend: str) -> Callable[[], Any]:
    """The block sort with the ``np.sort`` chunk kernel (same input)."""
    import random

    from .exemplars.sorting import merge_sort_blocks

    rng = random.Random(2021)
    values = [rng.random() for _ in range(5_000 if quick else 50_000)]
    workers = min(4, os.cpu_count() or 1)
    return lambda: merge_sort_blocks(
        values, num_workers=workers, backend=backend, kernel="vector"
    )


def _forestfire_omp(quick: bool, backend: str) -> Callable[[], Any]:
    """The fire sweep with the batched (vectorized) trial stepper."""
    from .exemplars.forestfire import DEFAULT_PROBS, fire_curve_omp

    probs = (0.3, 0.6) if quick else DEFAULT_PROBS
    trials, size = (4, 15) if quick else (10, 25)
    workers = min(4, os.cpu_count() or 1)
    return lambda: fire_curve_omp(
        probs,
        trials=trials,
        size=size,
        num_threads=workers,
        backend=backend,
        kernel="vector",
    )


def _pingpong_obj_body(comm, count: int, iters: int):
    import numpy as np

    rank = comm.Get_rank()
    payload = np.arange(count, dtype=np.float64)
    for _ in range(iters):
        if rank == 0:
            comm.send(payload, dest=1, tag=0)
            payload = comm.recv(source=1, tag=1)
        else:
            payload = comm.recv(source=0, tag=0)
            comm.send(payload, dest=0, tag=1)
    return None


def _pingpong_buf_body(comm, count: int, iters: int):
    import numpy as np

    rank = comm.Get_rank()
    buf = np.arange(count, dtype=np.float64)
    for _ in range(iters):
        if rank == 0:
            comm.Send(buf, dest=1, tag=0)
            comm.Recv(buf, source=1, tag=1)
        else:
            comm.Recv(buf, source=0, tag=0)
            comm.Send(buf, dest=0, tag=1)
    return None


def _mpi_pingpong_obj(quick: bool, backend: str) -> Callable[[], Any]:
    """Two-rank pingpong through the lowercase (pickling) verbs."""
    from .mpi import mpirun

    count, iters = (4_096, 10) if quick else (65_536, 50)
    return lambda: mpirun(
        _pingpong_obj_body, 2, count, iters, backend=backend
    )


def _mpi_pingpong_buf(quick: bool, backend: str) -> Callable[[], Any]:
    """Two-rank pingpong through the uppercase (zero-pickle) buffer verbs.

    The contrast with ``mpi_pingpong_obj`` *is* the data-path study: same
    traffic, but the typed path moves bytes without serializing — the
    per-kernel ``pickled_bytes`` counter in the results pins it at zero.
    """
    from .mpi import mpirun

    count, iters = (4_096, 10) if quick else (65_536, 50)
    return lambda: mpirun(
        _pingpong_buf_body, 2, count, iters, backend=backend
    )


def _allreduce_body(comm, count: int, iters: int):
    import numpy as np

    total = np.empty(count, dtype=np.float64)
    local = np.full(count, float(comm.Get_rank() + 1))
    for _ in range(iters):
        comm.Allreduce(local, total)
    return float(total[0])


def _allreduce_buf(quick: bool, backend: str) -> Callable[[], Any]:
    """Four-rank buffer Allreduce (the collectives' typed data path)."""
    from .mpi import mpirun

    count, iters = (4_096, 5) if quick else (65_536, 20)
    return lambda: mpirun(_allreduce_body, 4, count, iters, backend=backend)


def _allreduce_ring_body(comm, count: int, iters: int):
    import numpy as np

    total = np.empty(count, dtype=np.float64)
    local = np.full(count, float(comm.Get_rank() + 1))
    for _ in range(iters):
        comm.Allreduce(local, total, algorithm="ring")
    return float(total[0])


def _allreduce_ring(quick: bool, backend: str) -> Callable[[], Any]:
    """Four-rank chunked ring Allreduce — the bandwidth-optimal schedule.

    Forces ``algorithm="ring"`` so the reduce-scatter + allgather path is
    pinned regardless of what the cost model would auto-pick at this size.
    """
    from .mpi import mpirun

    count, iters = (4_096, 5) if quick else (65_536, 20)
    return lambda: mpirun(
        _allreduce_ring_body, 4, count, iters, backend=backend
    )


def _bcast_binomial_body(comm, count: int, iters: int):
    import numpy as np

    buf = np.arange(count, dtype=np.float64)
    for _ in range(iters):
        comm.Bcast(buf, 0, algorithm="binomial")
    return float(buf[-1])


def _bcast_binomial_buf(quick: bool, backend: str) -> Callable[[], Any]:
    """Four-rank binomial-tree buffer Bcast (log-depth fan-out)."""
    from .mpi import mpirun

    count, iters = (4_096, 5) if quick else (65_536, 20)
    return lambda: mpirun(
        _bcast_binomial_body, 4, count, iters, backend=backend
    )


def _hooks_off(quick: bool, _backend: str) -> Callable[[], Any]:
    """Instrumentation-off overhead guard: the hook fast path in a hot loop.

    Times the exact pattern every instrumented call site uses — a seam's
    ``enabled`` check guarding its ``emit`` (:mod:`repro.obs.hooks`) —
    with no observers attached.
    The regression gate on this kernel keeps tracing free when off.
    """
    from .obs.hooks import openmp as hooks

    n = 20_000 if quick else 200_000

    def spin() -> int:
        enabled_check = hooks
        emit = hooks.emit
        count = 0
        for _ in range(n):
            if enabled_check.enabled:
                emit("read", 0, None)
            count += 1
        return count

    return spin


def _lint_corpus(quick: bool, _backend: str) -> Callable[[], Any]:
    """Flow-sensitive pdclint over the patternlet corpus.

    Exercises the whole static pipeline — CFG construction, the dataflow
    worklist, MHP lock tracking, and the MPI protocol simulation — so the
    regression gate catches superlinear blowups in any of them.
    """
    from .analysis.lint import lint_path

    corpus = Path(__file__).parent / "patternlets"
    targets = (
        [corpus / "mpi" / "pointtopoint.py", corpus / "openmp" / "race.py"]
        if quick
        else [corpus]
    )

    def run() -> int:
        total = 0
        for target in targets:
            report = lint_path(target)
            total += len(report.diagnostics) + len(report.suppressed)
        return total

    return run


def _lint_corpus_parallel(quick: bool, _backend: str) -> Callable[[], Any]:
    """Warm-cache corpus lint through the parallel incremental driver.

    ``make`` pre-populates a content-hash cache (the cold lint happens
    outside the timed region); the timed thunk re-lints the unchanged
    corpus with ``--jobs``-style fan-out, so what's measured is the
    incremental path — hashing, cache reads, and the deterministic
    merge.  The regression gate keeps warm re-lints cheap relative to
    the full ``lint_corpus`` kernel.
    """
    import shutil
    import tempfile

    from .analysis.scale.driver import lint_corpus

    corpus = Path(__file__).parent / "patternlets"
    paths = (
        [corpus / "mpi" / "pointtopoint.py", corpus / "openmp" / "race.py"]
        if quick
        else [corpus]
    )
    cache_dir = Path(tempfile.mkdtemp(prefix="pdclint-bench-"))
    atexit.register(shutil.rmtree, cache_dir, ignore_errors=True)
    jobs = min(4, os.cpu_count() or 1)
    lint_corpus(paths, jobs=jobs, cache_dir=cache_dir)  # cold fill

    def run() -> int:
        result = lint_corpus(paths, jobs=jobs, cache_dir=cache_dir)
        return len(result.report.diagnostics) + result.cache_hits

    return run


def _serve_app():
    """A course app sized for benchmarking: no metrics provider leak,
    admission bounds wide enough that the kernels measure the service,
    not deliberate shedding."""
    from .serve import CourseApp

    return CourseApp(metrics_name=None, max_inflight=16, max_queue=256)


def _course_serve_read(quick: bool, _backend: str) -> Callable[[], Any]:
    """Hot-path module reads through the full middleware stack.

    The app is built (and the cache warmed) outside the timed region, so
    what's measured is routing + a cached response body per request —
    the latency every learner pays on every page view.
    """
    from .serve.asgi import Client

    n = 300 if quick else 3_000
    app = _serve_app()
    client = Client(app)
    target = "/m/raspberry-pi-handout?format=html"
    client.get(target)  # warm the rendered-module cache

    def run() -> int:
        ok = 0
        for _ in range(n):
            ok += client.get(target).status == 200
        return ok

    return run


def _course_serve_submit(quick: bool, _backend: str) -> Callable[[], Any]:
    """Answer grading + journaling through the submit route."""
    from .serve.asgi import Client

    n = 150 if quick else 1_500
    app = _serve_app()
    client = Client(app)
    client.post("/join/PI2020", json_body={"learner": "bench-learner"})
    cohort = app.registry.cohort("pi-2020")
    activity = cohort.module.all_questions()[0].activity_id
    body = {
        "cohort": "pi-2020",
        "learner": "bench-learner",
        "activity_id": activity,
        "answer": "A",
    }

    def run() -> int:
        ok = 0
        for _ in range(n):
            ok += client.post(
                f"/m/{cohort.module.slug}/submit", json_body=body
            ).status == 200
        return ok

    return run


def _course_serve_load(quick: bool, _backend: str) -> Callable[[], Any]:
    """The closed-loop learner lifecycle at bench scale.

    Enroll → read → answer → grade across both demo cohorts with worker
    threads — the serving layer measured as a PDC workload.  Each timed
    run uses a fresh app so enrollment cost is paid identically every
    repeat.
    """
    from .serve.load import run_load

    learners = 40 if quick else 400
    workers = min(4, os.cpu_count() or 1)

    def run() -> int:
        app = _serve_app()
        report = run_load(
            app, learners=learners, workers=workers, gradebook_every=25
        )
        app.close()
        if report.errors:  # pragma: no cover - hard failure, not a timing
            raise RuntimeError(f"serve load hit {report.errors} errors")
        return report.requests

    return run


REGISTRY: tuple[BenchSpec, ...] = (
    BenchSpec("integration_seq", "integration", _integration_seq),
    BenchSpec("integration_omp", "integration", _integration_omp),
    BenchSpec("drugdesign_seq", "drugdesign", _drugdesign_seq),
    BenchSpec("drugdesign_omp", "drugdesign", _drugdesign_omp),
    BenchSpec("heat_seq", "heat", _heat_seq),
    BenchSpec("heat_omp", "heat", _heat_omp),
    BenchSpec("sorting_blocks", "sorting", _sorting_blocks),
    BenchSpec("sorting_blocks_vector", "sorting", _sorting_blocks_vector),
    BenchSpec("forestfire_omp", "forestfire", _forestfire_omp),
    BenchSpec("mpi_pingpong_obj", "mpi", _mpi_pingpong_obj),
    BenchSpec("mpi_pingpong_buf", "mpi", _mpi_pingpong_buf),
    BenchSpec("allreduce_buf", "mpi", _allreduce_buf),
    BenchSpec("allreduce_ring", "mpi", _allreduce_ring),
    BenchSpec("bcast_binomial_buf", "mpi", _bcast_binomial_buf),
    BenchSpec("hooks_off", "obs", _hooks_off),
    BenchSpec("lint_corpus", "analysis", _lint_corpus),
    BenchSpec("lint_corpus_parallel", "analysis", _lint_corpus_parallel),
    BenchSpec("course_serve_read", "serve", _course_serve_read),
    BenchSpec("course_serve_submit", "serve", _course_serve_submit),
    BenchSpec("course_serve_load", "serve", _course_serve_load),
)


def bench_names() -> list[str]:
    return [spec.name for spec in REGISTRY]


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def calibrate(scale: int = 200_000) -> float:
    """Seconds for a fixed pure-Python reference loop (machine yardstick)."""

    def spin() -> int:
        total = 0
        for i in range(scale):
            total += i * i
        return total

    # The yardstick divides every normalized value, so noise here taints
    # the whole document: take the best of more repeats than the kernels
    # themselves get (still well under 100 ms total).
    return measure_wall_time(spin, warmup=2, repeat=7)


def run_benchmarks(
    names: list[str] | None = None,
    *,
    quick: bool = False,
    warmup: int = 1,
    repeat: int = 3,
    backend: str = "threads",
) -> dict[str, Any]:
    """Time the selected benchmarks; return the schema-versioned document."""
    selected = list(REGISTRY)
    if names:
        by_name = {spec.name: spec for spec in REGISTRY}
        unknown = [n for n in names if n not in by_name]
        if unknown:
            raise KeyError(
                f"unknown benchmark(s) {unknown}; known: {bench_names()}"
            )
        selected = [by_name[n] for n in names]
    calibration_s = calibrate()
    results: dict[str, Any] = {}
    for spec in selected:
        thunk = spec.make(quick, backend)
        # Per-kernel serialization accounting: the MPI transport counts
        # every pickle it performs (including ranks forked by the
        # processes backend, whose totals are merged back); resetting
        # around the timed region attributes the traffic to this kernel.
        reset_serialized()
        time_s = measure_wall_time(thunk, warmup=warmup, repeat=repeat)
        serialized = serialized_totals()
        results[spec.name] = {
            "group": spec.group,
            "time_s": time_s,
            "normalized": time_s / calibration_s,
            "pickle_calls": serialized["pickle_calls"],
            "pickled_bytes": serialized["pickled_bytes"],
        }
    return {
        "schema": SCHEMA_VERSION,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quick": quick,
        "warmup": warmup,
        "repeat": repeat,
        "backend": backend,
        "python": _platform.python_version(),
        "platform": _platform.platform(),
        "cpu_count": os.cpu_count(),
        "calibration_s": calibration_s,
        "benchmarks": results,
    }


def default_results_path(quick: bool) -> Path:
    return Path("benchmarks") / "results" / (
        "bench-quick.json" if quick else "bench-full.json"
    )


def serialization_report(doc: dict[str, Any]) -> dict[str, Any]:
    """The bytes-serialized report CI publishes next to the timings.

    One row per benchmark: how many pickles the MPI transport performed
    and how many bytes they produced, plus the ``zero_copy`` verdict the
    buffer-path benchmarks are expected to hit (no pickled bytes at all).
    """
    rows = {
        name: {
            "pickle_calls": row.get("pickle_calls", 0),
            "pickled_bytes": row.get("pickled_bytes", 0),
            "zero_copy": row.get("pickled_bytes", 0) == 0,
        }
        for name, row in doc.get("benchmarks", {}).items()
    }
    return {
        "schema": SCHEMA_VERSION,
        "created": doc.get("created"),
        "backend": doc.get("backend"),
        "total_pickled_bytes": sum(r["pickled_bytes"] for r in rows.values()),
        "benchmarks": rows,
    }


# ---------------------------------------------------------------------------
# Baseline comparison
# ---------------------------------------------------------------------------

def compare_results(
    current: dict[str, Any],
    baseline: dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
    noise_floor_s: float = NOISE_FLOOR_S,
) -> tuple[list[dict[str, Any]], bool]:
    """Compare normalized timings; return (rows, any_regression).

    A benchmark regresses when ``current/baseline > 1 + threshold``.
    Benchmarks present on only one side are reported but never gate, and
    neither do ones where both sides run under ``noise_floor_s`` seconds
    (status ``negligible``): ratios of sub-floor timings measure jitter.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    if baseline.get("schema") != current.get("schema"):
        raise ValueError(
            f"schema mismatch: baseline {baseline.get('schema')!r} "
            f"vs current {current.get('schema')!r} — refresh the baseline"
        )
    base = baseline.get("benchmarks", {})
    rows: list[dict[str, Any]] = []
    regression = False
    for name, cur in current.get("benchmarks", {}).items():
        ref = base.get(name)
        if ref is None:
            rows.append({"name": name, "status": "new", "ratio": None})
            continue
        ratio = cur["normalized"] / ref["normalized"]
        status = "ok"
        if cur["time_s"] < noise_floor_s and ref["time_s"] < noise_floor_s:
            status = "negligible"
        elif ratio > 1.0 + threshold:
            status = "regression"
            regression = True
        elif ratio < 1.0 / (1.0 + threshold):
            status = "improved"
        rows.append(
            {
                "name": name,
                "status": status,
                "ratio": ratio,
                "current_s": cur["time_s"],
                "baseline_s": ref["time_s"],
            }
        )
    for name in base:
        if name not in current.get("benchmarks", {}):
            rows.append({"name": name, "status": "missing", "ratio": None})
    return rows, regression


def baseline_delta(current: dict[str, Any], previous: dict[str, Any]) -> str:
    """Kernel-set delta printed by ``--update-baseline``.

    Newly added kernels (like a fresh ``course_serve_*`` family) and
    kernels that vanished are easy to miss in a wall-of-JSON rewrite;
    this one-liner makes the set change reviewable in the command output.
    """
    now = set(current.get("benchmarks", {}))
    before = set(previous.get("benchmarks", {}))
    added = sorted(now - before)
    removed = sorted(before - now)
    parts = []
    if added:
        parts.append(f"+{len(added)} new: {', '.join(added)}")
    if removed:
        parts.append(f"-{len(removed)} removed: {', '.join(removed)}")
    return f" ({'; '.join(parts)})" if parts else " (same kernel set)"


def format_comparison(rows: list[dict[str, Any]], threshold: float) -> str:
    lines = [
        f"baseline comparison (gate: >{100 * threshold:.0f}% slower, normalized)",
        f"{'benchmark':<20} {'status':<11} {'ratio':>7} {'now (s)':>10} {'base (s)':>10}",
    ]
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.2f}x"
        now = f"{row['current_s']:.4f}" if "current_s" in row else "-"
        base = f"{row['baseline_s']:.4f}" if "baseline_s" in row else "-"
        lines.append(
            f"{row['name']:<20} {row['status']:<11} {ratio:>7} {now:>10} {base:>10}"
        )
    return "\n".join(lines)


def main(args) -> int:  # pragma: no cover - exercised via cli tests
    """Entry point for ``repro bench`` (argparse namespace from the CLI)."""
    if args.list_benches:
        for spec in REGISTRY:
            print(f"{spec.group:12s} {spec.name}")
        return 0
    if args.update_baseline and args.quick and not getattr(
        args, "allow_quick_baseline", False
    ):
        print(
            "refusing to update the baseline from a --quick run: smoke-sized "
            "timings are too noisy to gate against.  Re-run without --quick, "
            "or pass --allow-quick-baseline if a quick baseline is really "
            "what you want (e.g. for the CI smoke gate).",
            file=sys.stderr,
        )
        return 2
    try:
        doc = run_benchmarks(
            args.names or None,
            quick=args.quick,
            warmup=args.warmup,
            repeat=args.repeat,
            backend=args.backend,
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else default_results_path(args.quick)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for name, row in doc["benchmarks"].items():
        print(f"{name:<20} {row['time_s']:>10.4f} s  ({row['normalized']:.2f}x cal)")
    print(f"\nresults written to {out}")

    if getattr(args, "serialization_report", None):
        report_path = Path(args.serialization_report)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(
            json.dumps(serialization_report(doc), indent=2) + "\n"
        )
        print(f"serialization report written to {report_path}")

    if getattr(args, "trace", False):
        from .obs import build_profile, record, write_chrome_trace

        by_name = {spec.name: spec for spec in REGISTRY}
        for name in doc["benchmarks"]:
            thunk = by_name[name].make(args.quick, args.backend)
            with record() as rec:
                thunk()
            profile = build_profile(rec.events(), dropped=rec.dropped)
            trace_path = out.parent / f"trace-{name}.json"
            write_chrome_trace(trace_path, profile)
            print(f"chrome trace written to {trace_path}")

    baseline_path = Path(args.baseline) if args.baseline else DEFAULT_BASELINE
    if args.update_baseline:
        delta = ""
        if baseline_path.exists():
            try:
                previous = json.loads(baseline_path.read_text())
            except ValueError:
                previous = {}
            delta = baseline_delta(doc, previous)
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"baseline updated at {baseline_path}{delta}")
        return 0
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; skipping the regression gate")
        return 0
    baseline = json.loads(baseline_path.read_text())
    for knob in ("backend", "quick"):
        if baseline.get(knob) != doc[knob]:
            print(
                f"baseline was recorded with {knob}={baseline.get(knob)!r} but "
                f"this run used {knob}={doc[knob]!r}; not comparable — "
                "skipping the regression gate"
            )
            return 0
    try:
        rows, regression = compare_results(doc, baseline, args.threshold)
    except ValueError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print()
    print(format_comparison(rows, args.threshold))
    if regression:
        print("\nFAIL: performance regression vs baseline", file=sys.stderr)
        return 3
    print("\nOK: no regression vs baseline")
    return 0
