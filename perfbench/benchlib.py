"""Shared helpers of the benchmark: metric table, program loading, knobs,
percentiles, the in-memory span tracer, /proc readers and the result line.

Everything here is the benchmark's own code; it imports nothing from the
program, so it can run (and fail cleanly) in a directory that holds only the
benchmark.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import random
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

WORKLOADS = ("serve_cohort", "exemplars_threads", "exemplars_processes")

#: End-to-end metrics, printed on every workload with tracing off.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mb": "MB",
}

EXEMPLAR_KINDS = ("integration", "drugdesign", "forestfire", "heat", "sorting")
EXEMPLAR_RUNS = tuple(
    f"{kind}_{form}" for form in ("omp", "mpi") for kind in EXEMPLAR_KINDS
)

#: Per-layer metrics, printed on every workload in the traced run.  A layer
#: a workload does not pass through reads 0 there.
PER_LAYER: dict[str, str] = {
    "serve.route.read_ms": "ms",
    "serve.route.section_ms": "ms",
    "serve.route.join_ms": "ms",
    "serve.route.submit_ms": "ms",
    "serve.route.gradebook_ms": "ms",
    "serve.route.edit_ms": "ms",
    "serve.admission_wait_ms": "ms",
    "serve.store.lock_wait_ms": "ms",
    "serve.store.journal_append_ms": "ms",
    "serve.store.journal_appends": "count",
    "serve.store.journal_bytes": "bytes",
    "serve.store.gradebook_ms": "ms",
    "runestone.grade_ms": "ms",
    "runestone.render_ms": "ms",
    "runestone.renders": "count",
    "serve.cache.hits": "count",
    "serve.cache.misses": "count",
    "serve.cache.hit_ratio": "ratio",
    "serve.encode_ms": "ms",
    "serve.response_bytes": "bytes",
    "serve.replay_s": "s",
    "serve.replayed_records": "count",
    "openmp.busy_s": "s",
    "openmp.barrier_wait_s": "s",
    "openmp.pool.chunks": "count",
    "openmp.pool.dispatch_ms": "ms",
    "openmp.pool.compute_ms": "ms",
    "openmp.pool.worker_fds": "count",
    "openmp.pool.worker_rss_mb": "MB",
    "mpi.launch_ms": "ms",
    "mpi.messages": "count",
    "mpi.message_bytes": "bytes",
    "mpi.collectives": "count",
    "mpi.busy_s": "s",
    "mpi.wait_s": "s",
    "mpi.pickle_calls": "count",
    "mpi.pickled_bytes": "bytes",
    **{f"exemplars.{kind}_seq_ms": "ms" for kind in EXEMPLAR_KINDS},
    **{f"exemplars.{run}_ms": "ms" for run in EXEMPLAR_RUNS},
    "obs.traced_ops_per_s": "1/s",
    "obs.dropped_events": "count",
}

#: The program's environment knobs.  Every run pins the backends per
#: workload and clears the rest, so an ambient setting cannot change what
#: is measured.
CLEARED_KNOBS = (
    "REPRO_KERNEL",
    "REPRO_COLL_ALGO",
    "REPRO_COLL_PLATFORM",
    "REPRO_MPI_BATCH_BYTES",
    "REPRO_SHM_THRESHOLD",
    "REPRO_MP_START_METHOD",
    "OMP_NUM_THREADS",
    "OMP_SCHEDULE",
)
#: Cold set-ups per untraced run; ``setup_s`` is their median.
COLD_SETUPS = 5

BACKEND_BY_WORKLOAD = {
    "serve_cohort": "threads",
    "exemplars_threads": "threads",
    "exemplars_processes": "processes",
}


class ProgramMissing(RuntimeError):
    """The checkout holds no program source to benchmark."""


def pin_environment(workload: str) -> dict[str, str]:
    """Set the backends for ``workload``, clear every other knob."""
    for name in CLEARED_KNOBS:
        os.environ.pop(name, None)
    backend = BACKEND_BY_WORKLOAD[workload]
    os.environ["REPRO_MPI_BACKEND"] = backend
    os.environ["OMP_BACKEND"] = backend
    return {
        "REPRO_MPI_BACKEND": backend,
        "OMP_BACKEND": backend,
        **{name: "" for name in CLEARED_KNOBS},
    }


def pin_cpus() -> set[int]:
    """Keep the run, and every thread and process it starts, on one CPU.

    Returns the CPUs it may use.  Every hand-off between two threads or two
    processes -- an interpreter-lock switch, a barrier, a mailbox message,
    a pool task or result on a pipe -- that crosses from one virtual CPU to
    the other waits until the host schedules the other CPU, and on a shared
    host that wait, not the program, set the run's speed.  Only the thread
    holding the interpreter lock runs Python, so the thread backends gain
    little from a second CPU; the process backends lose their parallel
    speed-up, and what remains is their dispatch, fork and pickling cost.
    """
    cpus = {min(os.sched_getaffinity(0))}
    os.sched_setaffinity(0, cpus)
    return cpus


def load_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source under {src}")
    sys.path.insert(0, str(src))
    import repro

    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ProgramMissing(f"imported repro from {origin}, not from {src}")


def rng_for(*parts: object) -> random.Random:
    """A generator seeded from its labels: the same labels, the same stream."""
    return random.Random(":".join(str(p) for p in parts))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(samples: Iterable[float], q: float) -> float:
    """The ``q``-th percentile by the exclusive method of ``statistics.quantiles``.

    Linear interpolation at the 1-based rank ``(n + 1) * q / 100``, clamped
    to the samples' range.  For three or more samples, ``percentile(s, 25)``
    and ``percentile(s, 75)`` are the quartiles ``statistics.quantiles(s,
    n=4)`` gives, so the steadiness check and the metrics share one
    definition.
    """
    values = sorted(samples)
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    pos = min(max((len(values) + 1) * q / 100.0 - 1.0, 0.0), len(values) - 1.0)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def median(samples: Iterable[float]) -> float:
    return percentile(samples, 50.0)


def sitting_percentile(times: dict[str, list[float]], q: float) -> float:
    """One sitting of every operation in ``times`` at the ``q``-th percentile.

    The sitting is the sum of the operations' medians, scaled by the
    ``q``-th percentile, over every sample, of a sample's ratio to its own
    operation's median.  Operations of very different lengths then share
    one pooled sample: a percentile over the raw times would sit on the
    edge between two operations, and one over sittings would rest on a
    handful of them.
    """
    medians = {name: median(samples) for name, samples in times.items()}
    ratios = [t / medians[name] for name, samples in times.items() for t in samples]
    return sum(medians.values()) * percentile(ratios, q)


def ms(seconds: float) -> float:
    return seconds * 1e3


# ---------------------------------------------------------------------------
# Span tracer (traced runs only)
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans: name, start, end, parent, and the trace they belong to.

    The benchmark's wrappers open a span around each call into a layer.  A
    span opened with a fresh id (``call(..., trace=tracer.new_trace())``) is
    that trace's root, and every span opened beneath it on the same thread
    shares its trace id.  Spans are kept in a list and written out once, at
    the end of the run.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [trace, name, t0, t1, parent]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_trace = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, trace: int | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if trace is None:
            trace = self.spans[parent][0] if parent >= 0 else -1
        span = [trace, name, time.monotonic(), 0.0, parent]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.monotonic()
        self._stack().pop()

    def new_trace(self) -> int:
        with self._lock:
            self._next_trace += 1
            return self._next_trace

    def call(self, name: str, fn: Callable, *args: Any, trace: int | None = None,
             **kwargs: Any) -> Any:
        index = self._open(name, trace)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def add(self, name: str, t0: float, t1: float, parent: int) -> None:
        """Record a finished span (e.g. one read from the program's events)."""
        trace = self.spans[parent][0] if parent >= 0 else -1
        with self._lock:
            self.spans.append([trace, name, t0, t1, parent])

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def self_time_totals(self) -> dict[str, float]:
        """Per span name, the total time of the spans that belong to a trace
        (a request or an exemplar run) that their children do not cover: a
        layer's self time.  Spans outside any trace (boot, checks) are left
        out."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span[4] >= 0:
                children.setdefault(span[4], []).append((span[2], span[3]))
        totals: dict[str, float] = {}
        for index, (trace, name, t0, t1, _parent) in enumerate(self.spans):
            if trace >= 0:
                covered = union_length(children.get(index, []))
                totals[name] = totals.get(name, 0.0) + (t1 - t0 - covered)
        return totals

    def write(self, path: Path) -> int:
        """Write every span as one JSON line (gzip); returns spans written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        # Span names are the benchmark's own identifiers, so the lines are
        # formatted directly; json.dumps per span doubled the traced run's tail.
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.writelines(
                f'{{"id":{i},"trace":{trace},"name":"{name}","start":{t0!r},'
                f'"end":{t1!r},"parent":{parent}}}\n'
                for i, (trace, name, t0, t1, parent) in enumerate(self.spans)
            )
        return len(self.spans)


def union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def patch(owner: Any, attr: str, replacement: Any, undo: list) -> None:
    """Replace ``owner.attr`` and remember how to put it back."""
    undo.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, replacement)


def unpatch(undo: list) -> None:
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Processes: children, memory, fds (read from /proc)
# ---------------------------------------------------------------------------

def child_pids() -> list[int]:
    pids: set[int] = set()
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        pids.update(int(p) for p in text.split())
    return sorted(pids)


def _status_kb(pid: int | str, key: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(key + ":"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_kb(pid: int | str = "self") -> int:
    return _status_kb(pid, "VmHWM")


def rss_kb(pid: int | str = "self") -> int:
    return _status_kb(pid, "VmRSS")


def fd_count(pid: int) -> int:
    try:
        return len(os.listdir(f"/proc/{pid}/fd"))
    except OSError:
        return 0


def has_ended(pid: int) -> bool:
    """True once ``pid`` has exited (gone, or a zombie awaiting its reaper)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


def wait_ended(pids: Iterable[int], timeout_s: float = 20.0) -> list[int]:
    """Wait until every pid has ended; returns those still running."""
    deadline = time.monotonic() + timeout_s
    pending = list(pids)
    while pending and time.monotonic() < deadline:
        pending = [p for p in pending if not has_ended(p)]
        if pending:
            time.sleep(0.01)
    return pending


def reaped_children_peak_kb() -> int:
    """Largest peak RSS among this process's children that were waited for."""
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mb(live_children: Iterable[int], forked_ranks: int) -> float:
    """Peak resident memory of this process and the processes forked for it.

    This process's peak, plus each live child's (the pool workers), plus
    ``forked_ranks`` times the largest peak among children already reaped
    (MPI ranks, which a launch runs side by side).
    """
    kb = peak_rss_kb() + sum(peak_rss_kb(p) for p in live_children)
    kb += forked_ranks * reaped_children_peak_kb()
    return kb / 1024.0


def cold_setups(workload: str, seed: int, *args: str) -> list[float]:
    """Seconds of ``COLD_SETUPS`` cold set-ups, each in a fresh interpreter.

    ``setup_once.py`` times one set-up from before the program is imported
    to where the first timed operation would start, so every sample pays
    the imports, lazy initialisation and state building a learner's first
    run pays.  They run one after another, after the timed phase, so they
    share no CPU with it and their peak memory is not counted in it.
    """
    import subprocess

    times = []
    for _ in range(COLD_SETUPS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_once.py"), workload, str(seed), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cold set-up of {workload} exited {proc.returncode}: "
                               f"{proc.stderr[-2000:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

class RunResult:
    """What one run reports: operation counts, metrics, and log lines."""

    def __init__(self) -> None:
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.values: dict[str, float] = {}
        self.notes: list[str] = []
        self.problems: list[str] = []

    def fail_check(self, reason: str) -> None:
        """A whole-run check failed (state after the timed phase)."""
        self.correct = False
        self.problems.append(reason)

    def note(self, text: str) -> None:
        self.notes.append(text)


def result_line(result: RunResult, names: dict[str, str]) -> str:
    metrics = {}
    for name, unit in names.items():
        value = result.values.get(name, 0)
        if isinstance(value, float) and not math.isfinite(value):
            value = 0
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": int(result.attempted),
            "failed": int(result.failed),
            "metrics": metrics,
        },
        separators=(",", ":"),
    )
