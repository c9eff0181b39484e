"""Pluggable execution backends for the worksharing constructs.

The thread backend gives the teaching runtime its *concurrency* semantics
(real races, real locks) but — Python threads being GIL-bound — no
wall-clock speedup for CPU-bound loop bodies.  This module adds the
*parallelism* half: a ``"processes"`` backend that runs worksharing loops
on a persistent pool of worker processes, so the handout's benchmarking
study measures genuine multicore scaling.

Design points:

* **Chunk tasks, not per-index closures.**  Work ships to the pool as
  *batches of indices* ``(lo, hi)``; the loop over the batch runs inside
  the worker.  One pipe round-trip per chunk instead of per iteration.
* **Picklable kernels, pickled once.**  Anything crossing the process
  boundary must pickle: loop bodies and chunk kernels must be module-level
  functions (or :func:`functools.partial` over them).  The kernel is
  pickled once per call — that pickle is also the check, so a closure
  raises :class:`BackendUnavailable` with a pointed message rather than a
  bare ``PicklingError`` — and crosses each worker's pipe once, with that
  worker's first batch; later batches carry only ``(lo, hi)`` (and the
  names of segments retired since the worker's previous batch).
* **Persistent pool, parent-side dispatch.**  The first process-backend
  loop forks the workers, each owning one duplex pipe; later loops reuse
  them (grown on demand).  The parent hands the next batch to whichever
  worker answers first and stores results by batch index, with no
  manager or feeder thread in between.  A worker that dies surfaces as
  :class:`BackendUnavailable` (its pipe reads EOF, or its process
  sentinel fires) rather than a hang.
* **Shared-memory arrays.**  :class:`SharedArray` wraps
  :mod:`multiprocessing.shared_memory` behind a picklable handle, so NumPy
  exemplars can let workers write results in place instead of shipping
  arrays back through pickles.  A segment the parent unlinks is retired
  from every worker's attachment cache with that worker's next task.

``docs/performance.md`` ("Process backends: what a chunk and a launch
cost") walks through the protocol and its measured costs.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import pickle
import signal
import threading
import time
from typing import Any, Callable, Sequence

import numpy as np

from .env import BACKENDS, get_config
from .reduction import Reduction, get_reduction
from .scheduling import DynamicScheduler, static_block_ranges

__all__ = [
    "BackendUnavailable",
    "SharedArray",
    "chunk_ranges",
    "run_chunks",
    "process_parallel_for",
    "resolve_backend",
    "pool_size",
    "shutdown_pool",
]


class BackendUnavailable(RuntimeError):
    """The requested execution backend cannot run this workload."""


def resolve_backend(backend: str | None) -> str:
    """Normalize an explicit backend choice, defaulting to the config's."""
    name = (backend or get_config().backend).strip().lower()
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")
    return name


# ---------------------------------------------------------------------------
# Persistent worker pool
# ---------------------------------------------------------------------------
# Worker protocol, one duplex pipe per worker.  The parent sends
# ``(lo, hi, kernel_blob, retired)``: ``kernel_blob`` is the call's pickled
# kernel on the worker's first batch of a call and None after it, and
# ``retired`` names the shared-memory segments the parent unlinked since
# the worker's previous task.  The worker answers ``(True, result)``, or
# ``(False, (exception, traceback text))`` when the kernel raised.  A
# kernel that cannot be loaded in the worker ends the worker, like any
# other crash, and the parent reports the lost worker.

_WORKER_LOST = (
    "a process-backend worker died while running a chunk task "
    "(commonly: the kernel resolves to a name the worker cannot "
    "import, e.g. one defined interactively after the pool started)"
)


class _RemoteTraceback(Exception):
    """The worker-side traceback, chained as ``__cause__`` of a kernel error."""

    def __str__(self) -> str:
        return self.args[0]


class _Worker:
    """Parent-side handle of one pool worker: its process and pipe end."""

    def __init__(self, ctx: Any) -> None:
        self.conn, child_end = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(self.conn, child_end),
            name="repro-omp-worker",
            daemon=True,
        )
        self.process.start()
        child_end.close()
        #: Segments the parent unlinked since this worker's last task.
        self.retired: list[str] = []


#: One lock serialises dispatch, pool growth and shutdown across threads
#: (re-entrant: a failing dispatch shuts the pool down while holding it).
_lock = threading.RLock()
_workers: list[_Worker] = []


def _mp_context() -> Any:
    """``fork`` where the platform has it (fast, inherits state), else the default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _pool(workers: int) -> list[_Worker]:
    """The first ``workers`` pool workers, forking any not yet running."""
    while len(_workers) < workers:
        _workers.append(_Worker(_mp_context()))
    return _workers[:workers]


def pool_size() -> int:
    """Current size of the persistent worker pool (0 before first use)."""
    return len(_workers)


def shutdown_pool() -> None:
    """End every pool worker; the next process-backend call forks anew.

    Workers hold no state worth a graceful exit, so they are killed rather
    than waited for — one still busy (the parent left a call with batches
    in flight) included.  Without this call they end with the parent: at
    interpreter exit :mod:`multiprocessing` terminates its daemonic
    children, and a worker whose parent died outright reads EOF.
    """
    global _workers
    with _lock:
        workers, _workers = _workers, []
        for w in workers:
            w.conn.close()
            w.process.kill()
        for w in workers:
            w.process.join()


def _forget_pool_in_child() -> None:
    """After ``fork``: drop the parent's pool without touching its workers.

    The child's copies of the parent's pipe ends are closed, so a worker
    still sees EOF when the parent closes its end, and a forked child
    (an MPI rank, or a worker) that runs chunks forks a pool of its own.
    """
    global _lock, _workers
    for w in _workers:
        w.conn.close()
    _workers = []
    _lock = threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_in_child)


def _retire(name: str) -> None:
    """Queue an unlinked segment's name for every live worker's next task."""
    with _lock:
        for w in _workers:
            w.retired.append(name)


def _worker_main(parent_end: Any, conn: Any) -> None:
    """Worker loop: run batches until the parent closes the pipe."""
    parent_end.close()  # inherited across fork; a copy here would hide EOF
    # Ctrl-C reaches the whole process group; the parent decides what a
    # keyboard interrupt does to its workers (shutdown_pool ends them).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    kernel: Any = None
    while True:
        try:
            lo, hi, blob, retired = conn.recv()
        except EOFError:
            return
        for name in retired:
            shared = _attached.pop(name, None)
            if shared is not None:
                # A view kept alive past its task still exports the buffer;
                # the mapping then goes when that view does.
                with contextlib.suppress(BufferError):
                    shared.close()
        if blob is not None:
            kernel = pickle.loads(blob)
        _run_batch(conn, kernel, lo, hi)


def _run_batch(conn: Any, kernel: Callable[[int, int], Any], lo: int, hi: int) -> None:
    # A function of its own, so no reference to the result (possibly a
    # view of a shared array) outlives the reply.
    try:
        reply = (True, kernel(lo, hi))
    except Exception as exc:  # noqa: BLE001 - re-raised in the parent
        import traceback

        reply = (False, (exc, traceback.format_exc()))
    try:
        data = pickle.dumps(reply)
    except Exception as exc:  # noqa: BLE001 - an unpicklable result or error
        error = RuntimeError(f"a chunk task's reply could not be pickled: {exc!r}")
        data = pickle.dumps((False, (error, "")))
    conn.send_bytes(data)


# ---------------------------------------------------------------------------
# Chunk decomposition
# ---------------------------------------------------------------------------

def chunk_ranges(
    n: int,
    workers: int,
    schedule: str = "static",
    chunk: int | None = None,
) -> list[tuple[int, int]]:
    """Split ``range(n)`` into contiguous ``(lo, hi)`` batches.

    The schedule controls granularity exactly as OpenMP's does placement:

    * ``static`` without a chunk: one nearly equal block per worker;
    * ``static`` with chunk ``c`` / ``dynamic``: size-``c`` batches
      (dynamic defaults to ~8 batches per worker so the pool's first-free
      -worker assignment can balance skewed bodies);
    * ``guided``: decaying batch sizes, ``remaining / workers`` bounded
      below by the chunk.

    Empty batches are dropped, so ``n = 0`` yields ``[]``.
    """
    if n < 0:
        raise ValueError(f"iteration count must be non-negative, got {n}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be positive, got {chunk}")
    if n == 0:
        return []
    schedule = schedule.lower()
    if schedule == "static" and chunk is None:
        return [
            (r.start, r.stop)
            for r in static_block_ranges(n, workers)
            if len(r)
        ]
    if schedule in ("static", "dynamic"):
        size = chunk if chunk is not None else max(1, -(-n // (workers * 8)))
        return [(lo, min(lo + size, n)) for lo in range(0, n, size)]
    if schedule == "guided":
        floor = chunk or 1
        out: list[tuple[int, int]] = []
        lo = 0
        while lo < n:
            size = min(max(floor, (n - lo) // workers), n - lo)
            out.append((lo, lo + size))
            lo += size
        return out
    raise ValueError(f"unknown schedule {schedule!r}")


# ---------------------------------------------------------------------------
# Chunk execution
# ---------------------------------------------------------------------------

def _threads_run_chunks(
    kernel: Callable[[int, int], Any],
    ranges: Sequence[tuple[int, int]],
    workers: int,
) -> list[Any]:
    """Thread-backend chunk execution: team members pull batches dynamically."""
    from .team import parallel_region

    results: list[Any] = [None] * len(ranges)
    sched = DynamicScheduler(len(ranges), 1)

    def member() -> None:
        for ci in iter(sched):
            lo, hi = ranges[ci]
            results[ci] = kernel(lo, hi)

    parallel_region(member, num_threads=max(1, min(workers, len(ranges))))
    return results


def _process_run_chunks(
    kernel: Callable[[int, int], Any],
    ranges: Sequence[tuple[int, int]],
    workers: int,
) -> list[Any]:
    """Process-backend chunk execution on the persistent pool.

    The kernel — wrapped in :func:`repro.obs.run_traced_chunk` while a
    recorder is active, so worker events come back with each result — is
    pickled once here; :func:`_dispatch` runs the batches.
    """
    from ..obs import recorder as _obs

    tracing = _obs.active() is not None
    task = functools.partial(_obs.run_traced_chunk, kernel) if tracing else kernel
    try:
        blob = pickle.dumps(task)
    except Exception as exc:
        raise BackendUnavailable(
            f"the process backend must pickle the chunk kernel, and {kernel!r} "
            "is not picklable — use a module-level function (or "
            "functools.partial over one) instead of a closure/lambda, or "
            "select backend='threads'"
        ) from exc
    submit_ts = time.monotonic()
    with _lock:
        results = _dispatch(_pool(workers), blob, ranges)
    if not tracing:
        return results
    out = []
    for result, forwarded in results:
        if forwarded is not None:
            _obs.ingest_forwarded(forwarded, submit_ts)
        out.append(result)
    return out


def _dispatch(
    pool: list[_Worker], blob: bytes, ranges: Sequence[tuple[int, int]]
) -> list[Any]:
    """Run every batch on ``pool``; results in batch order.

    Each worker gets one batch (with the kernel) up front, then the next
    batch whenever it answers — first free, first served.  After a kernel
    raises, no new batch goes out; the ones in flight are drained and the
    first error is re-raised, leaving no stale reply in any pipe.  Leaving
    with batches still in flight (a lost worker, an interrupt) shuts the
    pool down instead, so no later call can read their results.
    """
    from multiprocessing.connection import wait

    results: list[Any] = [None] * len(ranges)
    busy: dict[_Worker, int] = {}
    next_batch = 0
    error: tuple[BaseException, str] | None = None

    def give(worker: _Worker, kernel_blob: bytes | None) -> None:
        nonlocal next_batch
        lo, hi = ranges[next_batch]
        retired, worker.retired = worker.retired, []
        worker.conn.send((lo, hi, kernel_blob, retired))
        busy[worker] = next_batch
        next_batch += 1

    try:
        for worker in pool[: len(ranges)]:
            give(worker, blob)
        while busy:
            ready = set(wait([w.conn for w in busy] + [w.process.sentinel for w in busy]))
            for worker in [w for w in busy if w.conn in ready or w.process.sentinel in ready]:
                if worker.conn not in ready:  # the sentinel alone: the worker exited
                    raise BackendUnavailable(_WORKER_LOST)
                index = busy.pop(worker)
                ok, value = worker.conn.recv()
                if ok:
                    results[index] = value
                elif error is None:
                    error = value
                if error is None and next_batch < len(ranges):
                    give(worker, None)
    except BaseException as exc:
        shutdown_pool()
        if isinstance(exc, (EOFError, OSError)):  # a pipe to a dead worker
            raise BackendUnavailable(_WORKER_LOST) from exc
        raise
    if error is not None:
        exc, remote_tb = error
        exc.__cause__ = _RemoteTraceback(remote_tb)
        raise exc
    return results


def run_chunks(
    kernel: Callable[[int, int], Any],
    ranges: Sequence[tuple[int, int]],
    *,
    workers: int,
    backend: str | None = None,
) -> list[Any]:
    """Run ``kernel(lo, hi)`` over every batch; results in batch order."""
    if not ranges:
        return []
    if resolve_backend(backend) == "processes":
        return _process_run_chunks(kernel, ranges, workers)
    return _threads_run_chunks(kernel, ranges, workers)


def _index_chunk(
    body: Callable[[int], Any],
    reduction: "str | Reduction | None",
    lo: int,
    hi: int,
) -> Any:
    """Worker-side driver: run a per-index body over one batch of indices."""
    red = get_reduction(reduction) if reduction is not None else None
    partial = red.identity if red is not None else None
    for i in range(lo, hi):
        value = body(i)
        if red is not None:
            partial = red.combine(partial, value)
    return partial


def process_parallel_for(
    n: int,
    body: Callable[[int], Any],
    workers: int,
    schedule: str,
    chunk: int | None,
    reduction: "str | Reduction | None",
) -> Any:
    """``parallel_for`` on the process backend (called from ``loops``).

    Named reductions travel as their operator string and are resolved
    inside the worker, so the lambda-bearing :class:`Reduction` registry
    entries never cross the pickle boundary.  Without a reduction the body
    runs purely for its side effects, which must land in a
    :class:`SharedArray` (or other cross-process channel) to be visible.
    """
    ranges = chunk_ranges(n, workers, schedule, chunk)
    red = get_reduction(reduction) if reduction is not None else None
    kernel = functools.partial(_index_chunk, body, reduction)
    partials = _process_run_chunks(kernel, ranges, workers) if ranges else []
    if red is not None:
        return red.fold(partials)
    return None


# ---------------------------------------------------------------------------
# Shared-memory arrays
# ---------------------------------------------------------------------------

#: Worker-side cache of attached segments, keyed by shm name, so repeated
#: chunk tasks over the same array attach once per worker process; entries
#: leave when the parent retires the segment (see ``_worker_main``).
_attached: dict[str, "SharedArray"] = {}


def _attach_shared(name: str, shape: tuple[int, ...], dtype: str) -> "SharedArray":
    cached = _attached.get(name)
    if cached is None:
        cached = _attached[name] = SharedArray(shape, dtype, _attach_name=name)
    return cached


class SharedArray:
    """A NumPy array backed by ``multiprocessing.shared_memory``.

    Pickles to a lightweight *handle* (segment name + shape + dtype): a
    worker unpickling the handle attaches to the same physical pages, so
    writes made inside pool tasks are visible to the parent with no result
    shipping.  The creating process owns the segment's lifetime — call
    :meth:`unlink` (or use as a context manager) when done.
    """

    def __init__(
        self,
        shape: tuple[int, ...] | int,
        dtype: Any = np.float64,
        *,
        _attach_name: str | None = None,
    ) -> None:
        # Segment lifetime is owner-managed (the creator unlinks), so the
        # stdlib resource tracker is kept out of it entirely — see
        # repro.mpi.shm._tracker_silenced for why registration from
        # multiple processes corrupts the tracker's bookkeeping.
        from repro.mpi import shm as _shm

        self.shape = tuple(shape) if isinstance(shape, (tuple, list)) else (int(shape),)
        self.dtype = np.dtype(dtype)
        nbytes = int(np.prod(self.shape)) * self.dtype.itemsize
        self._owner = _attach_name is None
        if self._owner:
            self._shm = _shm.create_segment(nbytes)
        else:
            self._shm = _shm.attach_segment(_attach_name)
        self.array = np.ndarray(self.shape, dtype=self.dtype, buffer=self._shm.buf)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "SharedArray":
        """Create a shared copy of an existing array.

        Non-contiguous (strided-view) input is copied element-by-element
        into the segment's contiguous layout — an explicit
        ``ascontiguousarray``-style normalization, so a sliced view shares
        its *values*, never its stride pattern.  Object dtypes cannot live
        in flat shared bytes and are rejected.
        """
        arr = np.asarray(arr)
        if arr.dtype == object:
            raise TypeError(
                "SharedArray requires a typed NumPy array, got dtype=object"
            )
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        shared = cls(arr.shape, arr.dtype)
        shared.array[...] = arr
        return shared

    @property
    def name(self) -> str:
        return self._shm.name

    def __reduce__(self):
        return (_attach_shared, (self._shm.name, self.shape, self.dtype.str))

    def close(self) -> None:
        self.array = None
        self._shm.close()

    def unlink(self) -> None:
        """Release the segment (owner only); the array becomes invalid."""
        from repro.mpi import shm as _shm

        self.array = None
        if self._owner:
            _shm.unlink_segment(self._shm)
            _retire(self._shm.name)
        else:
            self._shm.close()

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.unlink()
