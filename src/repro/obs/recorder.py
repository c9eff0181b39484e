"""Bounded event recorders over the runtime hook seams.

A :class:`Recorder` attaches (timestamped) to *both* runtime seams —
:data:`repro.obs.hooks.openmp` and :data:`repro.obs.hooks.mpi` — and files
every event into a bounded ring buffer (old events fall off the front; the
``dropped`` counter says how many).  The usual entry point is the
:func:`record` context manager, which also registers the recorder as the
process-wide *active* recorder that the process backends forward into.

Worker-process forwarding
-------------------------
Events emitted inside ``processes``-backend workers used to vanish: the
worker's hook state is a fork-time copy, so anything it captured died with
the worker.  Two forwarding paths fix that, both riding the transports the
backends already have (no new channels):

* **OpenMP chunk tasks** — when a recorder is active, the pool submits
  :func:`run_traced_chunk` instead of the bare kernel; the worker records
  its own events around the kernel and returns them *with* the chunk
  result, and the parent unwraps + merges (``openmp.backends``).
* **MPI process ranks** — ``procs._rank_main`` re-homes the fork-inherited
  recorder onto the child rank (:func:`adopt_forked_recorder`) and ships
  the captured events back as an extra element of the rank's report;
  ``run_procs`` merges them into the parent's active recorder.

Clock-offset correction: fork shares ``CLOCK_MONOTONIC``, so worker and
parent timestamps are normally directly comparable (offset 0).  As a
defensive measure — a spawn-based platform or a clock that restarts in the
child — :func:`ingest_forwarded` clamps: if the worker's first timestamp
precedes the parent-side submit/launch timestamp (impossible under a
shared clock), events are shifted so the worker's epoch aligns with the
submit point.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .events import Event, sanitize_args
from .hooks import mpi as _mpi_hooks
from .hooks import openmp as _omp_hooks

__all__ = [
    "Recorder",
    "ForwardedEvents",
    "record",
    "active",
    "run_traced_chunk",
    "adopt_forked_recorder",
    "collect_forwarded",
    "ingest_forwarded",
]

#: Default ring capacity: generous for teaching runs, bounded for loops.
DEFAULT_CAPACITY = 65_536


class Recorder:
    """Capture hook events into a bounded, thread-safe ring buffer."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        proc: tuple | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.proc = proc
        self.t0 = time.monotonic()
        self._buffer: deque[Event] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._dropped = 0
        self._attached = False

    # -- observation --------------------------------------------------------
    def _file(self, ts: float, source: str, event: str, args: tuple) -> None:
        ev = Event(
            ts=ts,
            source=source,
            name=event,
            args=sanitize_args(args),
            tid=threading.get_ident(),
            proc=self.proc,
        )
        with self._lock:
            if len(self._buffer) == self.capacity:
                self._dropped += 1
            self._buffer.append(ev)

    def _on_openmp(self, ts: float, event: str, *args: Any) -> None:
        self._file(ts, "openmp", event, args)

    def _on_mpi(self, ts: float, event: str, *args: Any) -> None:
        self._file(ts, "mpi", event, args)

    # -- lifecycle ----------------------------------------------------------
    def attach(self) -> None:
        """Subscribe to both hook seams (idempotent)."""
        if not self._attached:
            _omp_hooks.attach(self._on_openmp, timestamped=True)
            _mpi_hooks.attach(self._on_mpi, timestamped=True)
            self._attached = True

    def detach(self) -> None:
        if self._attached:
            _omp_hooks.detach(self._on_openmp)
            _mpi_hooks.detach(self._on_mpi)
            self._attached = False

    # -- access -------------------------------------------------------------
    def events(self) -> list[Event]:
        """Snapshot of the buffer in arrival order."""
        with self._lock:
            return list(self._buffer)

    def extend(self, events: list[Event]) -> None:
        """Merge externally captured (already-shifted) events."""
        with self._lock:
            overflow = len(self._buffer) + len(events) - self.capacity
            if overflow > 0:
                self._dropped += min(overflow, len(self._buffer))
            self._buffer.extend(events)

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)


#: The process-wide recorder the backends forward worker events into.
_active: Recorder | None = None


def active() -> Recorder | None:
    """The currently recording :class:`Recorder`, if any."""
    return _active


@contextlib.contextmanager
def record(
    capacity: int = DEFAULT_CAPACITY,
) -> Iterator[Recorder]:
    """Record all runtime events for the duration of the ``with`` block.

    Nested recording is rejected: a second active recorder would double-
    capture every event and race the worker-forwarding merge.
    """
    global _active
    if _active is not None:
        raise RuntimeError("a recorder is already active in this process")
    rec = Recorder(capacity=capacity)
    rec.attach()
    _active = rec
    try:
        yield rec
    finally:
        _active = None
        rec.detach()


# ---------------------------------------------------------------------------
# Worker-side capture + parent-side merge
# ---------------------------------------------------------------------------

@dataclass
class ForwardedEvents:
    """Events captured in a worker process, shipped back with its result."""

    events: list[Event] = field(default_factory=list)
    t0: float = 0.0
    pid: int = 0
    dropped: int = 0


def run_traced_chunk(
    kernel: Callable[[int, int], Any], lo: int, hi: int
) -> tuple[Any, ForwardedEvents]:
    """Pool-worker driver: run one chunk task under a local recorder.

    Substituted for the bare kernel by ``openmp.backends`` when a recorder
    is active in the parent.  The fresh local recorder brackets the kernel
    with ``chunk_begin``/``chunk_end`` and captures whatever the kernel
    itself emits; everything returns alongside the result for the parent
    to merge.  The worker's fork-inherited observer state is torn down
    first so events are not double-filed into a dead parent buffer.
    """
    rec = adopt_forked_recorder(("worker", os.getpid()))
    if rec is None:
        rec = Recorder(proc=("worker", os.getpid()))
        rec.attach()
    global _active
    _active = rec
    try:
        _omp_hooks.emit("chunk_begin", lo, hi)
        try:
            result = kernel(lo, hi)
        finally:
            _omp_hooks.emit("chunk_end", lo, hi)
    finally:
        _active = None
        rec.detach()
    return result, collect_forwarded(rec)


def adopt_forked_recorder(proc: tuple) -> Recorder | None:
    """Re-home a fork-inherited active recorder onto this worker process.

    Returns a fresh recorder labeled ``proc`` (and installs it as this
    process's active recorder) when the parent was recording at fork time,
    else ``None``.  The inherited recorder object is detached: its buffer
    is a dead copy the parent will never see.
    """
    global _active
    inherited = _active
    if inherited is None:
        return None
    inherited.detach()
    rec = Recorder(capacity=inherited.capacity, proc=proc)
    rec.attach()
    _active = rec
    return rec


def collect_forwarded(rec: Recorder | None) -> ForwardedEvents | None:
    """Package a worker recorder's capture for the trip to the parent."""
    if rec is None:
        return None
    return ForwardedEvents(
        events=rec.events(), t0=rec.t0, pid=os.getpid(), dropped=rec.dropped
    )


def ingest_forwarded(
    forwarded: ForwardedEvents, submit_ts: float, into: Recorder | None = None
) -> None:
    """Merge worker events into the parent recorder, correcting clocks.

    ``submit_ts`` is the parent-clock time at/before which the worker
    cannot have started recording.  Under fork the clocks agree and the
    offset is 0; if the worker clock reads *earlier* than the submit point
    its epoch is re-based onto it.
    """
    rec = into if into is not None else _active
    if rec is None or not forwarded.events:
        return
    offset = submit_ts - forwarded.t0 if forwarded.t0 < submit_ts else 0.0
    rec.extend([ev.shifted(offset) for ev in forwarded.events])
    if forwarded.dropped:
        with rec._lock:
            rec._dropped += forwarded.dropped
