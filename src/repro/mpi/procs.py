"""Process-rank launcher: real OS processes behind the ``comm`` API.

The thread-per-rank :class:`~repro.mpi.runtime.World` gives the teaching
runtime faithful MPI *semantics* (matching, collectives, deadlock
detection) but no *parallelism* — every rank shares one GIL.  This module
launches ranks as forked OS processes with pipe-based message transport,
so the distributed exemplars measure real multicore speedup while keeping
the SPMD ``fn(comm)`` call shape unchanged.

Scope: the ranks run the same :class:`~repro.mpi.comm.Intracomm` (and
:class:`~repro.mpi.cartesian.Cartcomm`) as the thread world — every verb
is written once there — over a :class:`QueueTransport` instead of
mailboxes: point-to-point (blocking, nonblocking, probes), every
collective, ``Split``/``Dup``/``Create``/``Create_cart``.  What needs one
address space stays on the threaded backend: ``ssend``/``issend`` (their
completion is a ``threading.Event``), windows, files and the
``MPI.COMM_WORLD`` proxy.  Select per launch with
``mpirun(..., backend=...)`` or ``REPRO_MPI_BACKEND``.

Transport: one multiprocessing queue (a locked pipe) per rank serves as
its inbox, and one :class:`Edge` per rank holds what every communicator
of that rank shares.  Envelopes carry a context number derived from the
communicator's context id, so a derived communicator's traffic (and each
communicator's collective traffic) never matches another's receives.
Object envelopes carry payloads pre-pickled by the sending rank (through
:func:`repro.mpi.serial.counted_dumps`, so serialization is accounted),
and receive-side :class:`~repro.mpi.status.Status` reports exact byte
counts.  Typed buffers never touch pickle: their envelopes carry a
:class:`~repro.mpi.message.BufferHandle` — raw bytes inline below
:func:`repro.mpi.shm.shm_threshold`, a shared-memory segment reference
above it.  Large payloads on an edge reuse an acknowledged per-``(src,
dst)`` segment (:class:`repro.mpi.shm.SendSlot`) that the receiver
re-attaches through a bounded :class:`repro.mpi.shm.SegmentCache`; this
holds for collectives too, which send one message per edge like any
other.

Small envelopes are additionally *batched* per destination edge: sends at
or below ``REPRO_MPI_BATCH_BYTES`` (default 1024; ``0`` disables) are
coalesced and flushed as one envelope when the batch fills, before any
larger send to the same edge (non-overtaking), whenever this rank is
about to block (receive, collective, ack wait), and at rank-body end.
Batching turns itself off while a fault injector is armed, because fault
rules are keyed to per-edge message ordinals.

Launch: a forked rank imports nothing between fork and its body — the
parent resolves the armed fault plan before forking — and reports once,
on a pipe of its own.  The launcher waits on those pipes and on the rank
processes' sentinels, so a rank that fails (or exits without a report)
is seen at once, and the survivors are sent an ``abort`` envelope.

Requires a ``fork``-capable platform (rank bodies may be closures, which
fork inherits but pickle cannot ship).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as _queue_mod
import sys
import time
from typing import Any, Callable, Sequence

import numpy as np

from . import serial as _serial
from . import shm as _shm
from .comm import Intracomm
from .constants import ANY_SOURCE, ANY_TAG, DEFAULT_DEADLOCK_TIMEOUT
from .errors import (
    DeadlockError,
    MPIError,
    RankFailedError,
    WorldAbortedError,
)
from .message import BufferHandle, Message

__all__ = ["Edge", "QueueTransport", "run_procs", "fork_available"]

#: Default per-edge coalescing threshold (bytes); REPRO_MPI_BATCH_BYTES
#: overrides, 0 disables.
DEFAULT_BATCH_BYTES = 1024
#: A pending batch is flushed once it holds this many envelopes ...
_BATCH_MAX_MSGS = 16
#: ... or this many payload bytes, whichever comes first.
_BATCH_FLUSH_BYTES = 8192

#: Control envelopes share the inboxes with message envelopes, whose first
#: field is a context number (never negative).
_ACK, _ABORT, _BATCH = -1, -2, -3


def _batch_limit() -> int:
    env = os.environ.get("REPRO_MPI_BATCH_BYTES")
    if env is not None:
        try:
            return max(0, int(env))
        except ValueError:
            return DEFAULT_BATCH_BYTES
    return DEFAULT_BATCH_BYTES


def fork_available() -> bool:
    """Whether the platform can launch process ranks (fork start method)."""
    return "fork" in multiprocessing.get_all_start_methods()


class _RemoteRankError(MPIError):
    """Re-raised form of an exception that crossed the process boundary."""


class Edge:
    """One forked rank's side of the queue-plus-shared-memory transport.

    Shared by every communicator the rank belongs to: the inboxes, the
    envelopes received but not yet matched (by context), the per-edge
    batches, and the zero-copy state — a reused send segment per
    destination, copy-out acknowledgments received but not yet claimed,
    and the attach-side segment cache.  Ranks are world ranks.
    """

    def __init__(
        self,
        rank: int,
        inboxes: Sequence[Any],
        hostname: str,
        deadlock_timeout: float | None,
        injector: Any = None,
    ) -> None:
        self.rank = rank
        self.hostname = hostname
        #: Fault injector (``repro.testkit``), when the launching parent had
        #: a plan armed.  Fault rules count per-edge message ordinals, which
        #: coalescing would renumber, so an armed plan turns batching off.
        self.injector = injector
        self._inboxes = inboxes
        self._timeout = deadlock_timeout
        self._pending: dict[int, list[Message]] = {}
        self._batch_limit = 0 if injector is not None else _batch_limit()
        self._batch: dict[int, list[tuple]] = {}
        self._batch_bytes: dict[int, int] = {}
        self._send_slots: dict[int, _shm.SendSlot] = {}
        self._acks: dict[str, int] = {}
        self.cache = _shm.SegmentCache()

    # -- posting --------------------------------------------------------------
    def put(self, dest: int, envelope: tuple, nbytes: int) -> None:
        """Post one envelope, batching small ones per destination edge."""
        limit = self._batch_limit
        if limit and nbytes <= limit and dest != self.rank:
            pending = self._batch.setdefault(dest, [])
            pending.append(envelope)
            total = self._batch_bytes.get(dest, 0) + nbytes
            self._batch_bytes[dest] = total
            if len(pending) >= _BATCH_MAX_MSGS or total >= _BATCH_FLUSH_BYTES:
                self._flush_dest(dest)
            return
        # Non-overtaking: anything already batched for this edge must land
        # before this larger envelope.
        self._flush_dest(dest)
        self._inboxes[dest].put(envelope)

    def _flush_dest(self, dest: int) -> None:
        pending = self._batch.get(dest)
        if not pending:
            return
        self._batch[dest] = []
        self._batch_bytes[dest] = 0
        self._inboxes[dest].put(pending[0] if len(pending) == 1 else (_BATCH, pending))

    def flush(self) -> None:
        for dest, pending in self._batch.items():
            if pending:
                self._flush_dest(dest)

    # -- receiving ------------------------------------------------------------
    def _file(self, envelope: tuple) -> None:
        """Sort one received envelope by context, or act on a control one.

        An abort envelope comes from the launcher once another rank has
        failed (it carries that rank); this rank then fails as well.
        """
        ctx = envelope[0]
        if ctx >= 0:
            _ctx, src, tag, payload, nbytes = envelope
            pending = self._pending.get(ctx)
            if pending is None:
                pending = self._pending[ctx] = []
            pending.append(Message(src, tag, payload, nbytes))
        elif ctx == _ACK:
            self._acks[envelope[1]] = self._acks.get(envelope[1], 0) + 1
        elif ctx == _ABORT:
            raise WorldAbortedError(origin=envelope[1])
        else:
            for inner in envelope[1]:
                self._file(inner)

    def _pump_once(self, timeout: float | None) -> bool:
        """Receive and file one envelope; False on timeout."""
        try:
            envelope = self._inboxes[self.rank].get(timeout=timeout)
        except _queue_mod.Empty:
            return False
        self._file(envelope)
        return True

    def _pump(self) -> None:
        """Block for one envelope, filing it.

        Flushes this rank's pending batches first: it is about to block,
        and a peer may need one of the held envelopes to make progress.
        """
        self.flush()
        if not self._pump_once(self._timeout):
            raise DeadlockError(
                f"rank {self.rank} made no progress for "
                f"{self._timeout}s (blocked in a receive no sender "
                "matches — classic send/recv ordering deadlock?)"
            )

    def match(self, ctx: int, source: int, tag: int, block: bool = True,
              remove: bool = True) -> Message | None:
        if not block:  # take in whatever has arrived, then look once
            self.flush()
            while self._pump_once(0):
                pass
        while True:
            pending = self._pending.get(ctx)
            if pending:
                for idx, msg in enumerate(pending):
                    if (source == ANY_SOURCE or msg.source == source) and (
                        tag == ANY_TAG or msg.tag == tag
                    ):
                        return pending.pop(idx) if remove else msg
            if not block:
                return None
            self._pump()

    # -- typed payloads -------------------------------------------------------
    def ship(self, values: np.ndarray, dest: int) -> BufferHandle:
        """Package a typed payload for ``dest``, reusing the edge's slot."""
        if self.injector is not None:
            # A dropped descriptor would leak its segment and a duplicated
            # single-use one would be fetched twice, so injected runs ship
            # every buffer inline — fault semantics stay message-shaped.
            return _shm.ship(values, threshold=1 << 62)
        if values.nbytes < _shm.shm_threshold():
            return _shm.ship(values)
        slot = self._send_slots.setdefault(dest, _shm.SendSlot())
        if slot.awaiting_ack and slot.segment is not None:
            name = slot.segment.name
            while self._acks.get(name, 0) < 1:
                self._pump()
            del self._acks[name]
            slot.awaiting_ack = False
        return _shm.ship(values, slot=slot)

    def fetch(self, handle: BufferHandle, source: int) -> np.ndarray:
        """Copy a payload out, acknowledging a reused segment to its sender.

        Acks are transport-internal: never batched, never fault-injected,
        invisible to the hook seam.
        """
        values, ack = _shm.fetch(handle, self.cache)
        if ack is not None:
            self._inboxes[source].put((_ACK, ack))
        return values

    def finalize(self) -> None:
        """Flush and tear down transport state at rank-body end.

        Outstanding copy-out acks are collected (bounded wait: the ack
        follows the receiver's copy, so in a matched program it is already
        in flight) and then reused segments are unlinked.  A slot whose
        ack never arrives — an orphaned send, which is an erroneous MPI
        program — is closed without unlinking rather than yanked from
        under a late receiver.
        """
        self.flush()
        deadline = time.monotonic() + 2.0
        for slot in self._send_slots.values():
            if slot.awaiting_ack and slot.segment is not None:
                name = slot.segment.name
                while self._acks.get(name, 0) < 1:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._pump_once(remaining):
                        break
                if self._acks.pop(name, 0):
                    slot.awaiting_ack = False
            if slot.awaiting_ack:
                if slot.segment is not None:
                    slot.segment.close()
            else:
                slot.release()
        self._send_slots.clear()
        self.cache.close()


class QueueTransport:
    """One forked rank's endpoint of one communicator: a context pair on
    its :class:`Edge` (see :class:`repro.mpi.comm.Transport`).

    Envelopes carry the context number ``2 * cid + ctx``, so each
    communicator's user and collective traffic match only among
    themselves; peers are translated to world ranks for the edge.
    """

    def __init__(self, edge: Edge, rank: int, world_ranks: tuple[int, ...], cid: int) -> None:
        self.edge = edge
        self.rank = rank
        self.size = len(world_ranks)
        self.world_ranks = world_ranks
        self.cid = cid
        self.hostname = edge.hostname
        self.injector = edge.injector
        self._ctx = 2 * cid

    def post(self, ctx: int, dest: int, tag: int, payload: Any, nbytes: int,
             sync: Any = None) -> None:
        if sync is not None:
            raise MPIError(
                "synchronous sends need one address space (their completion "
                "is a threading.Event); use backend='threads'"
            )
        envelope = (self._ctx + ctx, self.rank, tag, payload, nbytes)
        self.edge.put(self.world_ranks[dest], envelope, nbytes)

    def match(self, ctx: int, source: int, tag: int, block: bool = True,
              remove: bool = True) -> Message | None:
        return self.edge.match(self._ctx + ctx, source, tag, block, remove)

    def pack(self, values: np.ndarray, dest: int) -> BufferHandle:
        return self.edge.ship(values, self.world_ranks[dest])

    def unpack(self, payload: BufferHandle, source: int) -> np.ndarray:
        return self.edge.fetch(payload, self.world_ranks[source])

    def derive(self, cid: int, world_ranks: tuple[int, ...], rank: int) -> "QueueTransport":
        return QueueTransport(self.edge, rank, world_ranks, cid)

    @staticmethod
    def shared(key: Any, factory: Callable[[], Any]) -> Any:
        raise MPIError(
            "windows and files need one address space; use backend='threads'"
        )

    @staticmethod
    def check_abort() -> None:
        """An abort arrives as an envelope, raised while pumping."""

    @staticmethod
    def abort(error: BaseException) -> None:
        raise error


# ---------------------------------------------------------------------------
# Launch
# ---------------------------------------------------------------------------

def _rank_main(
    rank: int,
    size: int,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    inboxes: list[Any],
    report: Any,
    hostname: str,
    deadlock_timeout: float | None,
    fault_plan: Any,
) -> None:
    """Body of one forked rank: run ``fn`` and send one report to the parent.

    Imports nothing: everything it needs was loaded in the parent before
    the fork, and ``repro.testkit.faults`` only when ``fault_plan`` is set.
    The report is ``(ok, value or exception, forwarded events,
    serialization totals)`` on the rank's own pipe.
    """
    # Re-home any fork-inherited recorder: events this rank emits are
    # recorded locally and shipped back in the report (they would
    # otherwise land in a dead copy of the parent's buffer).
    from ..obs.recorder import adopt_forked_recorder, collect_forwarded

    rank_rec = adopt_forked_recorder(("rank", rank))
    # The fork copied the parent's serialization counters; zero them so the
    # totals shipped back cover this rank's own traffic only.
    _serial.reset_serialized()
    injector = None
    if fault_plan:
        from ..testkit.faults import FaultInjector

        injector = FaultInjector(fault_plan)
    edge = Edge(rank, inboxes, hostname, deadlock_timeout, injector)
    comm = Intracomm(QueueTransport(edge, rank, tuple(range(size)), 0))
    try:
        value = fn(comm, *args, **kwargs)
        ok = True
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        try:
            # An exception whose constructor rejects its own pickled args
            # would only fail in the parent, while it unpickles the report.
            pickle.loads(pickle.dumps(exc))
            value = exc
        except Exception:
            value = _RemoteRankError(f"{type(exc).__name__}: {exc}")
        ok = False
    try:
        edge.finalize()
    except Exception:
        pass
    forwarded = collect_forwarded(rank_rec)
    totals = _serial.serialized_totals()
    try:
        report.send((ok, value, forwarded, totals))
    except Exception as exc:  # unpicklable rank result
        report.send(
            (False, _RemoteRankError(f"unpicklable result: {exc}"), forwarded, totals)
        )


#: Once a rank has failed, how long the survivors get to act on the abort
#: envelope before the launcher terminates them.
_ABORT_GRACE_S = 2.0


def _armed_fault_plan() -> Any:
    """The fault plan armed in this process, if any.

    A plan can only be armed once ``repro.testkit.faults`` is loaded, so
    it is read through ``sys.modules`` — launching never imports it.
    """
    faults = sys.modules.get("repro.testkit.faults")
    return faults.active_fault_plan() if faults is not None else None


def run_procs(
    fn: Callable[..., Any],
    np: int,
    *args: Any,
    hostname: str = "d6ff4f902ed6",
    deadlock_timeout: float | None = DEFAULT_DEADLOCK_TIMEOUT,
    **kwargs: Any,
) -> list[Any]:
    """Run ``fn(comm, *args)`` SPMD on ``np`` forked processes.

    The drop-in process-backed sibling of :func:`repro.mpi.mpirun`: same
    call shape, same per-rank return list, but each rank owns an OS
    process (and a core, when the host has them).  Raises
    :class:`DeadlockError` when ranks stop making progress and
    :class:`RankFailedError` when a rank raises or its process dies.

    The first failure — a rank reporting an exception, or exiting without
    a report — puts an ``abort`` envelope in every running rank's inbox,
    so survivors blocked in a receive fail at once instead of waiting out
    the deadlock watchdog.  :class:`RankFailedError` names only the ranks
    that failed first, not the survivors the abort took down.
    """
    if np < 1:
        raise ValueError(f"process count must be positive, got {np}")
    if not fork_available():
        raise MPIError(
            "the process-rank launcher needs the 'fork' start method; "
            "this platform lacks it — use backend='threads'"
        )
    ctx = multiprocessing.get_context("fork")
    inboxes = [ctx.Queue() for _ in range(np)]
    reports = [ctx.Pipe(duplex=False) for _ in range(np)]
    fault_plan = _armed_fault_plan()
    procs = [
        ctx.Process(
            target=_rank_main,
            args=(
                rank,
                np,
                fn,
                args,
                kwargs,
                inboxes,
                reports[rank][1],
                hostname,
                deadlock_timeout,
                fault_plan,
            ),
            name=f"mpi-proc-rank-{rank}",
            daemon=True,
        )
        for rank in range(np)
    ]
    from multiprocessing.connection import wait

    from ..obs.recorder import active as _obs_active
    from ..obs.recorder import ingest_forwarded as _obs_ingest

    launch_ts = time.monotonic()
    for p in procs:
        p.start()

    # Drain reports *before* joining: a child sending a large result into
    # a full pipe would otherwise deadlock against a parent stuck in join().
    results: list[Any] = [None] * np
    failures: dict[int, BaseException] = {}
    budget = (deadlock_timeout or 30.0) * 4
    deadline = time.monotonic() + budget
    pending = set(range(np))
    try:
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                if failures:  # survivors ignored the abort: terminated below
                    break
                raise DeadlockError(
                    f"ranks {sorted(pending)} did not finish within {budget}s"
                )
            watched = {reports[r][0]: r for r in pending}
            watched.update({procs[r].sentinel: r for r in pending})
            for rank in {watched[obj] for obj in wait(list(watched), remaining)}:
                reader = reports[rank][0]
                report = reader.recv() if reader.poll() else None
                pending.discard(rank)
                if report is None:  # the process ended without a report
                    procs[rank].join()
                    failures[rank] = _RemoteRankError(
                        f"rank process exited with code {procs[rank].exitcode}"
                    )
                else:
                    ok, payload, forwarded, serialized = report
                    _serial.merge_serialized(serialized)
                    if forwarded is not None and _obs_active() is not None:
                        _obs_ingest(forwarded, launch_ts)
                    if ok:
                        results[rank] = payload
                        continue
                    failures[rank] = payload
                if len(failures) == 1:
                    deadline = min(deadline, time.monotonic() + _ABORT_GRACE_S)
                    for r in pending:
                        inboxes[r].put((_ABORT, rank))
    finally:
        for r in pending:  # never reported: out of time, or the launch was interrupted
            procs[r].terminate()
        for p in procs:
            p.join(timeout=2.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=2.0)
        for reader, writer in reports:
            reader.close()
            writer.close()
        for q in inboxes:
            q.cancel_join_thread()
            q.close()

    if failures:
        primary = {
            r: e for r, e in failures.items() if not isinstance(e, WorldAbortedError)
        } or failures
        if all(isinstance(e, DeadlockError) for e in primary.values()):
            raise next(iter(primary.values()))
        raise RankFailedError(primary)
    return results
