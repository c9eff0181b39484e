"""Process-rank launcher: real OS processes behind the ``comm`` API.

The thread-per-rank :class:`~repro.mpi.runtime.World` gives the teaching
runtime faithful MPI *semantics* (matching, collectives, deadlock
detection) but no *parallelism* — every rank shares one GIL.  This module
launches ranks as forked OS processes with pipe-based message transport,
so the distributed exemplars measure real multicore speedup while keeping
the SPMD ``fn(comm)`` call shape unchanged.

Scope: :class:`ProcComm` implements the communicator surface the
patternlets and exemplars actually exercise — rank/size introspection,
tagged ``send``/``recv``/``sendrecv`` with ``ANY_SOURCE``/``ANY_TAG`` and
:class:`~repro.mpi.status.Status`, the object collectives (``barrier``,
``bcast``, ``scatter``, ``gather``, ``allgather``, ``reduce``,
``allreduce``), the typed-buffer verbs (``Send``/``Recv``/``Sendrecv``
and ``Bcast``/``Scatter``/``Gather``/``Allgather``/``Reduce``/
``Allreduce``), and 1-D-and-beyond Cartesian topologies (``Create_cart``,
``Shift`` with ``PROC_NULL`` edges).  The full API (vector collectives,
requests, windows, files, splitting) remains on the threaded backend;
select per launch with ``mpirun(..., backend=...)`` or
``REPRO_MPI_BACKEND``.

Transport: one multiprocessing queue (a locked pipe) per rank serves as
its inbox.  Object envelopes carry payloads pre-pickled by the sending
rank (through :func:`repro.mpi.serial.counted_dumps`, so serialization is
accounted), and receive-side :class:`Status` reports exact byte counts.
Typed buffers never touch pickle: their envelopes carry a
:class:`~repro.mpi.message.BufferHandle` — raw bytes inline below
:func:`repro.mpi.shm.shm_threshold`, a shared-memory segment reference
above it.  Large point-to-point edges reuse an acknowledged per-``(src,
dst)`` segment (:class:`repro.mpi.shm.SendSlot`) that the receiver
re-attaches through a bounded :class:`repro.mpi.shm.SegmentCache`;
root-fanout collectives share one segment across all destinations and the
root unlinks it once every receiver has acknowledged its copy-out.
Collective traffic rides the same pipes under a per-rank sequence
number — ranks execute collectives in program order, so the sequence
aligns without a separate channel.

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

from . import algorithms as _algos
from . import collectives as _coll_algos
from ..obs.hooks import mpi as _hooks
from . import serial as _serial
from . import shm as _shm
from .buffers import BufferSpec, parse_buffer
from .comm import _PHASE_SPAN
from .constants import ANY_SOURCE, ANY_TAG, DEFAULT_DEADLOCK_TIMEOUT, PROC_NULL
from .errors import (
    DeadlockError,
    InvalidCountError,
    InvalidRankError,
    InvalidTagError,
    MPIError,
    RankFailedError,
    TruncationError,
    WorldAbortedError,
)
from .message import BufferHandle
from .ops import SUM, Op
from .status import Status

__all__ = ["ProcComm", "ProcCartcomm", "run_procs", "fork_available"]

#: Default per-edge coalescing threshold (bytes); REPRO_MPI_BATCH_BYTES
#: overrides, 0 disables.
DEFAULT_BATCH_BYTES = 1024
#: A pending batch is flushed once it holds this many envelopes ...
_BATCH_MAX_MSGS = 16
#: ... or this many payload bytes, whichever comes first.
_BATCH_FLUSH_BYTES = 8192


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


class ProcComm:
    """COMM_WORLD view of one process rank (see module docstring for scope)."""

    #: Context id for hook events: process ranks only expose COMM_WORLD, and
    #: 0 never collides with threaded-world cids (their counter starts at 1).
    _obs_cid = 0

    def __init__(
        self,
        rank: int,
        size: int,
        inboxes: Sequence[Any],
        hostname: str,
        deadlock_timeout: float | None,
    ) -> None:
        self._rank = rank
        self._size = size
        self._inboxes = inboxes
        self._hostname = hostname
        self._timeout = deadlock_timeout
        #: Buffered envelopes: (source, tag/seq, payload) where payload is
        #: pickled bytes (object verbs) or a BufferHandle (buffer verbs).
        self._p2p: list[tuple[int, int, Any]] = []
        self._coll: list[tuple[int, int, Any]] = []
        self._coll_seq = 0
        #: Fault injector (``repro.testkit``); armed by ``_rank_main`` when
        #: the launching parent had a plan armed.
        self._injector = None
        #: Per-destination coalescing buffers for small envelopes.
        self._batch_limit = _batch_limit()
        self._batch: dict[int, list[tuple[str, int, Any]]] = {}
        self._batch_bytes: dict[int, int] = {}
        #: Zero-copy transport state: reused send segment per destination,
        #: received-but-unclaimed copy-out acknowledgments by segment name,
        #: and the attach-side segment cache.
        self._send_slots: dict[int, _shm.SendSlot] = {}
        self._acks: dict[str, int] = {}
        self._cache = _shm.SegmentCache()

    def _fault_op(self) -> None:
        if self._injector is not None:
            self._injector.on_op(self._rank)

    # -- introspection ------------------------------------------------------
    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self._size

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    def Get_processor_name(self) -> str:
        return self._hostname

    def Get_topology(self) -> str | None:
        return None

    # -- transport ----------------------------------------------------------
    def _check_peer(self, peer: int, *, wildcard: bool, what: str) -> None:
        if peer == PROC_NULL:
            return
        if wildcard and peer == ANY_SOURCE:
            return
        if not 0 <= peer < self._size:
            raise InvalidRankError(peer, self._size, what)

    def _file(self, kind: str, src: int, key: int, payload: Any) -> None:
        """Sort one received envelope into the matching buffer.

        An ``abort`` envelope comes from the launcher once another rank
        has failed (payload: that rank); this rank then fails as well.
        """
        if kind == "p2p":
            self._p2p.append((src, key, payload))
        elif kind == "coll":
            self._coll.append((src, key, payload))
        elif kind == "ack":
            self._acks[payload] = self._acks.get(payload, 0) + 1
        elif kind == "abort":
            raise WorldAbortedError(origin=payload)
        else:  # a coalesced batch: payload is [(kind, key, payload), ...]
            for inner_kind, inner_key, inner_payload in payload:
                self._file(inner_kind, src, inner_key, inner_payload)

    def _pump_once(self, timeout: float | None) -> bool:
        """Receive and file one envelope; False on timeout (never raises)."""
        try:
            kind, src, key, payload = self._inboxes[self._rank].get(timeout=timeout)
        except _queue_mod.Empty:
            return False
        self._file(kind, src, key, payload)
        return True

    def _pump(self) -> None:
        """Block for one envelope, filing it into the right buffer.

        Flushes this rank's pending batches first: we are about to block,
        and a peer may need one of the held envelopes to make progress.
        """
        self._flush_all()
        if not self._pump_once(self._timeout):
            raise DeadlockError(
                f"rank {self._rank} made no progress for "
                f"{self._timeout}s (blocked in a receive no sender "
                "matches — classic send/recv ordering deadlock?)"
            )

    @staticmethod
    def _payload_nbytes(payload: Any) -> int:
        if isinstance(payload, BufferHandle):
            return _shm.payload_nbytes(payload)
        return len(payload)

    def _post_obj(self, dest: int, kind: str, key: int, obj: Any) -> None:
        """Post a pickled-object envelope (the lowercase-verb path)."""
        blob = _serial.counted_dumps(obj)
        self._post_raw(dest, kind, key, blob, len(blob))

    def _post_raw(
        self, dest: int, kind: str, key: int, payload: Any, nbytes: int
    ) -> None:
        """Post one envelope, batching small ones per destination edge."""
        if _hooks.enabled:
            if kind == "p2p":
                _hooks.emit("send", 0, self._rank, dest, key, nbytes)
            else:
                _hooks.emit("coll_msg", 0, self._rank, dest, nbytes)
        envelope = (kind, self._rank, key, payload)
        if self._injector is not None:
            # Fault rules count per-edge message ordinals; coalescing would
            # renumber them, so injected runs always post eagerly.
            self._injector.dispositions(
                self._rank, dest, lambda: self._inboxes[dest].put(envelope)
            )
            return
        if self._batch_limit and nbytes <= self._batch_limit and dest != self._rank:
            pending = self._batch.setdefault(dest, [])
            pending.append((kind, key, payload))
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
        if len(pending) == 1:
            kind, key, payload = pending[0]
            self._inboxes[dest].put((kind, self._rank, key, payload))
        else:
            self._inboxes[dest].put(("batch", self._rank, 0, pending))

    def _flush_all(self) -> None:
        for dest, pending in self._batch.items():
            if pending:
                self._flush_dest(dest)

    def _post_ack(self, dest: int, name: str) -> None:
        """Acknowledge a copy-out so the sender may reuse segment ``name``.

        Acks are transport-internal: never batched, never fault-injected,
        invisible to the hook seam.
        """
        self._inboxes[dest].put(("ack", self._rank, 0, name))

    def _await_acks(self, name: str, n: int = 1) -> None:
        while self._acks.get(name, 0) < n:
            self._pump()
        del self._acks[name]

    def _ship_edge(self, values: np.ndarray, dest: int) -> BufferHandle:
        """Package a typed payload for ``dest``, reusing the edge's slot."""
        if self._injector is not None:
            # A dropped descriptor would leak its segment and a duplicated
            # single-use one would be fetched twice, so injected runs ship
            # every buffer inline — fault semantics stay message-shaped.
            return _shm.ship(values, threshold=1 << 62)
        if values.nbytes < _shm.shm_threshold():
            return _shm.ship(values)
        slot = self._send_slots.setdefault(dest, _shm.SendSlot())
        if slot.awaiting_ack and slot.segment is not None:
            self._await_acks(slot.segment.name)
            slot.awaiting_ack = False
        return _shm.ship(values, slot=slot)

    def _fill_spec(self, spec: BufferSpec, values: np.ndarray) -> None:
        if values.size > len(spec.array):
            raise TruncationError(
                f"message of {values.size} elements truncated to receive "
                f"buffer of {len(spec.array)}"
            )
        spec.fill(values.astype(spec.datatype.np_dtype, copy=False))

    # -- point-to-point ------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if tag < 0:
            raise InvalidTagError(tag)
        self._check_peer(dest, wildcard=False, what="destination")
        if dest == PROC_NULL:
            return
        self._fault_op()
        self._post_obj(dest, "p2p", tag, obj)

    def recv(
        self,
        buf: Any = None,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Status | None = None,
    ) -> Any:
        self._check_peer(source, wildcard=True, what="source")
        if source == PROC_NULL:
            if status is not None:
                status._set(PROC_NULL, ANY_TAG, 0)
            return None
        self._fault_op()
        if _hooks.enabled:
            _hooks.emit("recv_enter", 0, self._rank, source, tag)
        while True:
            for idx, (src, tg, payload) in enumerate(self._p2p):
                if (source == ANY_SOURCE or src == source) and (
                    tag == ANY_TAG or tg == tag
                ):
                    if isinstance(payload, BufferHandle):
                        raise TypeError(
                            "object receive matched a typed-buffer message; "
                            "pair uppercase sends with uppercase receives"
                        )
                    del self._p2p[idx]
                    nbytes = len(payload)
                    if _hooks.enabled:
                        _hooks.emit("recv_exit", 0, self._rank, src, tg, nbytes)
                    if status is not None:
                        status._set(src, tg, nbytes)
                    return pickle.loads(payload)
            self._pump()

    def sendrecv(
        self,
        sendobj: Any,
        dest: int,
        sendtag: int = 0,
        recvbuf: Any = None,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
        status: Status | None = None,
    ) -> Any:
        # Pipe transport buffers the outgoing message, so send-then-recv
        # cannot self-deadlock for teaching-scale payloads.
        self.send(sendobj, dest, sendtag)
        return self.recv(recvbuf, source=source, tag=recvtag, status=status)

    # -- point-to-point (buffer) ---------------------------------------------
    def Send(self, buf: Any, dest: int, tag: int = 0) -> None:
        """Blocking typed-buffer send over the zero-copy transport.

        Payloads above :func:`repro.mpi.shm.shm_threshold` travel through a
        reused per-edge shared-memory segment; the second large ``Send`` on
        an edge waits for the receiver's copy-out ack before overwriting it
        (rendezvous semantics, as real MPI large sends have).
        """
        if tag < 0:
            raise InvalidTagError(tag)
        self._check_peer(dest, wildcard=False, what="destination")
        if dest == PROC_NULL:
            return
        self._fault_op()
        spec = parse_buffer(buf)
        handle = self._ship_edge(spec.array[: spec.count], dest)
        self._post_raw(dest, "p2p", tag, handle, spec.nbytes)

    def Recv(
        self,
        buf: Any,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Status | None = None,
    ) -> None:
        """Blocking typed-buffer receive into caller-provided storage."""
        self._check_peer(source, wildcard=True, what="source")
        spec = parse_buffer(buf)
        if source == PROC_NULL:
            if status is not None:
                status._set(PROC_NULL, ANY_TAG, 0)
            return
        self._fault_op()
        if _hooks.enabled:
            _hooks.emit("recv_enter", 0, self._rank, source, tag)
        while True:
            for idx, (src, tg, payload) in enumerate(self._p2p):
                if (source == ANY_SOURCE or src == source) and (
                    tag == ANY_TAG or tg == tag
                ):
                    if not isinstance(payload, BufferHandle):
                        raise TypeError(
                            "buffer receive matched an object-mode message; "
                            "pair lowercase sends with lowercase receives"
                        )
                    del self._p2p[idx]
                    nbytes = _shm.payload_nbytes(payload)
                    if _hooks.enabled:
                        _hooks.emit("recv_exit", 0, self._rank, src, tg, nbytes)
                    values, ack = _shm.fetch(payload, self._cache)
                    if ack is not None:
                        self._post_ack(src, ack)
                    self._fill_spec(spec, values)
                    if status is not None:
                        status._set(src, tg, nbytes)
                    return
            self._pump()

    def Sendrecv(
        self,
        sendbuf: Any,
        dest: int,
        sendtag: int = 0,
        recvbuf: Any = None,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
        status: Status | None = None,
    ) -> None:
        self.Send(sendbuf, dest, sendtag)
        self.Recv(recvbuf, source=source, tag=recvtag, status=status)

    # -- collectives ---------------------------------------------------------
    def _next_seq(self) -> int:
        self._fault_op()
        self._coll_seq += 1
        return self._coll_seq

    def _pick(
        self,
        collective: str,
        *,
        nbytes: int = 0,
        commute: bool = True,
        chunked: bool = False,
        requested: str | None = None,
    ) -> str:
        """Resolve the collective algorithm and record the pick (see
        :meth:`repro.mpi.comm.Intracomm._pick` for the rank-consistency
        rules; the same contract applies here)."""
        algo = _algos.resolve(
            collective,
            size=self._size,
            nbytes=nbytes,
            commute=commute,
            chunked=chunked,
            requested=requested,
        )
        if _hooks.enabled:
            _hooks.emit("coll_algo", self._obs_cid, self._rank, collective, algo)
        return algo

    def _transports(self, seq: int):
        """Raw (bytes) transport callbacks for one collective call.

        Keys are ``seq * _PHASE_SPAN + phase`` — the same internal tag
        scheme as the threaded backend — so multi-phase algorithms never
        cross-match and bare-seq keys from other collectives can't collide.
        """

        def send(dest: int, phase: int, payload: Any) -> None:
            self._post_raw(
                dest,
                "coll",
                seq * _PHASE_SPAN + phase,
                payload,
                self._payload_nbytes(payload),
            )

        def recv(source: int, phase: int) -> Any:
            payload = self._coll_recv_raw(seq * _PHASE_SPAN + phase, source)
            if isinstance(payload, BufferHandle):
                raise TypeError(
                    "object collective matched a typed-buffer collective; "
                    "call the same verb case on every rank"
                )
            return payload

        return send, recv

    def _obj_transports(self, seq: int):
        """Pickling transport: every delivery is a private deep copy."""
        send_raw, recv_raw = self._transports(seq)

        def send(dest: int, phase: int, payload: Any) -> None:
            send_raw(dest, phase, _serial.counted_dumps(payload))

        def recv(source: int, phase: int) -> Any:
            return pickle.loads(recv_raw(source, phase))

        return send, recv

    def _buf_transports(self, seq: int):
        """Typed-array transport over shared-memory handles (never pickles)."""

        def send(dest: int, phase: int, values: Any) -> None:
            values = np.ascontiguousarray(values)
            handle = self._ship_edge(values, dest)
            self._post_raw(
                dest, "coll", seq * _PHASE_SPAN + phase, handle, values.nbytes
            )

        def recv(source: int, phase: int) -> np.ndarray:
            return self._coll_recv_buf(seq * _PHASE_SPAN + phase, source)

        return send, recv

    def _coll_recv_raw(self, seq: int, source: int) -> Any:
        while True:
            for idx, (src, sq, payload) in enumerate(self._coll):
                if src == source and sq == seq:
                    del self._coll[idx]
                    return payload
            self._pump()

    def _coll_recv_buf(self, seq: int, source: int) -> np.ndarray:
        payload = self._coll_recv_raw(seq, source)
        if not isinstance(payload, BufferHandle):
            raise TypeError(
                "buffer collective matched an object-mode collective; call "
                "the same verb case on every rank"
            )
        values, ack = _shm.fetch(payload, self._cache)
        if ack is not None:
            self._post_ack(source, ack)
        return values

    def _coll_fanout(
        self,
        seq: int,
        values: np.ndarray,
        pieces: Sequence[tuple[int, int, int]],
    ) -> None:
        """Ship slices of one array to many ranks under one collective seq.

        ``pieces`` is ``(dest, start, stop)`` element ranges into
        ``values``.  Large payloads share a single segment — the per-dest
        handles differ only in offset — and this root collects one ack per
        destination before unlinking it, which makes the fanout
        synchronizing (every receiver has copied out when it returns).
        """
        if not pieces:
            return
        itemsize = values.dtype.itemsize
        dtype = values.dtype.str
        largest = max(stop - start for _, start, stop in pieces) * itemsize
        if self._injector is None and largest >= _shm.shm_threshold():
            seg = _shm.create_segment(values.nbytes)
            np.ndarray((values.size,), dtype=values.dtype, buffer=seg.buf)[:] = values
            for dest, start, stop in pieces:
                handle = BufferHandle(
                    seg.name,
                    (stop - start,),
                    dtype,
                    offset=start * itemsize,
                    mode=_shm.ACKED,
                )
                self._post_raw(
                    dest, "coll", seq, handle, (stop - start) * itemsize
                )
            self._await_acks(seg.name, len(pieces))
            _shm.unlink_segment(seg)
            return
        for dest, start, stop in pieces:
            piece = values[start:stop]
            handle = BufferHandle(None, (piece.size,), dtype, data=piece.tobytes())
            self._post_raw(dest, "coll", seq, handle, piece.nbytes)

    @_coll_algos.traced_collective
    def barrier(self) -> None:
        self._pick("barrier")
        seq = self._next_seq()
        send, recv = self._transports(seq)
        _coll_algos.barrier_dissemination(self._rank, self._size, send, recv)

    Barrier = barrier

    @_coll_algos.traced_collective
    def bcast(self, obj: Any, root: int = 0, *, algorithm: str | None = None) -> Any:
        self._check_peer(root, wildcard=False, what="root")
        algo = self._pick("bcast", requested=algorithm)
        seq = self._next_seq()
        send, recv = self._transports(seq)
        payload = _serial.counted_dumps(obj) if self._rank == root else None
        result = _algos.run_bcast(
            algo, self._rank, self._size, root, payload, send, recv,
            split=_coll_algos.split_bytes, concat=b"".join,
        )
        return obj if self._rank == root else pickle.loads(result)

    @_coll_algos.traced_collective
    def scatter(self, sendobj: Sequence[Any] | None, root: int = 0) -> Any:
        self._check_peer(root, wildcard=False, what="root")
        seq = self._next_seq()
        send, recv = self._obj_transports(seq)
        chunks = None
        if self._rank == root:
            chunks = list(sendobj)  # type: ignore[arg-type]
            if len(chunks) != self._size:
                raise ValueError(
                    f"scatter needs exactly {self._size} items, got {len(chunks)}"
                )
        return _coll_algos.scatter_linear(
            self._rank, self._size, root, chunks, send, recv
        )

    @_coll_algos.traced_collective
    def gather(self, sendobj: Any, root: int = 0) -> list[Any] | None:
        self._check_peer(root, wildcard=False, what="root")
        seq = self._next_seq()
        send, recv = self._obj_transports(seq)
        return _coll_algos.gather_linear(
            self._rank, self._size, root, sendobj, send, recv
        )

    @_coll_algos.traced_collective
    def allgather(self, sendobj: Any, *, algorithm: str | None = None) -> list[Any]:
        algo = self._pick("allgather", requested=algorithm)
        seq = self._next_seq()
        send, recv = self._obj_transports(seq)
        return _algos.run_allgather(algo, self._rank, self._size, sendobj, send, recv)

    @_coll_algos.traced_collective
    def reduce(
        self,
        sendobj: Any,
        op: Op = SUM,
        root: int = 0,
        *,
        algorithm: str | None = None,
    ) -> Any:
        self._check_peer(root, wildcard=False, what="root")
        algo = self._pick("reduce", commute=op.commute, requested=algorithm)
        seq = self._next_seq()
        send, recv = self._obj_transports(seq)
        return _algos.run_reduce(
            algo, self._rank, self._size, root, sendobj, op, send, recv
        )

    @_coll_algos.traced_collective
    def allreduce(
        self, sendobj: Any, op: Op = SUM, *, algorithm: str | None = None
    ) -> Any:
        algo = self._pick("allreduce", commute=op.commute, requested=algorithm)
        seq = self._next_seq()
        send, recv = self._obj_transports(seq)
        return _algos.run_allreduce(
            algo, self._rank, self._size, sendobj, op, send, recv
        )

    # -- collectives (buffer) ------------------------------------------------
    @staticmethod
    def _array_split(values: Any, n: int) -> list[np.ndarray]:
        return list(np.array_split(values, n))

    @_coll_algos.traced_collective
    def Bcast(self, buf: Any, root: int = 0, *, algorithm: str | None = None) -> None:
        """Broadcast a typed buffer in place.

        The ``linear`` algorithm keeps the one-segment root fanout (every
        destination handle points into a single shared segment); the tree
        and scatter-allgather algorithms route through the generic
        per-edge buffer transport.
        """
        self._check_peer(root, wildcard=False, what="root")
        spec = parse_buffer(buf)
        algo = self._pick(
            "bcast",
            nbytes=spec.count * spec.array.dtype.itemsize,
            requested=algorithm,
        )
        seq = self._next_seq()
        if algo == "linear":
            if self._rank == root:
                values = spec.array[: spec.count]
                count = spec.count
                pieces = [(r, 0, count) for r in range(self._size) if r != root]
                self._coll_fanout(seq * _PHASE_SPAN, values, pieces)
                return
            self._fill_spec(spec, self._coll_recv_buf(seq * _PHASE_SPAN, root))
            return
        send, recv = self._buf_transports(seq)
        payload = spec.array[: spec.count] if self._rank == root else None
        values = _algos.run_bcast(
            algo, self._rank, self._size, root, payload, send, recv,
            split=self._array_split, concat=np.concatenate,
        )
        if self._rank != root:
            self._fill_spec(spec, np.asarray(values))

    @_coll_algos.traced_collective
    def Scatter(self, sendbuf: Any, recvbuf: Any, root: int = 0) -> None:
        """Scatter equal contiguous chunks of ``sendbuf`` from root."""
        self._check_peer(root, wildcard=False, what="root")
        rspec = parse_buffer(recvbuf)
        seq = self._next_seq()
        if self._rank == root:
            sspec = parse_buffer(sendbuf)
            if sspec.count % self._size:
                raise InvalidCountError(
                    f"Scatter: send count {sspec.count} not divisible by "
                    f"size {self._size}"
                )
            n = sspec.count // self._size
            values = sspec.array[: sspec.count]
            pieces = [
                (r, r * n, (r + 1) * n) for r in range(self._size) if r != root
            ]
            self._coll_fanout(seq * _PHASE_SPAN, values, pieces)
            self._fill_spec(rspec, values[root * n : (root + 1) * n].copy())
            return
        self._fill_spec(rspec, self._coll_recv_buf(seq * _PHASE_SPAN, root))

    @_coll_algos.traced_collective
    def Gather(self, sendbuf: Any, recvbuf: Any, root: int = 0) -> None:
        """Gather equal chunks into root's buffer, ordered by rank."""
        self._check_peer(root, wildcard=False, what="root")
        sspec = parse_buffer(sendbuf)
        seq = self._next_seq()
        send, recv = self._buf_transports(seq)
        values = sspec.array[: sspec.count]
        parts = _coll_algos.gather_linear(
            self._rank, self._size, root, values, send, recv
        )
        if self._rank == root:
            self._place_parts(parse_buffer(recvbuf), parts)

    @_coll_algos.traced_collective
    def Allgather(
        self, sendbuf: Any, recvbuf: Any, *, algorithm: str | None = None
    ) -> None:
        """All ranks gather everyone's chunk into their own buffer."""
        sspec = parse_buffer(sendbuf)
        algo = self._pick(
            "allgather",
            nbytes=sspec.count * sspec.array.dtype.itemsize,
            requested=algorithm,
        )
        seq = self._next_seq()
        send, recv = self._buf_transports(seq)
        parts = _algos.run_allgather(
            algo, self._rank, self._size, sspec.array[: sspec.count], send, recv,
            concat=np.concatenate,
        )
        rspec = parse_buffer(recvbuf)
        if isinstance(parts, list):
            self._place_parts(rspec, parts)
        else:
            self._fill_spec(rspec, np.asarray(parts))

    @_coll_algos.traced_collective
    def Reduce(
        self,
        sendbuf: Any,
        recvbuf: Any,
        op: Op = SUM,
        root: int = 0,
        *,
        algorithm: str | None = None,
    ) -> None:
        """Elementwise typed reduction to root (combined in rank order)."""
        self._check_peer(root, wildcard=False, what="root")
        sspec = parse_buffer(sendbuf)
        algo = self._pick(
            "reduce",
            nbytes=sspec.count * sspec.array.dtype.itemsize,
            commute=op.commute,
            requested=algorithm,
        )
        seq = self._next_seq()
        send, recv = self._buf_transports(seq)
        result = _algos.run_reduce(
            algo, self._rank, self._size, root,
            sspec.array[: sspec.count], op, send, recv,
        )
        if self._rank == root:
            self._fill_spec(parse_buffer(recvbuf), np.asarray(result))

    @_coll_algos.traced_collective
    def Allreduce(
        self,
        sendbuf: Any,
        recvbuf: Any,
        op: Op = SUM,
        *,
        algorithm: str | None = None,
    ) -> None:
        """Elementwise typed reduction delivered to every rank."""
        sspec = parse_buffer(sendbuf)
        chunkable = op.commute and op.elementwise and self._size > 1
        algo = self._pick(
            "allreduce",
            nbytes=sspec.count * sspec.array.dtype.itemsize,
            commute=op.commute,
            chunked=chunkable,
            requested=algorithm,
        )
        seq = self._next_seq()
        send, recv = self._buf_transports(seq)
        result = _algos.run_allreduce(
            algo, self._rank, self._size, sspec.array[: sspec.count], op,
            send, recv,
            split=self._array_split if chunkable else None,
            concat=np.concatenate if chunkable else None,
        )
        self._fill_spec(parse_buffer(recvbuf), np.asarray(result))

    def _place_parts(self, rspec: BufferSpec, parts: Sequence[np.ndarray]) -> None:
        offset = 0
        for src, part in enumerate(parts):
            arr = np.asarray(part)
            if offset + arr.size > len(rspec.array):
                raise TruncationError(
                    f"gathered data exceeds the receive buffer capacity: rank "
                    f"{src}'s part of {arr.size} elements at offset {offset} "
                    f"overflows the {len(rspec.array)}-element buffer"
                )
            rspec.array[offset : offset + arr.size] = arr.astype(
                rspec.datatype.np_dtype, copy=False
            )
            offset += arr.size

    def _finalize(self) -> None:
        """Flush and tear down transport state at rank-body end.

        Outstanding copy-out acks are collected (bounded wait: the ack
        follows the receiver's copy, so in a matched program it is already
        in flight) and then reused segments are unlinked.  A slot whose
        ack never arrives — an orphaned send, which is an erroneous MPI
        program — is closed without unlinking rather than yanked from
        under a late receiver.
        """
        self._flush_all()
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
        self._cache.close()

    # -- topology -----------------------------------------------------------
    def Create_cart(
        self,
        dims: Sequence[int],
        periods: Sequence[bool] | None = None,
        reorder: bool = False,
    ) -> "ProcCartcomm":
        dims = tuple(int(d) for d in dims)
        total = 1
        for d in dims:
            total *= d
        if total != self._size:
            raise ValueError(
                f"cartesian grid {dims} needs {total} ranks, world has {self._size}"
            )
        per = tuple(bool(p) for p in (periods or (False,) * len(dims)))
        if len(per) != len(dims):
            raise ValueError("periods must align with dims")
        return ProcCartcomm(self, dims, per)


class ProcCartcomm:
    """Cartesian view over a :class:`ProcComm` (row-major rank layout)."""

    def __init__(
        self, base: ProcComm, dims: tuple[int, ...], periods: tuple[bool, ...]
    ) -> None:
        self._base = base
        self.dims = dims
        self.periods = periods

    def __getattr__(self, name: str) -> Any:
        return getattr(self._base, name)

    def Get_topology(self) -> str:
        return "cart"

    def Get_coords(self, rank: int) -> list[int]:
        coords = []
        for extent in reversed(self.dims):
            coords.append(rank % extent)
            rank //= extent
        return list(reversed(coords))

    def Get_cart_rank(self, coords: Sequence[int]) -> int:
        rank = 0
        for coord, extent in zip(coords, self.dims):
            rank = rank * extent + (coord % extent)
        return rank

    def Shift(self, direction: int, disp: int = 1) -> tuple[int, int]:
        """(source, dest) for a shift along ``direction`` by ``disp``."""
        if not 0 <= direction < len(self.dims):
            raise ValueError(f"invalid direction {direction} for dims {self.dims}")
        me = self.Get_coords(self._base.rank)

        def neighbor(offset: int) -> int:
            coords = list(me)
            coords[direction] += offset
            extent = self.dims[direction]
            if not self.periods[direction] and not 0 <= coords[direction] < extent:
                return PROC_NULL
            return self.Get_cart_rank(coords)

        return neighbor(-disp), neighbor(disp)


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
    comm = ProcComm(rank, size, inboxes, hostname, deadlock_timeout)
    if fault_plan:
        from ..testkit.faults import FaultInjector

        comm._injector = FaultInjector(fault_plan)
    try:
        value = fn(comm, *args, **kwargs)
        ok = True
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        try:
            pickle.dumps(exc)
            value = exc
        except Exception:
            value = _RemoteRankError(f"{type(exc).__name__}: {exc}")
        ok = False
    try:
        comm._finalize()
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
                        inboxes[r].put(("abort", -1, 0, rank))
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
