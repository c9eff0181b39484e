"""The intracommunicator: mpi4py's ``Comm`` API surface, from scratch.

Every verb is written once, here, over a small per-rank *transport*: the
endpoint one rank holds on one communicator (see :class:`Transport`).  It
has two implementations:

* :class:`repro.mpi.message.MailboxTransport` — the thread world's
  mailboxes, one address space (the teaching runtime, like Colab);
* :class:`repro.mpi.procs.QueueTransport` — forked ranks' inbox queues,
  typed payloads in shared memory (real processes, like a cluster).

Argument checks, fault-plan operation counts, hook events, collective
sequencing, algorithm picks and buffer placement therefore behave the same
on both.  The lowercase verbs move pickled Python objects (value
semantics); the uppercase verbs move typed NumPy buffers, as the mpi4py
tutorial prescribes.  ``ssend``/``issend`` (a ``threading.Event``
rendezvous), windows and files need one address space and stay on threads.
"""

from __future__ import annotations

import pickle
import threading
from typing import Any, Callable, Protocol, Sequence

import numpy as np

from . import algorithms as _algos
from . import collectives as coll
from ..obs.hooks import mpi as _hooks
from .serial import counted_dumps
from .buffers import BufferSpec, parse_buffer, parse_vector_buffer
from .constants import ANY_SOURCE, ANY_TAG, PROC_NULL, TAG_UB, UNDEFINED
from .errors import (
    CommAlreadyFreedError,
    InvalidCountError,
    InvalidRankError,
    InvalidTagError,
    TruncationError,
    WorldAbortedError,
)
from .group import Group
from .message import COLL, USER, Message, wait_event
from .ops import SUM, Op
from .request import BufferRecvRequest, RecvRequest, Request, SendRequest
from .status import Status

__all__ = ["Intracomm", "Transport"]

#: Phase multiplier for internal collective tags: phases must stay below this.
_PHASE_SPAN = 1024


class Transport(Protocol):
    """One rank's endpoint of one communicator.

    ``ctx`` is :data:`~repro.mpi.message.USER` or
    :data:`~repro.mpi.message.COLL`: each communicator has a user and a
    collective context, so collective traffic never matches a user receive.
    Peers are ranks of the communicator.  A transport that holds envelopes
    back (the process edge batches small ones) flushes them itself before
    it blocks, before a nonblocking match, and when the rank ends.
    """

    rank: int
    size: int
    world_ranks: tuple[int, ...]
    cid: int  # context id: equal on every member, distinct between communicators
    hostname: str
    injector: Any  # the armed ``repro.testkit`` fault injector, or None

    def post(self, ctx: int, dest: int, tag: int, payload: Any, nbytes: int,
             sync: threading.Event | None = None) -> None:
        """Deliver one envelope (``sync`` is set when a receive matches it)."""

    def match(self, ctx: int, source: int, tag: int, block: bool = True,
              remove: bool = True) -> Message | None:
        """The earliest pending envelope matching ``source``/``tag``
        (wildcards allowed): removed unless ``remove`` is false, waited
        for unless ``block`` is false (then ``None`` if there is none)."""

    def pack(self, values: np.ndarray, dest: int) -> Any:
        """A wire payload of the contiguous array ``values`` that later
        writes to the caller's buffer cannot change."""

    def unpack(self, payload: Any, source: int) -> np.ndarray:
        """The values of a packed payload received from ``source``."""

    def derive(self, cid: int, world_ranks: tuple[int, ...], rank: int) -> "Transport":
        """This rank's endpoint of a new communicator over ``world_ranks``."""

    def shared(self, key: Any, factory: Callable[[], Any]) -> Any:
        """One object for every rank calling with ``key`` (one address space)."""

    def check_abort(self) -> None:
        """Raise if the world has been aborted."""

    def abort(self, error: BaseException) -> None:
        """Tear the world down with ``error`` (raises it)."""


def _derived_cid(parent: int, seq: int, index: int) -> int:
    """Context id of the ``index``-th communicator made by collective ``seq``.

    An injective map of ``(parent, seq, index)`` (Cantor pairing, shifted
    past 0), so every member computes the same id without a round trip and
    no two communicators a process belongs to share one.
    """

    def pair(a: int, b: int) -> int:
        return (a + b) * (a + b + 1) // 2 + b

    return pair(pair(parent, seq), index) + 1


class Intracomm:
    """One rank's view of a communicator (the object user code receives)."""

    def __init__(self, tp: Transport, name: str = "MPI_COMM_WORLD") -> None:
        self._tp = tp
        self._rank = tp.rank
        self._size = tp.size
        self._name = name
        self._freed = False
        self._coll_seq = 0

    @property
    def _obs_cid(self) -> int:
        return self._tp.cid

    # ------------------------------------------------------------------ checks
    def _check_alive(self) -> None:
        if self._freed:
            raise CommAlreadyFreedError(f"communicator {self._name} was freed")
        tp = self._tp
        tp.check_abort()
        injector = tp.injector
        if injector is not None:
            # Every verb passes through here, so op counting sees point-to-
            # point and collective calls alike — a crash rule can therefore
            # kill a rank mid-collective, deterministically.
            injector.on_op(tp.world_ranks[self._rank])

    def _check(self, peer: int, tag: int, wildcard: bool, what: str) -> None:
        """One pass over a point-to-point call: live communicator (one
        fault-plan operation), valid peer, valid tag."""
        self._check_alive()
        if peer != PROC_NULL and not (wildcard and peer == ANY_SOURCE):
            if not 0 <= peer < self._size:
                raise InvalidRankError(peer, self._size, what)
        if not (wildcard and tag == ANY_TAG) and not 0 <= tag <= TAG_UB:
            raise InvalidTagError(tag)

    def _check_root(self, root: int) -> None:
        if root != PROC_NULL and not 0 <= root < self._size:
            raise InvalidRankError(root, self._size, "root")

    # --------------------------------------------------------------- transport
    def _post(self, ctx: int, dest: int, tag: int, payload: Any, nbytes: int,
              sync: threading.Event | None = None) -> None:
        """Hand one envelope to the transport, announcing it to the hook
        seam and passing it through an armed fault plan."""
        tp = self._tp
        if _hooks.enabled:
            if ctx == USER:
                _hooks.emit("send", tp.cid, self._rank, dest, tag, nbytes)
            else:
                _hooks.emit("coll_msg", tp.cid, self._rank, dest, nbytes)
        injector = tp.injector
        if injector is None:
            tp.post(ctx, dest, tag, payload, nbytes, sync)
            return
        # Fault rules count per-edge message ordinals between world ranks.
        injector.dispositions(
            tp.world_ranks[self._rank],
            tp.world_ranks[dest],
            lambda: tp.post(ctx, dest, tag, payload, nbytes, sync),
        )

    def _match(self, source: int, tag: int) -> Message:
        """Blocking user-context match bracketed by recv_enter/recv_exit."""
        if not _hooks.enabled:
            return self._tp.match(USER, source, tag)
        cid = self._tp.cid
        _hooks.emit("recv_enter", cid, self._rank, source, tag)
        msg = self._tp.match(USER, source, tag)
        _hooks.emit("recv_exit", cid, self._rank, msg.source, msg.tag, msg.nbytes)
        return msg

    @staticmethod
    def _loads(msg: Message) -> Any:
        if not isinstance(msg.payload, bytes):
            raise TypeError(
                "object receive matched a typed-buffer message; pair "
                "uppercase sends with uppercase receives"
            )
        return pickle.loads(msg.payload)

    def _unpack(self, msg: Message) -> np.ndarray:
        if isinstance(msg.payload, bytes):
            raise TypeError(
                "buffer receive matched an object-mode message; pair lowercase "
                "sends with lowercase receives"
            )
        return self._tp.unpack(msg.payload, msg.source)

    # ------------------------------------------------------------------- inquiry
    def Get_rank(self) -> int:
        """Rank of the calling process in this communicator."""
        return self._rank

    def Get_size(self) -> int:
        """Number of processes in this communicator."""
        return self._size

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    def Get_name(self) -> str:
        return self._name

    def Set_name(self, name: str) -> None:
        self._name = str(name)

    @property
    def name(self) -> str:
        return self._name

    def Get_group(self) -> Group:
        return Group(self._tp.world_ranks)

    def Get_topology(self) -> str | None:
        return None

    def Free(self) -> None:
        """Release the communicator; later operations raise."""
        self._freed = True

    def Abort(self, errorcode: int = 1) -> None:
        """Tear down the whole world (``MPI_Abort``)."""
        self._tp.abort(WorldAbortedError(errorcode, origin=self._rank))

    def Is_intra(self) -> bool:
        return True

    def Is_inter(self) -> bool:
        return False

    # --------------------------------------------------------- point-to-point (obj)
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking standard-mode send of a pickled Python object.

        Standard mode is eager-buffered here, as small-message MPI sends are
        in practice: the call returns once the envelope is posted.  Use
        :meth:`ssend` for a send that blocks until matched.
        """
        self._check(dest, tag, False, "destination")
        if dest == PROC_NULL:
            return
        payload = counted_dumps(obj)
        self._post(USER, dest, tag, payload, len(payload))

    def _post_sync(self, obj: Any, dest: int, tag: int) -> threading.Event | None:
        """Post a synchronous-mode envelope; its event is set when matched."""
        self._check(dest, tag, False, "destination")
        if dest == PROC_NULL:
            return None
        done = threading.Event()
        payload = counted_dumps(obj)
        self._post(USER, dest, tag, payload, len(payload), done)
        return done

    def ssend(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Synchronous send: blocks until the matching receive starts."""
        done = self._post_sync(obj, dest, tag)
        if done is not None:
            wait_event(done, self._tp.world)

    def recv(
        self,
        buf: Any = None,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Status | None = None,
    ) -> Any:
        """Blocking receive; returns the (unpickled) object."""
        self._check(source, tag, True, "source")
        if source == PROC_NULL:
            if status is not None:
                status._set(PROC_NULL, ANY_TAG, 0)
            return None
        msg = self._match(source, tag)
        if status is not None:
            status._set(msg.source, msg.tag, msg.nbytes)
        return self._loads(msg)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send; complete immediately (buffered)."""
        self.send(obj, dest, tag)
        return SendRequest(self)

    def issend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking synchronous send; completes when matched."""
        return SendRequest(self, sync_event=self._post_sync(obj, dest, tag))

    def irecv(self, buf: Any = None, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; ``req.wait()`` returns the object."""
        self._check(source, tag, True, "source")
        return RecvRequest(self, source, tag)

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
        """Combined send+receive, deadlock-free for exchange patterns."""
        self.send(sendobj, dest, sendtag)
        return self.recv(recvbuf, source, recvtag, status)

    def _probe(self, source: int, tag: int, status: Status | None, block: bool) -> bool:
        self._check(source, tag, True, "source")
        msg = self._tp.match(USER, source, tag, block, False)
        if msg is not None and status is not None:
            status._set(msg.source, msg.tag, msg.nbytes)
        return msg is not None

    def probe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, status: Status | None = None
    ) -> bool:
        """Block until a matching message is pending (without receiving it)."""
        return self._probe(source, tag, status, True)

    def iprobe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, status: Status | None = None
    ) -> bool:
        """Nonblocking probe: True if a matching message is pending."""
        return self._probe(source, tag, status, False)

    # ------------------------------------------------------ point-to-point (buffer)
    def Send(self, buf: Any, dest: int, tag: int = 0) -> None:
        """Blocking typed-buffer send (``[data, MPI.TYPE]`` or bare array).

        Between processes, payloads above :func:`repro.mpi.shm.shm_threshold`
        travel through a reused per-edge shared-memory segment; the second
        large ``Send`` on an edge waits for the receiver's copy-out ack
        before overwriting it (rendezvous semantics, as real MPI large
        sends have).
        """
        self._check(dest, tag, False, "destination")
        if dest == PROC_NULL:
            return
        spec = parse_buffer(buf)
        payload = self._tp.pack(spec.array[: spec.count], dest)
        self._post(USER, dest, tag, payload, spec.nbytes)

    def Recv(
        self,
        buf: Any,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Status | None = None,
    ) -> None:
        """Blocking typed-buffer receive into caller-provided storage."""
        self._check(source, tag, True, "source")
        spec = parse_buffer(buf)
        if source == PROC_NULL:
            if status is not None:
                status._set(PROC_NULL, ANY_TAG, 0)
            return
        msg = self._match(source, tag)
        self._fill_array(spec, self._unpack(msg))
        if status is not None:
            status._set(msg.source, msg.tag, msg.nbytes)

    def Isend(self, buf: Any, dest: int, tag: int = 0) -> Request:
        self.Send(buf, dest, tag)
        return SendRequest(self)

    def Irecv(self, buf: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        self._check(source, tag, True, "source")
        return BufferRecvRequest(self, parse_buffer(buf), source, tag)

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
        self.Recv(recvbuf, source, recvtag, status)

    # --------------------------------------------------------- collective transport
    def _transports(self, typed: bool = False) -> tuple[
        Callable[[int, int, Any], None], Callable[[int, int], Any]
    ]:
        """Point-to-point callbacks in the collective context for one call.

        Each collective call consumes one sequence number; all ranks consume
        them in the same order (the standard requires collectives to be
        called in the same order on every rank), so the internal tags
        ``seq * _PHASE_SPAN + phase`` always agree and multi-phase
        algorithms never cross-match.  Raw payloads travel as they are
        (pickled bytes, from the object verbs); ``typed`` payloads are
        arrays, packed per message by the transport, never pickled.
        """
        self._check_alive()
        base = self._coll_seq * _PHASE_SPAN
        self._coll_seq += 1
        tp = self._tp
        post = self._post

        if typed:
            def send(dest: int, phase: int, values: Any) -> None:
                values = np.ascontiguousarray(values)
                post(COLL, dest, base + phase, tp.pack(values, dest), values.nbytes)

            def recv(source: int, phase: int) -> Any:
                return self._unpack(tp.match(COLL, source, base + phase))
        else:
            def send(dest: int, phase: int, payload: Any) -> None:
                post(COLL, dest, base + phase, payload, coll.payload_nbytes(payload))

            def recv(source: int, phase: int) -> Any:
                return tp.match(COLL, source, base + phase).payload

        return send, recv

    def _obj_transports(self):
        """Pickling transport: every delivery is a private deep copy."""
        send_raw, recv_raw = self._transports()

        def send(dest: int, phase: int, payload: Any) -> None:
            send_raw(dest, phase, counted_dumps(payload))

        def recv(source: int, phase: int) -> Any:
            return pickle.loads(recv_raw(source, phase))

        return send, recv

    def _pick(
        self,
        collective: str,
        *,
        nbytes: int = 0,
        commute: bool = True,
        chunked: bool = False,
        requested: str | None = None,
    ) -> str:
        """Resolve the algorithm for one collective and record the choice.

        Every rank must arrive at the same answer or the internal tags
        mismatch, so the lowercase (object) verbs always resolve with
        ``nbytes=0`` — pickled sizes can differ across ranks.  The buffer
        verbs pass the typed byte count, which MPI semantics guarantee is
        identical everywhere.
        """
        algo = _algos.resolve(
            collective,
            size=self._size,
            nbytes=nbytes,
            commute=commute,
            chunked=chunked,
            requested=requested,
        )
        if _hooks.enabled:
            _hooks.emit("coll_algo", self._tp.cid, self._rank, collective, algo)
        return algo

    # ----------------------------------------------------------- collectives (obj)
    @coll.traced_collective
    def barrier(self) -> None:
        """Block until every rank of the communicator has arrived."""
        self._pick("barrier")
        send, recv = self._transports()
        coll.barrier_dissemination(self._rank, self._size, send, recv)

    Barrier = barrier

    @coll.traced_collective
    def bcast(self, obj: Any, root: int = 0, *, algorithm: str | None = None) -> Any:
        """Broadcast a Python object from ``root`` to every rank."""
        self._check_root(root)
        algo = self._pick("bcast", requested=algorithm)
        send, recv = self._transports()
        payload = counted_dumps(obj) if self._rank == root else None
        result = _algos.run_bcast(
            algo, self._rank, self._size, root, payload, send, recv,
            split=coll.split_bytes, concat=b"".join,
        )
        return obj if self._rank == root else pickle.loads(result)

    @coll.traced_collective
    def scatter(self, sendobj: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter a ``size``-element sequence from root; returns the local item."""
        self._check_root(root)
        send, recv = self._obj_transports()
        chunks = None
        if self._rank == root:
            if sendobj is None or len(sendobj) != self._size:
                got = "None" if sendobj is None else str(len(sendobj))
                raise InvalidCountError(
                    f"scatter at root expects exactly {self._size} items, got {got}"
                )
            chunks = list(sendobj)
        return coll.scatter_linear(self._rank, self._size, root, chunks, send, recv)

    @coll.traced_collective
    def gather(self, sendobj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank into an ordered list at root."""
        self._check_root(root)
        send, recv = self._obj_transports()
        return coll.gather_linear(self._rank, self._size, root, sendobj, send, recv)

    @coll.traced_collective
    def allgather(self, sendobj: Any, *, algorithm: str | None = None) -> list[Any]:
        """Gather one object per rank; every rank gets the full list."""
        algo = self._pick("allgather", requested=algorithm)
        send, recv = self._obj_transports()
        return _algos.run_allgather(algo, self._rank, self._size, sendobj, send, recv)

    @coll.traced_collective
    def alltoall(self, sendobj: Sequence[Any]) -> list[Any]:
        """Personalized exchange: item ``j`` of my sequence goes to rank ``j``."""
        if len(sendobj) != self._size:
            raise InvalidCountError(
                f"alltoall expects {self._size} items, got {len(sendobj)}"
            )
        send, recv = self._obj_transports()
        return coll.alltoall_pairwise(self._rank, self._size, list(sendobj), send, recv)

    @coll.traced_collective
    def reduce(
        self,
        sendobj: Any,
        op: Op = SUM,
        root: int = 0,
        *,
        algorithm: str | None = None,
    ) -> Any:
        """Combine one value per rank with ``op``; result lands at root."""
        self._check_root(root)
        algo = self._pick("reduce", commute=op.commute, requested=algorithm)
        send, recv = self._obj_transports()
        return _algos.run_reduce(
            algo, self._rank, self._size, root, sendobj, op, send, recv
        )

    @coll.traced_collective
    def allreduce(
        self, sendobj: Any, op: Op = SUM, *, algorithm: str | None = None
    ) -> Any:
        """Reduce then deliver the result to every rank."""
        algo = self._pick("allreduce", commute=op.commute, requested=algorithm)
        send, recv = self._obj_transports()
        return _algos.run_allreduce(
            algo, self._rank, self._size, sendobj, op, send, recv
        )

    @coll.traced_collective
    def scan(self, sendobj: Any, op: Op = SUM) -> Any:
        """Inclusive prefix reduction over ranks."""
        send, recv = self._obj_transports()
        return coll.scan_linear(self._rank, self._size, sendobj, op, send, recv)

    @coll.traced_collective
    def exscan(self, sendobj: Any, op: Op = SUM) -> Any:
        """Exclusive prefix reduction; rank 0 gets ``None``."""
        send, recv = self._obj_transports()
        return coll.exscan_linear(self._rank, self._size, sendobj, op, send, recv)

    # -------------------------------------------------------- collectives (buffer)
    @staticmethod
    def _array_split(values: Any, n: int) -> list[Any]:
        return list(np.array_split(values, n))

    @staticmethod
    def _chunks(sspec: BufferSpec, size: int, verb: str) -> list[np.ndarray]:
        """``size`` equal contiguous chunks of a send buffer."""
        if sspec.count % size:
            raise InvalidCountError(
                f"{verb}: send count {sspec.count} not divisible by size {size}"
            )
        n = sspec.count // size
        return [sspec.array[i * n : (i + 1) * n] for i in range(size)]

    @coll.traced_collective
    def Bcast(self, buf: Any, root: int = 0, *, algorithm: str | None = None) -> None:
        """Broadcast a typed buffer in place."""
        self._check_root(root)
        spec = parse_buffer(buf)
        algo = self._pick("bcast", nbytes=spec.nbytes, requested=algorithm)
        send, recv = self._transports(typed=True)
        payload = spec.array[: spec.count] if self._rank == root else None
        values = _algos.run_bcast(
            algo, self._rank, self._size, root, payload, send, recv,
            split=self._array_split, concat=np.concatenate,
        )
        if self._rank != root:
            self._fill_array(spec, values)

    @coll.traced_collective
    def Scatter(self, sendbuf: Any, recvbuf: Any, root: int = 0) -> None:
        """Scatter equal contiguous chunks of ``sendbuf`` from root."""
        self._check_root(root)
        send, recv = self._transports(typed=True)
        chunks = None
        if self._rank == root:
            chunks = self._chunks(parse_buffer(sendbuf), self._size, "Scatter")
        values = coll.scatter_linear(self._rank, self._size, root, chunks, send, recv)
        self._fill_array(parse_buffer(recvbuf), values)

    @coll.traced_collective
    def Scatterv(self, sendbuf: Any, recvbuf: Any, root: int = 0) -> None:
        """Scatter variable-size segments ``[data, counts, displs, type]``."""
        self._check_root(root)
        send, recv = self._transports(typed=True)
        chunks = None
        if self._rank == root:
            vspec = parse_vector_buffer(sendbuf, self._size)
            chunks = [vspec.array[d : d + c] for c, d in zip(vspec.counts, vspec.displs)]
        values = coll.scatter_linear(self._rank, self._size, root, chunks, send, recv)
        self._fill_array(parse_buffer(recvbuf), values)

    @coll.traced_collective
    def Gather(self, sendbuf: Any, recvbuf: Any, root: int = 0) -> None:
        """Gather equal chunks into root's buffer, ordered by rank."""
        self._check_root(root)
        send, recv = self._transports(typed=True)
        sspec = parse_buffer(sendbuf)
        parts = coll.gather_linear(
            self._rank, self._size, root, sspec.array[: sspec.count], send, recv
        )
        if self._rank == root:
            self._place_parts(parse_buffer(recvbuf), parts)

    @coll.traced_collective
    def Gatherv(self, sendbuf: Any, recvbuf: Any, root: int = 0) -> None:
        """Gather variable-size segments into ``[data, counts, displs, type]``."""
        self._check_root(root)
        send, recv = self._transports(typed=True)
        sspec = parse_buffer(sendbuf)
        parts = coll.gather_linear(
            self._rank, self._size, root, sspec.array[: sspec.count], send, recv
        )
        if self._rank == root:
            vspec = parse_vector_buffer(recvbuf, self._size)
            for src, (part, c, d) in enumerate(zip(parts, vspec.counts, vspec.displs)):
                if part.size != c:
                    raise InvalidCountError(
                        f"Gatherv: rank {src} sent {part.size} elements where "
                        f"counts specify {c} at displacement {d}"
                    )
                vspec.array[d : d + c] = part.astype(vspec.datatype.np_dtype, copy=False)

    @coll.traced_collective
    def Allgather(
        self, sendbuf: Any, recvbuf: Any, *, algorithm: str | None = None
    ) -> None:
        """All ranks gather everyone's chunk into their own buffer."""
        sspec = parse_buffer(sendbuf)
        algo = self._pick("allgather", nbytes=sspec.nbytes, requested=algorithm)
        send, recv = self._transports(typed=True)
        parts = _algos.run_allgather(
            algo, self._rank, self._size, sspec.array[: sspec.count], send, recv,
            concat=np.concatenate,
        )
        rspec = parse_buffer(recvbuf)
        if isinstance(parts, list):
            self._place_parts(rspec, parts)
        else:
            self._fill_array(rspec, parts)

    @coll.traced_collective
    def Alltoall(self, sendbuf: Any, recvbuf: Any) -> None:
        """Typed personalized exchange of equal chunks."""
        outgoing = self._chunks(parse_buffer(sendbuf), self._size, "Alltoall")
        send, recv = self._transports(typed=True)
        parts = coll.alltoall_pairwise(self._rank, self._size, outgoing, send, recv)
        self._place_parts(parse_buffer(recvbuf), parts)

    @coll.traced_collective
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
        self._check_root(root)
        sspec = parse_buffer(sendbuf)
        algo = self._pick(
            "reduce", nbytes=sspec.nbytes, commute=op.commute, requested=algorithm
        )
        send, recv = self._transports(typed=True)
        result = _algos.run_reduce(
            algo, self._rank, self._size, root, sspec.array[: sspec.count], op,
            send, recv,
        )
        if self._rank == root:
            self._fill_array(parse_buffer(recvbuf), result)

    @coll.traced_collective
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
        # Chunking splits the array across the ring; only sound when the op
        # combines elementwise (MAXLOC-style pair ops must stay whole).
        chunkable = op.commute and op.elementwise and self._size > 1
        algo = self._pick(
            "allreduce",
            nbytes=sspec.nbytes,
            commute=op.commute,
            chunked=chunkable,
            requested=algorithm,
        )
        send, recv = self._transports(typed=True)
        result = _algos.run_allreduce(
            algo, self._rank, self._size, sspec.array[: sspec.count], op, send, recv,
            split=self._array_split if chunkable else None,
            concat=np.concatenate if chunkable else None,
        )
        self._fill_array(parse_buffer(recvbuf), result)

    @staticmethod
    def _fill_array(spec: BufferSpec, values: Any) -> None:
        arr = np.asarray(values)
        if arr.size > len(spec.array):
            raise TruncationError(
                f"message of {arr.size} elements truncated to receive buffer "
                f"of {len(spec.array)}"
            )
        spec.fill(arr.astype(spec.datatype.np_dtype, copy=False))

    @staticmethod
    def _place_parts(rspec: BufferSpec, parts: Sequence[Any]) -> None:
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

    # ------------------------------------------------------ communicator creation
    def _derive(self, parent_ranks: Sequence[int], index: int, name: str,
                cls: type | None = None, **kwargs: Any) -> "Intracomm":
        """This rank's view of the ``index``-th communicator made by the
        collective just completed, over ``parent_ranks`` in new-rank order."""
        tp = self._tp
        cid = _derived_cid(tp.cid, self._coll_seq, index)
        world_ranks = tuple(tp.world_ranks[r] for r in parent_ranks)
        new = tp.derive(cid, world_ranks, parent_ranks.index(self._rank))
        return (cls or Intracomm)(new, name=name, **kwargs)

    def Split(self, color: int = 0, key: int = 0) -> "Intracomm | None":
        """Partition the communicator by color; order new ranks by (key, rank).

        Ranks passing ``color=UNDEFINED`` get ``None``.
        """
        triples = self.allgather((color, key, self._rank))
        if color == UNDEFINED:
            return None
        colors = sorted({c for c, _k, _r in triples if c != UNDEFINED})
        members = sorted((k, r) for c, k, r in triples if c == color)
        return self._derive(
            [r for _k, r in members], colors.index(color),
            f"{self._name}.split({color})",
        )

    def Dup(self) -> "Intracomm":
        """Duplicate the communicator (fresh contexts, same membership)."""
        dup = self.Split(color=0, key=self._rank)
        assert dup is not None
        dup._name = f"{self._name}.dup"
        return dup

    def Create(self, group: Group) -> "Intracomm | None":
        """Build a communicator from a subset group (collective over parent)."""
        try:
            key = group.ranks.index(self._tp.world_ranks[self._rank])
        except ValueError:
            return self.Split(color=UNDEFINED)
        return self.Split(color=0, key=key)

    def Create_cart(
        self,
        dims: Sequence[int],
        periods: Sequence[bool] | None = None,
        reorder: bool = False,
    ) -> "Any | None":
        """Create a Cartesian topology communicator (see ``cartesian.py``).

        Ranks beyond the grid's node count get ``None``.
        """
        from .cartesian import Cartcomm

        dims = tuple(int(d) for d in dims)
        nnodes = 1
        for d in dims:
            if d < 1:
                raise ValueError(f"invalid cartesian dims {dims}")
            nnodes *= d
        if nnodes > self._size:
            raise InvalidCountError(
                f"cartesian grid {dims} needs {nnodes} ranks, communicator has "
                f"{self._size}"
            )
        periods = tuple(bool(p) for p in (periods or (False,) * len(dims)))
        if len(periods) != len(dims):
            raise ValueError("periods must match dims in length")
        member = self._rank < nnodes
        self.allgather((0 if member else UNDEFINED, self._rank, self._rank))
        if not member:
            return None
        return self._derive(
            range(nnodes), 0, f"{self._name}.cart{dims}", Cartcomm,
            dims=dims, periods=periods,
        )

    # ------------------------------------------------------------------- misc
    def Get_processor_name(self) -> str:
        """Simulated hostname of the machine running this rank."""
        return self._tp.hostname

    def py2f(self) -> int:
        return self._tp.cid

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Intracomm {self._name!r} rank={self._rank} size={self._size}>"
