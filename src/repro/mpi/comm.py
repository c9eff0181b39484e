"""The intracommunicator: mpi4py's ``Comm`` API surface, from scratch.

One :class:`CommCore` holds the shared state of a communicator (mailboxes,
membership, context id); each rank interacts through its own
:class:`Intracomm` *view* bound to that core.  The lowercase verbs move
pickled Python objects (value semantics); the uppercase verbs move typed
NumPy buffers, as the mpi4py tutorial prescribes.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Callable, Sequence

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
from .message import Mailbox, Message, wait_event
from .ops import SUM, Op
from .request import BufferRecvRequest, RecvRequest, Request, SendRequest
from .status import Status

__all__ = ["CommCore", "Intracomm"]

#: Phase multiplier for internal collective tags: phases must stay below this.
_PHASE_SPAN = 1024


def _batch_limit() -> int:
    """Per-edge send-coalescing threshold for the threaded backend (bytes).

    Off by default: mailbox delivery is a list append under a lock, so
    coalescing buys little here and costs envelope latency.  Setting
    ``REPRO_MPI_BATCH_BYTES`` opts in (it also tunes the process backend,
    where batching defaults on — see :mod:`repro.mpi.procs`).
    """
    env = os.environ.get("REPRO_MPI_BATCH_BYTES")
    if env is not None:
        try:
            return max(0, int(env))
        except ValueError:
            return 0
    return 0


class CommCore:
    """Shared state of one communicator across all of its rank views."""

    def __init__(
        self,
        world: Any,
        world_ranks: Sequence[int],
        name: str,
        view_cls: type | None = None,
        view_kwargs: dict[str, Any] | None = None,
    ) -> None:
        self.world = world
        self.world_ranks = tuple(world_ranks)
        self.size = len(self.world_ranks)
        self.cid = world.next_cid()
        self.name = name
        self.freed = False
        self.user_boxes = [Mailbox(world) for _ in range(self.size)]
        self.coll_boxes = [Mailbox(world) for _ in range(self.size)]
        self.batch_limit = _batch_limit()
        view_cls = view_cls or Intracomm
        view_kwargs = view_kwargs or {}
        self.views = [view_cls(self, r, **view_kwargs) for r in range(self.size)]


class Intracomm:
    """One rank's view of a communicator (the object user code receives)."""

    def __init__(self, core: CommCore, rank: int) -> None:
        self._core = core
        self._rank = rank
        self._coll_seq = 0
        #: Per-destination coalescing buffers (active only when the core's
        #: batch_limit is nonzero; see ``_batch_limit``).
        self._out_batch: dict[int, list[Message]] = {}
        self._out_bytes: dict[int, int] = {}

    # ------------------------------------------------------------------ plumbing
    @classmethod
    def _create_world(cls, world: Any) -> "Intracomm":
        core = CommCore(world, range(world.size), "MPI_COMM_WORLD")
        return core.views[0]

    def _for_rank(self, rank: int) -> "Intracomm":
        return self._core.views[rank]

    @property
    def world(self) -> Any:
        return self._core.world

    @property
    def mailbox(self) -> Mailbox:
        return self._core.user_boxes[self._rank]

    @property
    def _obs_cid(self) -> int:
        return self._core.cid

    def _put_user(self, dest: int, message: Message) -> None:
        """Enqueue a user-context message, announcing it to the hook seam."""
        if _hooks.enabled:
            _hooks.emit(
                "send", self._core.cid, self._rank, dest, message.tag,
                message.nbytes,
            )
        injector = self._core.world.injector
        if injector is not None:
            # Fault rules count per-edge message ordinals, so injected runs
            # never coalesce.
            injector.dispositions(
                self._world_rank(),
                self._core.world_ranks[dest],
                lambda: self._core.user_boxes[dest].put(message),
            )
            return
        limit = self._core.batch_limit
        if (
            limit
            and message.synchronous is None
            and message.nbytes <= limit
            and dest != self._rank
        ):
            pending = self._out_batch.setdefault(dest, [])
            pending.append(message)
            total = self._out_bytes.get(dest, 0) + message.nbytes
            self._out_bytes[dest] = total
            if len(pending) >= 16 or total >= 8 * limit:
                self._flush_dest(dest)
            return
        # Non-overtaking: older batched envelopes for this edge must be
        # delivered before this one.
        self._flush_dest(dest)
        self._core.user_boxes[dest].put(message)

    def _flush_dest(self, dest: int) -> None:
        pending = self._out_batch.get(dest)
        if not pending:
            return
        self._out_batch[dest] = []
        self._out_bytes[dest] = 0
        self._core.user_boxes[dest].put_many(pending)

    def _flush_sends(self) -> None:
        """Deliver every coalesced envelope (called before blocking)."""
        if not self._out_batch:
            return
        for dest, pending in self._out_batch.items():
            if pending:
                self._flush_dest(dest)

    def _world_rank(self) -> int:
        """This view's rank in MPI_COMM_WORLD (fault rules use world ranks)."""
        return self._core.world_ranks[self._rank]

    def _get_user(self, source: int, tag: int) -> Message:
        """Blocking mailbox fetch bracketed by recv_enter/recv_exit events."""
        self._flush_sends()
        if not _hooks.enabled:
            return self.mailbox.get(source, tag)
        cid = self._core.cid
        _hooks.emit("recv_enter", cid, self._rank, source, tag)
        msg = self.mailbox.get(source, tag)
        _hooks.emit("recv_exit", cid, self._rank, msg.source, msg.tag, msg.nbytes)
        return msg

    def _check_alive(self) -> None:
        if self._core.freed:
            raise CommAlreadyFreedError(f"communicator {self._core.name} was freed")
        self._core.world.check_abort()
        injector = self._core.world.injector
        if injector is not None:
            # Every verb passes through here, so op counting sees point-to-
            # point and collective calls alike — a crash rule can therefore
            # kill a rank mid-collective, deterministically.
            injector.on_op(self._world_rank())

    def _check_peer(self, rank: int, *, wildcard: bool, what: str) -> None:
        if rank == PROC_NULL:
            return
        if wildcard and rank == ANY_SOURCE:
            return
        if not 0 <= rank < self._core.size:
            raise InvalidRankError(rank, self._core.size, what)

    @staticmethod
    def _check_tag(tag: int, *, wildcard: bool) -> None:
        if wildcard and tag == ANY_TAG:
            return
        if not 0 <= tag <= TAG_UB:
            raise InvalidTagError(tag)

    # ------------------------------------------------------------------- inquiry
    def Get_rank(self) -> int:
        """Rank of the calling process in this communicator."""
        return self._rank

    def Get_size(self) -> int:
        """Number of processes in this communicator."""
        return self._core.size

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._core.size

    def Get_name(self) -> str:
        return self._core.name

    def Set_name(self, name: str) -> None:
        self._core.name = str(name)

    @property
    def name(self) -> str:
        return self._core.name

    def Get_group(self) -> Group:
        return Group(self._core.world_ranks)

    def Get_topology(self) -> str | None:
        return None

    def Free(self) -> None:
        """Release the communicator; later operations raise."""
        self._core.freed = True

    def Abort(self, errorcode: int = 1) -> None:
        """Tear down the whole world (``MPI_Abort``)."""
        self._core.world.abort_with(WorldAbortedError(errorcode, origin=self._rank))
        self._core.world.check_abort()

    def Is_intra(self) -> bool:
        return True

    def Is_inter(self) -> bool:
        return False

    # --------------------------------------------------------- point-to-point (obj)
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking standard-mode send of a pickled Python object.

        Standard mode is eager-buffered here, as small-message MPI sends are
        in practice: the call returns once the envelope is enqueued.  Use
        :meth:`ssend` for a send that blocks until matched.
        """
        self._check_alive()
        self._check_peer(dest, wildcard=False, what="destination")
        self._check_tag(tag, wildcard=False)
        if dest == PROC_NULL:
            return
        payload = counted_dumps(obj)
        self._put_user(dest, Message(self._rank, tag, payload, len(payload)))

    def ssend(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Synchronous send: blocks until the matching receive starts."""
        self._check_alive()
        self._check_peer(dest, wildcard=False, what="destination")
        self._check_tag(tag, wildcard=False)
        if dest == PROC_NULL:
            return
        import threading

        done = threading.Event()
        payload = counted_dumps(obj)
        self._put_user(
            dest, Message(self._rank, tag, payload, len(payload), synchronous=done)
        )
        self._flush_sends()
        wait_event(done, self._core.world)

    def recv(
        self,
        buf: Any = None,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Status | None = None,
    ) -> Any:
        """Blocking receive; returns the (unpickled) object."""
        self._check_alive()
        self._check_peer(source, wildcard=True, what="source")
        self._check_tag(tag, wildcard=True)
        if source == PROC_NULL:
            if status is not None:
                status._set(PROC_NULL, ANY_TAG, 0)
            return None
        msg = self._get_user(source, tag)
        if status is not None:
            status._set(msg.source, msg.tag, msg.nbytes)
        return pickle.loads(msg.payload)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send; complete immediately (buffered)."""
        self.send(obj, dest, tag)
        return SendRequest(self)

    def issend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking synchronous send; completes when matched."""
        self._check_alive()
        self._check_peer(dest, wildcard=False, what="destination")
        self._check_tag(tag, wildcard=False)
        if dest == PROC_NULL:
            return SendRequest(self)
        import threading

        done = threading.Event()
        payload = counted_dumps(obj)
        self._put_user(
            dest, Message(self._rank, tag, payload, len(payload), synchronous=done)
        )
        return SendRequest(self, sync_event=done)

    def irecv(self, buf: Any = None, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; ``req.wait()`` returns the object."""
        self._check_alive()
        self._check_peer(source, wildcard=True, what="source")
        self._check_tag(tag, wildcard=True)
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

    def probe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, status: Status | None = None
    ) -> bool:
        """Block until a matching message is pending (without receiving it)."""
        self._check_alive()
        self._flush_sends()
        msg = self.mailbox.probe(source, tag, block=True)
        if status is not None and msg is not None:
            status._set(msg.source, msg.tag, msg.nbytes)
        return True

    def iprobe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, status: Status | None = None
    ) -> bool:
        """Nonblocking probe: True if a matching message is pending."""
        self._check_alive()
        self._flush_sends()
        msg = self.mailbox.probe(source, tag, block=False)
        if msg is not None and status is not None:
            status._set(msg.source, msg.tag, msg.nbytes)
        return msg is not None

    # ------------------------------------------------------ point-to-point (buffer)
    def Send(self, buf: Any, dest: int, tag: int = 0) -> None:
        """Blocking typed-buffer send (``[data, MPI.TYPE]`` or bare array)."""
        self._check_alive()
        self._check_peer(dest, wildcard=False, what="destination")
        self._check_tag(tag, wildcard=False)
        if dest == PROC_NULL:
            return
        spec = parse_buffer(buf)
        snapshot = spec.data()
        self._put_user(dest, Message(self._rank, tag, snapshot, spec.nbytes))

    def Recv(
        self,
        buf: Any,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Status | None = None,
    ) -> None:
        """Blocking typed-buffer receive into caller-provided storage."""
        self._check_alive()
        self._check_peer(source, wildcard=True, what="source")
        self._check_tag(tag, wildcard=True)
        spec = parse_buffer(buf)
        if source == PROC_NULL:
            if status is not None:
                status._set(PROC_NULL, ANY_TAG, 0)
            return
        msg = self._get_user(source, tag)
        self._fill_typed(spec, msg)
        if status is not None:
            status._set(msg.source, msg.tag, msg.nbytes)

    def Isend(self, buf: Any, dest: int, tag: int = 0) -> Request:
        self.Send(buf, dest, tag)
        return SendRequest(self)

    def Irecv(self, buf: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        self._check_alive()
        self._check_peer(source, wildcard=True, what="source")
        self._check_tag(tag, wildcard=True)
        spec = parse_buffer(buf)
        return BufferRecvRequest(self, spec, source, tag)

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

    def _fill_typed(self, spec: BufferSpec, msg: Message) -> None:
        values = msg.payload
        if isinstance(values, bytes):
            raise TypeError(
                "buffer receive matched an object-mode message; pair lowercase "
                "sends with lowercase receives"
            )
        values = np.asarray(values)
        if values.size > len(spec.array):
            raise TruncationError(
                f"message of {values.size} elements truncated to receive buffer "
                f"of {len(spec.array)}"
            )
        spec.fill(values.astype(spec.datatype.np_dtype, copy=False))

    # --------------------------------------------------------- collective transport
    def _transports(self) -> tuple[Callable[[int, int, Any], None], Callable[[int, int], Any]]:
        """Raw payload transport in the collective context for one collective.

        Each collective call consumes one sequence number; all ranks consume
        them in the same order (the standard requires collectives to be
        called in the same order on every rank), so tags always agree.
        """
        self._check_alive()
        self._flush_sends()
        seq = self._coll_seq
        self._coll_seq += 1
        core = self._core
        me = self._rank

        def send(dest: int, phase: int, payload: Any) -> None:
            if _hooks.enabled:
                _hooks.emit(
                    "coll_msg", core.cid, me, dest, coll.payload_nbytes(payload)
                )
            message = Message(me, seq * _PHASE_SPAN + phase, payload, 0)
            injector = core.world.injector
            if injector is not None:
                injector.dispositions(
                    core.world_ranks[me],
                    core.world_ranks[dest],
                    lambda: core.coll_boxes[dest].put(message),
                )
                return
            core.coll_boxes[dest].put(message)

        def recv(source: int, phase: int) -> Any:
            return core.coll_boxes[me].get(source, seq * _PHASE_SPAN + phase).payload

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
            size=self._core.size,
            nbytes=nbytes,
            commute=commute,
            chunked=chunked,
            requested=requested,
        )
        if _hooks.enabled:
            _hooks.emit("coll_algo", self._obs_cid, self._rank, collective, algo)
        return algo

    # ----------------------------------------------------------- collectives (obj)
    @coll.traced_collective
    def barrier(self) -> None:
        """Block until every rank of the communicator has arrived."""
        self._pick("barrier")
        send, recv = self._transports()
        coll.barrier_dissemination(self._rank, self._core.size, send, recv)

    Barrier = barrier

    @coll.traced_collective
    def bcast(self, obj: Any, root: int = 0, *, algorithm: str | None = None) -> Any:
        """Broadcast a Python object from ``root`` to every rank."""
        self._check_peer(root, wildcard=False, what="root")
        algo = self._pick("bcast", requested=algorithm)
        send, recv = self._transports()
        payload = counted_dumps(obj) if self._rank == root else None
        result = _algos.run_bcast(
            algo, self._rank, self._core.size, root, payload, send, recv,
            split=coll.split_bytes, concat=b"".join,
        )
        return obj if self._rank == root else pickle.loads(result)

    @coll.traced_collective
    def scatter(self, sendobj: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter a ``size``-element sequence from root; returns the local item."""
        self._check_peer(root, wildcard=False, what="root")
        send, recv = self._obj_transports()
        chunks = None
        if self._rank == root:
            if sendobj is None or len(sendobj) != self._core.size:
                got = "None" if sendobj is None else str(len(sendobj))
                raise InvalidCountError(
                    f"scatter at root expects exactly {self._core.size} items, got {got}"
                )
            chunks = list(sendobj)
        return coll.scatter_linear(self._rank, self._core.size, root, chunks, send, recv)

    @coll.traced_collective
    def gather(self, sendobj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank into an ordered list at root."""
        self._check_peer(root, wildcard=False, what="root")
        send, recv = self._obj_transports()
        return coll.gather_linear(self._rank, self._core.size, root, sendobj, send, recv)

    @coll.traced_collective
    def allgather(self, sendobj: Any, *, algorithm: str | None = None) -> list[Any]:
        """Gather one object per rank; every rank gets the full list."""
        algo = self._pick("allgather", requested=algorithm)
        send, recv = self._obj_transports()
        return _algos.run_allgather(
            algo, self._rank, self._core.size, sendobj, send, recv
        )

    @coll.traced_collective
    def alltoall(self, sendobj: Sequence[Any]) -> list[Any]:
        """Personalized exchange: item ``j`` of my sequence goes to rank ``j``."""
        if len(sendobj) != self._core.size:
            raise InvalidCountError(
                f"alltoall expects {self._core.size} items, got {len(sendobj)}"
            )
        send, recv = self._obj_transports()
        return coll.alltoall_pairwise(self._rank, self._core.size, list(sendobj), send, recv)

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
        self._check_peer(root, wildcard=False, what="root")
        algo = self._pick("reduce", commute=op.commute, requested=algorithm)
        send, recv = self._obj_transports()
        return _algos.run_reduce(
            algo, self._rank, self._core.size, root, sendobj, op, send, recv
        )

    @coll.traced_collective
    def allreduce(
        self, sendobj: Any, op: Op = SUM, *, algorithm: str | None = None
    ) -> Any:
        """Reduce then deliver the result to every rank."""
        algo = self._pick("allreduce", commute=op.commute, requested=algorithm)
        send, recv = self._obj_transports()
        return _algos.run_allreduce(
            algo, self._rank, self._core.size, sendobj, op, send, recv
        )

    @coll.traced_collective
    def scan(self, sendobj: Any, op: Op = SUM) -> Any:
        """Inclusive prefix reduction over ranks."""
        send, recv = self._obj_transports()
        return coll.scan_linear(self._rank, self._core.size, sendobj, op, send, recv)

    @coll.traced_collective
    def exscan(self, sendobj: Any, op: Op = SUM) -> Any:
        """Exclusive prefix reduction; rank 0 gets ``None``."""
        send, recv = self._obj_transports()
        return coll.exscan_linear(self._rank, self._core.size, sendobj, op, send, recv)

    # -------------------------------------------------------- collectives (buffer)
    @staticmethod
    def _array_split(values: Any, n: int) -> list[Any]:
        return list(np.array_split(values, n))

    @coll.traced_collective
    def Bcast(self, buf: Any, root: int = 0, *, algorithm: str | None = None) -> None:
        """Broadcast a typed buffer in place."""
        self._check_peer(root, wildcard=False, what="root")
        spec = parse_buffer(buf)
        algo = self._pick(
            "bcast",
            nbytes=spec.count * spec.array.dtype.itemsize,
            requested=algorithm,
        )
        send, recv = self._transports()
        payload = spec.data() if self._rank == root else None
        values = _algos.run_bcast(
            algo, self._rank, self._core.size, root, payload, send, recv,
            split=self._array_split, concat=np.concatenate,
        )
        if self._rank != root:
            self._fill_array(spec, values)

    @coll.traced_collective
    def Scatter(self, sendbuf: Any, recvbuf: Any, root: int = 0) -> None:
        """Scatter equal contiguous chunks of ``sendbuf`` from root."""
        self._check_peer(root, wildcard=False, what="root")
        size = self._core.size
        send, recv = self._transports()
        chunks = None
        if self._rank == root:
            sspec = parse_buffer(sendbuf)
            if sspec.count % size:
                raise InvalidCountError(
                    f"Scatter: send count {sspec.count} not divisible by size {size}"
                )
            n = sspec.count // size
            data = sspec.data()
            chunks = [data[i * n : (i + 1) * n] for i in range(size)]
        values = coll.scatter_linear(self._rank, size, root, chunks, send, recv)
        self._fill_array(parse_buffer(recvbuf), values)

    @coll.traced_collective
    def Scatterv(self, sendbuf: Any, recvbuf: Any, root: int = 0) -> None:
        """Scatter variable-size segments ``[data, counts, displs, type]``."""
        self._check_peer(root, wildcard=False, what="root")
        size = self._core.size
        send, recv = self._transports()
        chunks = None
        if self._rank == root:
            vspec = parse_vector_buffer(sendbuf, size)
            chunks = [
                vspec.array[d : d + c].copy()
                for c, d in zip(vspec.counts, vspec.displs)
            ]
        values = coll.scatter_linear(self._rank, size, root, chunks, send, recv)
        self._fill_array(parse_buffer(recvbuf), values)

    @coll.traced_collective
    def Gather(self, sendbuf: Any, recvbuf: Any, root: int = 0) -> None:
        """Gather equal chunks into root's buffer, ordered by rank."""
        self._check_peer(root, wildcard=False, what="root")
        size = self._core.size
        send, recv = self._transports()
        sspec = parse_buffer(sendbuf)
        parts = coll.gather_linear(
            self._rank, size, root, sspec.data(), send, recv
        )
        if self._rank == root:
            rspec = parse_buffer(recvbuf)
            self._place_parts(rspec, parts, uniform=True)

    @coll.traced_collective
    def Gatherv(self, sendbuf: Any, recvbuf: Any, root: int = 0) -> None:
        """Gather variable-size segments into ``[data, counts, displs, type]``."""
        self._check_peer(root, wildcard=False, what="root")
        size = self._core.size
        send, recv = self._transports()
        sspec = parse_buffer(sendbuf)
        parts = coll.gather_linear(self._rank, size, root, sspec.data(), send, recv)
        if self._rank == root:
            vspec = parse_vector_buffer(recvbuf, size)
            for src, (part, c, d) in enumerate(
                zip(parts, vspec.counts, vspec.displs)
            ):
                arr = np.asarray(part)
                if arr.size != c:
                    raise InvalidCountError(
                        f"Gatherv: rank {src} sent {arr.size} elements where "
                        f"counts specify {c} at displacement {d}"
                    )
                vspec.array[d : d + c] = arr.astype(vspec.datatype.np_dtype, copy=False)

    @coll.traced_collective
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
        send, recv = self._transports()
        parts = _algos.run_allgather(
            algo, self._rank, self._core.size, sspec.data(), send, recv
        )
        self._place_parts(parse_buffer(recvbuf), parts, uniform=True)

    @coll.traced_collective
    def Alltoall(self, sendbuf: Any, recvbuf: Any) -> None:
        """Typed personalized exchange of equal chunks."""
        size = self._core.size
        sspec = parse_buffer(sendbuf)
        if sspec.count % size:
            raise InvalidCountError(
                f"Alltoall: send count {sspec.count} not divisible by size {size}"
            )
        n = sspec.count // size
        data = sspec.data()
        outgoing = [data[i * n : (i + 1) * n] for i in range(size)]
        send, recv = self._transports()
        parts = coll.alltoall_pairwise(self._rank, size, outgoing, send, recv)
        self._place_parts(parse_buffer(recvbuf), parts, uniform=True)

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
        """Elementwise typed reduction to root."""
        self._check_peer(root, wildcard=False, what="root")
        sspec = parse_buffer(sendbuf)
        algo = self._pick(
            "reduce",
            nbytes=sspec.count * sspec.array.dtype.itemsize,
            commute=op.commute,
            requested=algorithm,
        )
        send, recv = self._transports()
        result = _algos.run_reduce(
            algo, self._rank, self._core.size, root, sspec.data(), op, send, recv
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
        chunkable = op.commute and op.elementwise and self._core.size > 1
        algo = self._pick(
            "allreduce",
            nbytes=sspec.count * sspec.array.dtype.itemsize,
            commute=op.commute,
            chunked=chunkable,
            requested=algorithm,
        )
        send, recv = self._transports()
        result = _algos.run_allreduce(
            algo, self._rank, self._core.size, sspec.data(), op, send, recv,
            split=self._array_split if chunkable else None,
            concat=np.concatenate if chunkable else None,
        )
        self._fill_array(parse_buffer(recvbuf), result)

    def _fill_array(self, spec: BufferSpec, values: Any) -> None:
        arr = np.asarray(values)
        if arr.size > len(spec.array):
            raise TruncationError(
                f"collective result of {arr.size} elements exceeds buffer of "
                f"{len(spec.array)}"
            )
        spec.fill(arr.astype(spec.datatype.np_dtype, copy=False))

    def _place_parts(self, rspec: BufferSpec, parts: Sequence[Any], uniform: bool) -> None:
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
    def Split(self, color: int = 0, key: int = 0) -> "Intracomm | None":
        """Partition the communicator by color; order new ranks by (key, rank).

        Ranks passing ``color=UNDEFINED`` get ``None``.
        """
        triples = self.allgather((color, key, self._rank))
        seq_key = ("split", self._core.cid, self._coll_seq)
        if color == UNDEFINED:
            return None
        members = sorted(
            (k, r) for c, k, r in triples if c == color
        )
        parent_ranks = [r for _k, r in members]
        world_ranks = tuple(self._core.world_ranks[r] for r in parent_ranks)

        def factory() -> CommCore:
            return CommCore(
                self._core.world,
                world_ranks,
                f"{self._core.name}.split({color})",
            )

        core = self._core.world.registry.get_or_create((*seq_key, color), factory)
        return core.views[parent_ranks.index(self._rank)]

    def Dup(self) -> "Intracomm":
        """Duplicate the communicator (fresh contexts, same membership)."""
        dup = self.Split(color=0, key=self._rank)
        assert dup is not None
        dup._core.name = f"{self._core.name}.dup"
        return dup

    def Create(self, group: Group) -> "Intracomm | None":
        """Build a communicator from a subset group (collective over parent)."""
        try:
            my_pos = group.ranks.index(self._core.world_ranks[self._rank])
        except ValueError:
            my_pos = UNDEFINED
        color = 0 if my_pos != UNDEFINED else UNDEFINED
        key = my_pos if my_pos != UNDEFINED else 0
        return self.Split(color=color, key=key)

    def Create_cart(
        self,
        dims: Sequence[int],
        periods: Sequence[bool] | None = None,
        reorder: bool = False,
    ) -> "Any | None":
        """Create a Cartesian topology communicator (see ``cartesian.py``)."""
        from .cartesian import Cartcomm

        dims = tuple(int(d) for d in dims)
        nnodes = 1
        for d in dims:
            if d < 1:
                raise ValueError(f"invalid cartesian dims {dims}")
            nnodes *= d
        if nnodes > self._core.size:
            raise InvalidCountError(
                f"cartesian grid {dims} needs {nnodes} ranks, communicator has "
                f"{self._core.size}"
            )
        periods = tuple(bool(p) for p in (periods or (False,) * len(dims)))
        if len(periods) != len(dims):
            raise ValueError("periods must match dims in length")

        triples = self.allgather((0 if self._rank < nnodes else UNDEFINED, self._rank, self._rank))
        seq_key = ("cart", self._core.cid, self._coll_seq, dims, periods)
        if self._rank >= nnodes:
            return None
        member_parents = [r for c, _k, r in triples if c == 0]
        member_parents.sort()
        world_ranks = tuple(self._core.world_ranks[r] for r in member_parents)

        def factory() -> CommCore:
            return CommCore(
                self._core.world,
                world_ranks,
                f"{self._core.name}.cart{dims}",
                view_cls=Cartcomm,
                view_kwargs={"dims": dims, "periods": periods},
            )

        core = self._core.world.registry.get_or_create(seq_key, factory)
        return core.views[member_parents.index(self._rank)]

    # ------------------------------------------------------------------- misc
    def Get_processor_name(self) -> str:
        """Simulated hostname of the machine running this rank."""
        return self._core.world.hostname

    def py2f(self) -> int:
        return self._core.cid

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Intracomm {self._core.name!r} rank={self._rank} "
            f"size={self._core.size}>"
        )
