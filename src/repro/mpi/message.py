"""Message envelopes, per-rank mailboxes, and the thread world's transport.

A :class:`Mailbox` is the receive queue of one rank within one communicator
context; :class:`MailboxTransport` is a rank's endpoint over a
communicator's mailboxes, the thread-world implementation of
:class:`repro.mpi.comm.Transport`.  Matching follows the MPI standard:

* a receive posted with ``(source, tag)`` matches the *earliest arrived*
  pending message whose envelope satisfies both fields, where
  ``ANY_SOURCE`` / ``ANY_TAG`` act as wildcards;
* messages between one (sender, receiver, tag) triple are non-overtaking —
  guaranteed here because each mailbox is a FIFO list scanned in arrival
  order.

Blocking receives park on a condition variable.  Every blocking wait
registers with the world's progress tracker so that a global
all-ranks-blocked state is detected and surfaced as
:class:`~repro.mpi.errors.DeadlockError` instead of hanging the process.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .constants import ANY_SOURCE, ANY_TAG
from .errors import DeadlockError, WorldAbortedError

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import World

#: A communicator's two contexts: user point-to-point traffic, and the
#: internal traffic of its collectives.
USER, COLL = 0, 1


@dataclass(frozen=True)
class BufferHandle:
    """Descriptor for a typed payload that travels outside the envelope.

    The process-rank transport ships NumPy buffers either inline as raw
    bytes (``shm_name is None``, payload in ``data``) or through a
    ``multiprocessing.shared_memory`` segment (``shm_name`` set, ``data``
    ``None``) — in both cases the envelope that crosses the pipe carries
    this handle, never a pickled array.  ``mode`` tells the receiver who
    owns a shared segment: ``"owned"`` means the receiver unlinks after
    copying out (single-use), ``"acked"`` means the sender owns and reuses
    the segment and the receiver must acknowledge the copy-out (see
    :mod:`repro.mpi.shm`).
    """

    shm_name: str | None
    shape: tuple[int, ...]
    dtype: str
    mode: str = "owned"
    data: bytes | None = None

    @property
    def count(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n


class Message:
    """An in-flight message envelope, as a receive matches it.

    ``payload`` is the already-serialized (or already-copied) content, so the
    receiver can never observe sender-side mutation after the send call:
    pickled bytes for the object verbs, a typed payload (a NumPy array on
    threads, a :class:`BufferHandle` between processes) for the buffer
    verbs.  ``nbytes`` is the wire size reported by ``Status.Get_count``.
    """

    __slots__ = ("source", "tag", "payload", "nbytes", "synchronous")

    def __init__(
        self,
        source: int,
        tag: int,
        payload: Any,
        nbytes: int,
        synchronous: threading.Event | None = None,
    ) -> None:
        self.source = source
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.synchronous = synchronous

    def matches(self, source: int, tag: int) -> bool:
        """Whether this envelope satisfies a receive posted for (source, tag)."""
        return (source == ANY_SOURCE or source == self.source) and (
            tag == ANY_TAG or tag == self.tag
        )


class Mailbox:
    """FIFO receive queue for one (communicator-context, rank) endpoint."""

    def __init__(self, world: "World") -> None:
        self._world = world
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: list[Message] = []

    def put(self, message: Message) -> None:
        """Deliver a message (called from the sender's thread)."""
        with self._cond:
            self._pending.append(message)
            self._cond.notify_all()

    def _find(self, source: int, tag: int) -> Message | None:
        for i, msg in enumerate(self._pending):
            if msg.matches(source, tag):
                return self._pending.pop(i)
        return None

    def _peek(self, source: int, tag: int) -> Message | None:
        for msg in self._pending:
            if msg.matches(source, tag):
                return msg
        return None

    def try_get(self, source: int, tag: int) -> Message | None:
        """Non-blocking matched dequeue; None when nothing matches."""
        self._world.check_abort()
        with self._cond:
            msg = self._find(source, tag)
        if msg is not None and msg.synchronous is not None:
            msg.synchronous.set()
        return msg

    def get(self, source: int, tag: int) -> Message:
        """Blocking matched dequeue with abort and deadlock detection."""
        msg = self._blocking_wait(lambda: self._find(source, tag))
        if msg.synchronous is not None:
            msg.synchronous.set()
        return msg

    def probe(self, source: int, tag: int, block: bool = True) -> Message | None:
        """Matched peek without dequeueing (``Probe``/``Iprobe``)."""
        self._world.check_abort()
        if not block:
            with self._cond:
                return self._peek(source, tag)
        return self._blocking_wait(lambda: self._peek(source, tag))

    def _blocking_wait(self, attempt: Callable[[], Message | None]) -> Message:
        """Wait until ``attempt`` yields a message, polling world liveness.

        The poll interval is short so an abort or a detected deadlock
        propagates to every parked rank quickly.
        """
        world = self._world
        world.check_abort()
        with self._cond:
            msg = attempt()
            if msg is not None:
                return msg
            world.enter_blocked()
            try:
                while True:
                    self._cond.wait(timeout=world.poll_interval)
                    msg = attempt()
                    if msg is not None:
                        return msg
                    world.check_abort()
                    if world.deadlock_suspected():
                        world.abort_with(DeadlockError(
                            "all ranks are blocked with no matching message in "
                            "flight (classic deadlock); check your send/recv "
                            "ordering"
                        ))
                        world.check_abort()  # raises for us
            finally:
                world.exit_blocked()

    def drain(self) -> list[Message]:
        """Remove and return all pending messages (used at teardown)."""
        with self._cond:
            pending, self._pending = self._pending, []
            return pending

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)


class CommCore:
    """The mailboxes of one thread-world communicator, shared by its ranks.

    Each rank has two: its user context and its collective context, as real
    MPI separates them, so a user ``ANY_TAG`` receive never steals
    collective traffic.
    """

    def __init__(self, world: "World", world_ranks: Iterable[int], cid: int) -> None:
        self.world = world
        self.world_ranks = tuple(world_ranks)
        self.cid = cid
        self.user_boxes = [Mailbox(world) for _ in self.world_ranks]
        self.coll_boxes = [Mailbox(world) for _ in self.world_ranks]


class MailboxTransport:
    """One rank's endpoint of a thread-world communicator (see
    :class:`repro.mpi.comm.Transport`).

    Posting appends to the destination rank's mailbox; matching parks on
    this rank's own, with the world's abort and deadlock vigilance.  Typed
    payloads travel as arrays no caller can still write to.
    """

    def __init__(self, core: CommCore, rank: int) -> None:
        world = core.world
        self.world = world
        self.rank = rank
        self.size = len(core.world_ranks)
        self.world_ranks = core.world_ranks
        self.cid = core.cid
        self.hostname = world.hostname
        self.check_abort = world.check_abort
        self._boxes = (core.user_boxes, core.coll_boxes)
        self._inbox = (core.user_boxes[rank], core.coll_boxes[rank])

    @property
    def injector(self) -> Any:
        return self.world.injector

    def post(self, ctx: int, dest: int, tag: int, payload: Any, nbytes: int,
             sync: threading.Event | None = None) -> None:
        self._boxes[ctx][dest].put(Message(self.rank, tag, payload, nbytes, sync))

    def match(self, ctx: int, source: int, tag: int, block: bool = True,
              remove: bool = True) -> Message | None:
        box = self._inbox[ctx]
        if not remove:
            return box.probe(source, tag, block)
        return box.get(source, tag) if block else box.try_get(source, tag)

    @staticmethod
    def pack(values: Any, dest: int) -> Any:
        # A view may alias the caller's buffer, which the caller may
        # overwrite once the call returns, so it is copied.  An array that
        # owns its memory was made by the call itself (a received payload,
        # a reduction or concatenation result) and is only ever read, so
        # its receivers share it.
        return values.copy() if values.base is not None else values

    @staticmethod
    def unpack(payload: Any, source: int) -> Any:
        return payload

    def derive(self, cid: int, world_ranks: tuple[int, ...], rank: int) -> "MailboxTransport":
        core = self.shared(("comm", cid), lambda: CommCore(self.world, world_ranks, cid))
        return MailboxTransport(core, rank)

    def shared(self, key: Any, factory: Callable[[], Any]) -> Any:
        return self.world.registry.get_or_create(key, factory)

    def abort(self, error: BaseException) -> None:
        self.world.abort_with(error)
        self.world.check_abort()


def wait_event(event: threading.Event, world: "World") -> None:
    """Block on an event with the same abort/deadlock vigilance as a receive.

    Used by synchronous sends, which park until the matching receive
    consumes their envelope.
    """
    world.check_abort()
    if event.is_set():
        return
    world.enter_blocked()
    try:
        while not event.wait(timeout=world.poll_interval):
            world.check_abort()
            if world.deadlock_suspected():
                world.abort_with(DeadlockError(
                    "all ranks are blocked: a synchronous send has no matching "
                    "receive"
                ))
                world.check_abort()
    finally:
        world.exit_blocked()


__all__ = [
    "BufferHandle",
    "COLL",
    "CommCore",
    "Mailbox",
    "MailboxTransport",
    "Message",
    "USER",
    "wait_event",
    "WorldAbortedError",
]
