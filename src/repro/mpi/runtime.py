"""The MPI *world*: thread-per-rank SPMD execution.

A :class:`World` owns N rank threads, the shared-object registry used to
materialize new communicators during collective construction (``Split``,
``Create_cart``), a progress tracker that turns a global all-ranks-blocked
state into :class:`~repro.mpi.errors.DeadlockError`, and a thread-safe
console that records the interleaved ``print`` output of the ranks (this is
what reproduces the out-of-order "Greetings from process i of n" lines in
the paper's Fig. 2).

The convenience entry point is :func:`run` / :meth:`World.run`: hand it an
SPMD function of signature ``fn(comm, *args)`` and a process count, get back
per-rank return values.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .constants import DEFAULT_DEADLOCK_TIMEOUT
from .errors import (
    DeadlockError,
    NotInWorldError,
    RankFailedError,
    WorldAbortedError,
)

__all__ = [
    "World",
    "Console",
    "run",
    "current_comm",
    "add_world_hook",
    "remove_world_hook",
]

#: Observers invoked with each freshly constructed :class:`World`.  The
#: correctness checker (:mod:`repro.analysis.mpicheck`) uses this to attach
#: to worlds created *inside* patternlets and exemplars without forking
#: their launch paths.
_creation_hooks: list[Callable[["World"], None]] = []


def add_world_hook(hook: Callable[["World"], None]) -> None:
    """Register an observer called with every newly created world."""
    if hook not in _creation_hooks:
        _creation_hooks.append(hook)


def remove_world_hook(hook: Callable[["World"], None]) -> None:
    if hook in _creation_hooks:
        _creation_hooks.remove(hook)


@dataclass
class ConsoleLine:
    """One line of rank output, in global arrival order."""

    rank: int
    text: str
    seq: int


class Console:
    """Thread-safe capture of per-rank ``print`` output."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lines: list[ConsoleLine] = []
        self._seq = 0

    def write(self, rank: int, text: str) -> None:
        with self._lock:
            for line in str(text).split("\n"):
                self._lines.append(ConsoleLine(rank, line, self._seq))
                self._seq += 1

    def lines(self, rank: int | None = None) -> list[str]:
        """All captured lines in arrival order (optionally for one rank)."""
        with self._lock:
            return [
                line.text
                for line in self._lines
                if rank is None or line.rank == rank
            ]

    def text(self) -> str:
        return "\n".join(self.lines())

    def clear(self) -> None:
        with self._lock:
            self._lines.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._lines)


class _SharedRegistry:
    """First-caller-creates registry for collectively constructed objects.

    All ranks of a communicator execute collective constructors (``Split``,
    ``Create_cart``) in the same order, so a deterministic key identifies
    "the same call site" across ranks.  The first rank to arrive runs the
    factory; the rest receive the identical object.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._objects: dict[Any, Any] = {}

    def get_or_create(self, key: Any, factory: Callable[[], Any]) -> Any:
        with self._lock:
            if key not in self._objects:
                self._objects[key] = factory()
            return self._objects[key]


class World:
    """A set of rank threads sharing one MPI universe."""

    def __init__(
        self,
        size: int,
        *,
        hostname: str = "d6ff4f902ed6",
        deadlock_timeout: float = DEFAULT_DEADLOCK_TIMEOUT,
        poll_interval: float = 0.02,
        all_blocked_grace: float = 0.35,
    ) -> None:
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        self.size = size
        self.hostname = hostname
        self.deadlock_timeout = deadlock_timeout
        self.poll_interval = poll_interval
        self.all_blocked_grace = all_blocked_grace
        self.console = Console()
        self.registry = _SharedRegistry()

        self._cid_counter = 0
        self._cid_lock = threading.Lock()

        self._state_lock = threading.Lock()
        self._alive = 0
        self._blocked = 0
        self._all_blocked_since: float | None = None
        self._started_at: float | None = None

        self._abort_error: BaseException | None = None
        self._rank_of_thread: dict[int, int] = {}

        #: Fault injector (``repro.testkit.faults``); ``None`` = no faults.
        #: Set before the creation hooks run so an armed plan can attach.
        self.injector = None

        # COMM_WORLD is built lazily to avoid a circular import at module load.
        from .comm import Intracomm

        self.comm_world: Intracomm = Intracomm._create_world(self)
        for hook in list(_creation_hooks):
            hook(self)

    # -- communicator-id allocation ------------------------------------------------
    def next_cid(self) -> int:
        with self._cid_lock:
            self._cid_counter += 1
            return self._cid_counter

    # -- rank bookkeeping ----------------------------------------------------------
    def bind_current_thread(self, rank: int) -> None:
        """Associate the calling thread with an MPI rank of this world."""
        with self._state_lock:
            self._rank_of_thread[threading.get_ident()] = rank

    def unbind_current_thread(self) -> None:
        with self._state_lock:
            self._rank_of_thread.pop(threading.get_ident(), None)

    def rank_of_current_thread(self) -> int:
        try:
            return self._rank_of_thread[threading.get_ident()]
        except KeyError:
            raise NotInWorldError(
                "this thread is not an MPI rank of the active world"
            ) from None

    # -- progress tracking ----------------------------------------------------------
    def enter_blocked(self) -> None:
        with self._state_lock:
            self._blocked += 1
            if self._alive and self._blocked >= self._alive:
                self._all_blocked_since = time.monotonic()

    def exit_blocked(self) -> None:
        with self._state_lock:
            self._blocked -= 1
            self._all_blocked_since = None

    def deadlock_suspected(self) -> bool:
        """True when every live rank has been blocked for the grace period.

        The grace period absorbs the scheduling jitter between a sender
        enqueueing an envelope and the receiver's condition variable waking:
        a genuinely matched message wakes its receiver long before the grace
        period elapses.  The hard ``deadlock_timeout`` is a backstop for
        worlds where some ranks are spinning rather than parked.
        """
        with self._state_lock:
            if self._alive == 0:
                return False
            if self._blocked >= self._alive and self._all_blocked_since is not None:
                return time.monotonic() - self._all_blocked_since >= self.all_blocked_grace
        if self._started_at is not None and self.deadlock_timeout is not None:
            return time.monotonic() - self._started_at >= self.deadlock_timeout
        return False

    # -- abort handling ---------------------------------------------------------------
    def abort_with(self, error: BaseException) -> None:
        """Mark the world aborted; every parked rank re-raises on next poll."""
        with self._state_lock:
            if self._abort_error is None:
                self._abort_error = error

    def check_abort(self) -> None:
        err = self._abort_error
        if err is not None:
            raise err if isinstance(err, (DeadlockError, WorldAbortedError)) else WorldAbortedError()

    @property
    def aborted(self) -> bool:
        return self._abort_error is not None

    # -- execution ------------------------------------------------------------------
    def run(
        self,
        fn: Callable[..., Any],
        args: Iterable[Any] = (),
        kwargs: dict[str, Any] | None = None,
    ) -> list[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank; return rank results.

        If any rank raises, the world is aborted (unparking blocked peers)
        and a :class:`RankFailedError` carrying each original exception is
        raised.  A detected deadlock surfaces as :class:`DeadlockError`.
        """
        kwargs = kwargs or {}
        results: list[Any] = [None] * self.size
        failures: dict[int, BaseException] = {}
        barrier_done = threading.Barrier(self.size)

        def entry(rank: int) -> None:
            comm = self.comm_world._for_rank(rank)
            self.bind_current_thread(rank)
            try:
                results[rank] = fn(comm, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - we re-raise aggregated
                failures[rank] = exc
                self.abort_with(
                    exc
                    if isinstance(exc, (DeadlockError, WorldAbortedError))
                    else WorldAbortedError(errorcode=1, origin=rank)
                )
            finally:
                try:
                    # Deliver any envelopes still coalesced in this rank's
                    # send batch: a peer may be blocked receiving one.
                    comm._flush_sends()
                except Exception:
                    pass
                with self._state_lock:
                    self._alive -= 1
                    # The survivors may all be parked already: start the
                    # all-blocked clock here too, or nothing would start it
                    # and they would wait out the hard deadlock timeout.
                    if self._alive and self._blocked >= self._alive:
                        self._all_blocked_since = time.monotonic()
                self.unbind_current_thread()
                try:
                    barrier_done.wait(timeout=self.deadlock_timeout)
                except threading.BrokenBarrierError:
                    pass

        threads = [
            threading.Thread(target=entry, args=(rank,), name=f"mpi-rank-{rank}", daemon=True)
            for rank in range(self.size)
        ]
        with self._state_lock:
            self._alive = self.size
            self._abort_error = None
            self._started_at = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=self.deadlock_timeout * 4 if self.deadlock_timeout else None)
            if t.is_alive():  # pragma: no cover - watchdog of last resort
                self.abort_with(DeadlockError("rank thread failed to terminate"))
        if failures:
            only = set(type(e) for e in failures.values())
            if only == {DeadlockError}:
                raise next(iter(failures.values()))
            # Filter out ranks that died only because a sibling aborted them.
            primary = {
                r: e for r, e in failures.items() if not isinstance(e, WorldAbortedError)
            }
            raise RankFailedError(primary or failures)
        return results


# ---------------------------------------------------------------------------
# Module-level convenience: an "active world" stack so script-style code (and
# the notebook/mpirun emulation) can resolve MPI.COMM_WORLD for the calling
# thread without plumbing a comm argument.
# ---------------------------------------------------------------------------

_active_worlds: list[World] = []
_active_lock = threading.Lock()


def _push_world(world: World) -> None:
    with _active_lock:
        _active_worlds.append(world)


def _pop_world(world: World) -> None:
    with _active_lock:
        if world in _active_worlds:
            _active_worlds.remove(world)


def current_comm():
    """The calling rank-thread's COMM_WORLD view, for proxy-style access."""
    with _active_lock:
        candidates = list(reversed(_active_worlds))
    for world in candidates:
        try:
            rank = world.rank_of_current_thread()
        except NotInWorldError:
            continue
        return world.comm_world._for_rank(rank)
    raise NotInWorldError(
        "MPI.COMM_WORLD was accessed outside an mpirun/World.run context"
    )


def run(
    fn: Callable[..., Any],
    size: int,
    *args: Any,
    hostname: str = "d6ff4f902ed6",
    deadlock_timeout: float = DEFAULT_DEADLOCK_TIMEOUT,
    **kwargs: Any,
) -> list[Any]:
    """Run an SPMD function on a fresh world of ``size`` ranks.

    Example
    -------
    >>> from repro.mpi import run
    >>> def hello(comm):
    ...     return comm.Get_rank() ** 2
    >>> run(hello, 4)
    [0, 1, 4, 9]
    """
    world = World(size, hostname=hostname, deadlock_timeout=deadlock_timeout)
    _push_world(world)
    try:
        return world.run(fn, args=args, kwargs=kwargs)
    finally:
        _pop_world(world)
