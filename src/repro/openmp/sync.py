"""Synchronization constructs: critical, atomic, barrier, single, master, locks.

These are the constructs the Runestone shared-memory module teaches as the
*fixes* for race conditions (the ``critical`` and ``atomic`` patternlets)
and as coordination primitives (``barrier``, ``master``, ``single``).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Callable, Generator, Iterator

from ..obs.hooks import openmp as _hooks
from .team import _claim_single, current_team, get_thread_num

__all__ = [
    "critical",
    "barrier",
    "master",
    "single",
    "Lock",
    "AtomicCounter",
    "AtomicAccumulator",
]


@contextlib.contextmanager
def critical(name: str = "") -> Generator[None, None, None]:
    """``#pragma omp critical [(name)]``: team-wide named mutual exclusion.

    Unnamed critical sections share one lock, exactly as in OpenMP.  Outside
    a parallel region the construct is a no-op (single thread).
    """
    team = current_team()
    if team is None:
        yield
        return
    lock = team.critical_lock(name or "<unnamed>")
    if _hooks.enabled:
        # Before the acquisition attempt: the profiler charges the gap up
        # to ``acquire`` as contention wait (the race detector ignores it).
        _hooks.emit("acquire_enter", ("critical", id(lock)))
    with lock:
        if not _hooks.enabled:
            yield
            return
        _hooks.emit("acquire", ("critical", id(lock)))
        try:
            yield
        finally:
            _hooks.emit("release", ("critical", id(lock)))


def barrier() -> None:
    """``#pragma omp barrier``: wait for every team member."""
    team = current_team()
    if team is not None:
        if _hooks.enabled:
            _hooks.emit("barrier_enter", team)
        team.barrier.wait()
        if _hooks.enabled:
            _hooks.emit("barrier_exit", team)


def master(fn: Callable[[], Any] | None = None) -> Any:
    """``#pragma omp master``: run only on thread 0 (no implied barrier).

    Usable two ways: ``if master():`` as a predicate, or ``master(fn)`` to
    call ``fn`` on the master thread only (returns ``fn()`` there, ``None``
    elsewhere).
    """
    is_master = get_thread_num() == 0
    if fn is None:
        return is_master
    return fn() if is_master else None


def single(fn: Callable[[], Any] | None = None, nowait: bool = False) -> Any:
    """``#pragma omp single``: exactly one (arbitrary) thread executes.

    As a predicate, ``if single():`` elects a winner per call-site
    occurrence; every thread must reach the same occurrence (the standard's
    usual well-formedness requirement).  With ``fn``, the winner calls it.
    An implicit barrier follows unless ``nowait`` — matching OpenMP.
    """
    winner = _claim_single()
    result = None
    if fn is not None and winner:
        result = fn()
    if not nowait and fn is not None:
        barrier()
    if fn is None:
        return winner
    return result


class Lock:
    """``omp_lock_t`` equivalent (init/set/unset/test in OpenMP speak)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()

    def set(self) -> None:
        """``omp_set_lock``: blocking acquire."""
        if _hooks.enabled:
            _hooks.emit("acquire_enter", ("lock", id(self._lock)))
        self._lock.acquire()
        if _hooks.enabled:
            _hooks.emit("acquire", ("lock", id(self._lock)))

    def unset(self) -> None:
        """``omp_unset_lock``: release."""
        if _hooks.enabled:
            _hooks.emit("release", ("lock", id(self._lock)))
        self._lock.release()

    def test(self) -> bool:
        """``omp_test_lock``: nonblocking acquire; True on success."""
        acquired = self._lock.acquire(blocking=False)
        if acquired and _hooks.enabled:
            _hooks.emit("acquire", ("lock", id(self._lock)))
        return acquired

    def __enter__(self) -> "Lock":
        self.set()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.unset()


def _plus(a: int, b: int) -> int:
    """Trivial helper whose call frame gives the scheduler a chance to switch."""
    return a + b


class AtomicCounter:
    """``#pragma omp atomic`` on an integer: indivisible read-modify-write."""

    __slots__ = ("_value", "_lock", "_site")

    def __init__(self, initial: int = 0) -> None:
        self._value = initial
        self._lock = threading.Lock()
        # Allocation site, recorded only under analysis so race reports can
        # name the shared variable; free when no detector is attached.
        self._site = None
        if _hooks.enabled:
            from ..analysis.race import _caller_site

            self._site = _caller_site()

    def _emit_update(self, kind_read: bool = True) -> None:
        _hooks.emit("acquire", ("lock", id(self._lock)))
        if kind_read:
            _hooks.emit("read", id(self), self)
        _hooks.emit("write", id(self), self)

    def add(self, delta: int = 1) -> int:
        """Atomically add; returns the new value."""
        if _hooks.enabled:
            _hooks.emit("acquire_enter", ("lock", id(self._lock)))
        with self._lock:
            if _hooks.enabled:
                self._emit_update()
            self._value += delta
            new = self._value
            if _hooks.enabled:
                _hooks.emit("release", ("lock", id(self._lock)))
            return new

    def increment(self) -> int:
        return self.add(1)

    def decrement(self) -> int:
        return self.add(-1)

    def fetch_and_add(self, delta: int) -> int:
        """Atomically add; returns the *old* value (the dynamic-scheduling
        workhorse)."""
        if _hooks.enabled:
            _hooks.emit("acquire_enter", ("lock", id(self._lock)))
        with self._lock:
            if _hooks.enabled:
                self._emit_update()
            old = self._value
            self._value += delta
            if _hooks.enabled:
                _hooks.emit("release", ("lock", id(self._lock)))
            return old

    @property
    def value(self) -> int:
        with self._lock:
            if _hooks.enabled:
                _hooks.emit("acquire", ("lock", id(self._lock)))
                _hooks.emit("read", id(self), self)
                _hooks.emit("release", ("lock", id(self._lock)))
            return self._value

    def unsafe_read_modify_write(self, delta: int = 1) -> None:
        """The *broken* version: a deliberately non-atomic ``x = x + delta``.

        Exists so the race-condition patternlet can demonstrate lost updates
        against the very same counter object that ``add`` protects.  The
        modify step goes through a function call because CPython (3.10+)
        only checks its thread-switch eval-breaker at call and backward-jump
        boundaries; without a call between the read and the write the window
        would never be preempted and the race would be invisible.
        """
        if _hooks.enabled:
            _hooks.emit("read", id(self), self)
        value = self._value  # read
        value = _plus(value, delta)  # modify (call boundary: preemption point)
        if _hooks.enabled:
            _hooks.emit("write", id(self), self)
        self._value = value  # write


class AtomicAccumulator:
    """Atomic accumulation for floats (``sum += term`` under a lock)."""

    __slots__ = ("_value", "_lock", "_site")

    def __init__(self, initial: float = 0.0) -> None:
        self._value = float(initial)
        self._lock = threading.Lock()
        self._site = None
        if _hooks.enabled:
            from ..analysis.race import _caller_site

            self._site = _caller_site()

    def add(self, delta: float) -> float:
        if _hooks.enabled:
            _hooks.emit("acquire_enter", ("lock", id(self._lock)))
        with self._lock:
            if _hooks.enabled:
                _hooks.emit("acquire", ("lock", id(self._lock)))
                _hooks.emit("read", id(self), self)
                _hooks.emit("write", id(self), self)
            self._value += delta
            new = self._value
            if _hooks.enabled:
                _hooks.emit("release", ("lock", id(self._lock)))
            return new

    @property
    def value(self) -> float:
        with self._lock:
            if _hooks.enabled:
                _hooks.emit("acquire", ("lock", id(self._lock)))
                _hooks.emit("read", id(self), self)
                _hooks.emit("release", ("lock", id(self._lock)))
            return self._value
