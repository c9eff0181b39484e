"""Thread teams and the fork-join parallel region.

``parallel_region(body, num_threads=N)`` is the ``#pragma omp parallel``
equivalent: it forks a team of N threads, runs ``body`` on every member,
joins them all (propagating the first exception), and returns the per-thread
return values.  Inside the body, :func:`get_thread_num` /
:func:`get_num_threads` behave like their ``omp_*`` namesakes, resolved
through a thread-local so nested helper functions need no plumbing.

Nested parallel regions follow OpenMP's default: a nested region executes
with a team of one (serialized) unless explicitly enabled.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from ..obs.hooks import openmp as _hooks
from .env import MAX_TEAM_SIZE, get_config

__all__ = [
    "Team",
    "parallel_region",
    "get_thread_num",
    "get_num_threads",
    "in_parallel",
    "current_team",
]

_tls = threading.local()


class Team:
    """One fork-join team: shared barrier, named critical locks, single/master
    coordination, and a per-region scratch space for reductions."""

    def __init__(self, num_threads: int) -> None:
        self.num_threads = num_threads
        self.barrier = threading.Barrier(num_threads)
        self._critical_locks: dict[str, threading.Lock] = {}
        self._critical_guard = threading.Lock()
        self._single_done: set[int] = set()
        self._single_guard = threading.Lock()
        self.shared: dict[str, Any] = {}

    def critical_lock(self, name: str) -> threading.Lock:
        """The lock backing ``critical(name)`` — one per name per team."""
        with self._critical_guard:
            lock = self._critical_locks.get(name)
            if lock is None:
                lock = self._critical_locks[name] = threading.Lock()
            return lock

    def claim_single(self, occurrence: int) -> bool:
        """First thread to arrive at ``single`` occurrence wins."""
        with self._single_guard:
            if occurrence in self._single_done:
                return False
            self._single_done.add(occurrence)
            return True


class _ThreadCtx:
    __slots__ = ("team", "thread_num", "single_counter", "worksharing_counter")

    def __init__(self, team: Team, thread_num: int) -> None:
        self.team = team
        self.thread_num = thread_num
        self.single_counter = 0
        self.worksharing_counter = 0


def _ctx_stack() -> list[_ThreadCtx]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def current_team() -> Team | None:
    """The innermost active team for the calling thread, if any."""
    stack = _ctx_stack()
    return stack[-1].team if stack else None


def _current_ctx() -> _ThreadCtx | None:
    stack = _ctx_stack()
    return stack[-1] if stack else None


def get_thread_num() -> int:
    """``omp_get_thread_num``: 0 outside any parallel region."""
    ctx = _current_ctx()
    return ctx.thread_num if ctx else 0


def get_num_threads() -> int:
    """``omp_get_num_threads``: 1 outside any parallel region."""
    ctx = _current_ctx()
    return ctx.team.num_threads if ctx else 1


def in_parallel() -> bool:
    """``omp_in_parallel``."""
    return _current_ctx() is not None


def _next_worksharing_occurrence() -> int:
    """Per-thread monotonic counter of worksharing constructs encountered.

    Every team member reaches worksharing loops in the same order (the
    standard's well-formedness requirement), so this occurrence number is a
    team-consistent identity for "the Nth loop of this region" — unlike
    ``id(body)``, which collides when the same body object reaches a second
    loop (and would hand the second loop an exhausted shared scheduler).
    """
    ctx = _current_ctx()
    if ctx is None:
        return 0
    occurrence = ctx.worksharing_counter
    ctx.worksharing_counter += 1
    return occurrence


def _claim_single() -> bool:
    """Internal hook for ``sync.single``: per-call-site winner election."""
    ctx = _current_ctx()
    if ctx is None:
        return True
    occurrence = ctx.single_counter
    ctx.single_counter += 1
    return ctx.team.claim_single(occurrence)


def parallel_region(
    body: Callable[..., Any],
    num_threads: int | None = None,
    args: tuple[Any, ...] = (),
) -> list[Any]:
    """Fork a team, run ``body(*args)`` on each member, join, return results.

    The master thread (thread 0) runs in the caller, as in OpenMP.  If any
    member raises, every member is still joined, and the lowest-numbered
    failing thread's exception is re-raised with the others attached as
    ``__exceptions__``.
    """
    if num_threads is None:
        num_threads = get_config().num_threads
    if not 1 <= num_threads <= MAX_TEAM_SIZE:
        raise ValueError(
            f"num_threads must be in [1, {MAX_TEAM_SIZE}], got {num_threads}"
        )
    if in_parallel():
        # OpenMP default: nested parallelism disabled -> serialize inner team.
        num_threads = 1

    team = Team(num_threads)
    results: list[Any] = [None] * num_threads
    errors: dict[int, BaseException] = {}
    if _hooks.enabled:
        _hooks.emit("fork", team)

    def member(thread_num: int) -> None:
        stack = _ctx_stack()
        stack.append(_ThreadCtx(team, thread_num))
        if _hooks.enabled:
            _hooks.emit("thread_begin", team, thread_num)
        try:
            results[thread_num] = body(*args)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors[thread_num] = exc
            team.barrier.abort()
        finally:
            if _hooks.enabled:
                _hooks.emit("thread_end", team, thread_num)
            stack.pop()

    workers = [
        threading.Thread(target=member, args=(t,), name=f"omp-thread-{t}")
        for t in range(1, num_threads)
    ]
    for w in workers:
        w.start()
    member(0)
    for w in workers:
        w.join()
    if _hooks.enabled:
        _hooks.emit("join", team)
    if errors:
        first = errors[min(errors)]
        first.__exceptions__ = errors  # type: ignore[attr-defined]
        raise first
    return results
