"""OpenMP 3.0-style tasking: ``task``, ``taskwait``, ``taskgroup``.

Recursive decomposition (the parallel-mergesort exemplar, tree traversals)
doesn't fit worksharing loops; OpenMP solves it with explicit tasks.  This
module provides the same model on the thread-team runtime:

* :func:`task` submits a deferred unit of work to the team's shared pool
  and returns a :class:`TaskHandle`;
* idle team members (and any thread that blocks in :func:`taskwait` or
  ``TaskHandle.result``) *steal* pending tasks while they wait, so
  recursive task trees make progress even on a team of one;
* :class:`taskgroup` waits for all tasks submitted inside its scope.

Outside a parallel region tasks run inline (serial semantics), matching
OpenMP's behaviour for orphaned task constructs.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable

from ..obs.hooks import openmp as _hooks
from .team import current_team

__all__ = ["TaskHandle", "task", "taskwait", "taskgroup"]

#: Helping may nest this many task frames per thread before it degrades to
#: plain waiting (bounds stack growth on deep task chains).
_MAX_HELP_DEPTH = 25

_helping = threading.local()


class TaskHandle:
    """Completion handle for one submitted task."""

    __slots__ = (
        "_fn",
        "_args",
        "_kwargs",
        "_done",
        "_result",
        "_error",
        "_lock",
        "_on_inline_done",
    )

    def __init__(self, fn: Callable[..., Any], args: tuple, kwargs: dict) -> None:
        self._fn = fn
        self._args = args
        self._kwargs = kwargs
        self._done = threading.Event()
        self._result: Any = None
        self._error: BaseException | None = None
        self._lock = threading.Lock()
        self._on_inline_done: Callable[[], None] | None = None

    def _claim(self) -> bool:
        """Atomically claim execution rights (each task runs exactly once)."""
        with self._lock:
            if self._fn is None:
                return False
            return True

    def _execute(self) -> None:
        with self._lock:
            fn, self._fn = self._fn, None
        if fn is None:
            return
        if _hooks.enabled:
            _hooks.emit("task_start", id(self))
        try:
            self._result = fn(*self._args, **self._kwargs)
        except BaseException as exc:  # noqa: BLE001 - re-raised at result()
            self._error = exc
        finally:
            if _hooks.enabled:
                _hooks.emit("task_end", id(self))
            self._done.set()
            callback = self._on_inline_done
            if callback is not None:
                self._on_inline_done = None
                callback()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def result(self) -> Any:
        """Wait for completion (helping) and return the value.

        If this task is still pending, the waiting thread executes it
        inline — so stack depth grows only along the dependency chain, as
        with OpenMP's if-clause undeferred tasks.  While the task runs on
        another thread, the waiter helps with *unrelated* pending tasks,
        bounded by a per-thread depth cap (unbounded helping could nest
        arbitrary unrelated chains on one stack).
        """
        pool = _pool()
        if pool is not None and pool.try_remove(self):
            self._execute()
        depth = getattr(_helping, "depth", 0)
        while not self._done.is_set():
            if pool is None or depth >= _MAX_HELP_DEPTH:
                self._done.wait(timeout=0.001)
                continue
            _helping.depth = depth + 1
            try:
                helped = pool.run_one()
            finally:
                _helping.depth = depth
            if not helped:
                self._done.wait(timeout=0.001)
        if _hooks.enabled:
            _hooks.emit("task_join", id(self))
        if self._error is not None:
            raise self._error
        return self._result


class _TaskPool:
    """The team-shared deque of pending tasks."""

    def __init__(self) -> None:
        self._pending: deque[TaskHandle] = deque()
        self._lock = threading.Lock()
        self.outstanding = 0
        self._all_done = threading.Condition(self._lock)

    def submit(self, handle: TaskHandle) -> None:
        with self._lock:
            self._pending.append(handle)
            self.outstanding += 1

    def try_remove(self, handle: TaskHandle) -> bool:
        """Claim a specific pending task for inline execution by a waiter."""
        with self._lock:
            try:
                self._pending.remove(handle)
            except ValueError:
                return False
        # Balance the outstanding count when the inline execution finishes:
        # the waiter calls handle._execute() directly, so decrement here via
        # a completion callback on the handle's done event.
        def _on_done() -> None:
            with self._all_done:
                self.outstanding -= 1
                if self.outstanding == 0:
                    self._all_done.notify_all()

        handle._on_inline_done = _on_done
        return True

    def run_one(self) -> bool:
        """Execute one pending task if any; True if work was done."""
        with self._lock:
            if not self._pending:
                return False
            handle = self._pending.popleft()
        handle._execute()
        with self._all_done:
            self.outstanding -= 1
            if self.outstanding == 0:
                self._all_done.notify_all()
        return True

    def drain(self) -> None:
        """Help until no tasks remain outstanding anywhere in the team."""
        while True:
            if self.run_one():
                continue
            with self._all_done:
                if self.outstanding == 0:
                    return
                self._all_done.wait(timeout=0.001)


def _pool() -> _TaskPool | None:
    team = current_team()
    if team is None:
        return None
    with team._single_guard:
        pool = team.shared.get("__taskpool__")
        if pool is None:
            pool = team.shared["__taskpool__"] = _TaskPool()
        return pool


def task(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> TaskHandle:
    """``#pragma omp task``: submit deferred work to the team's pool.

    Outside a parallel region the task executes immediately (OpenMP's
    serial semantics for orphaned tasks).
    """
    handle = TaskHandle(fn, args, kwargs)
    if _hooks.enabled:
        _hooks.emit("task_submit", id(handle))
    pool = _pool()
    if pool is None:
        handle._execute()
        if handle._error is not None:
            raise handle._error
        return handle
    pool.submit(handle)
    return handle


def taskwait() -> None:
    """``#pragma omp taskwait``: help run tasks until the pool is empty.

    Note: like a taskgroup over *all* outstanding tasks — sufficient for
    the teaching workloads (divide-and-conquer joins), conservative for
    unrelated concurrent task streams.
    """
    pool = _pool()
    if pool is not None:
        pool.drain()
    if _hooks.enabled:
        _hooks.emit("task_join_all")


class taskgroup:
    """``#pragma omp taskgroup``: wait for tasks submitted inside the scope.

    >>> with taskgroup() as tg:
    ...     handles = [task(work, i) for i in range(8)]
    ... # all eight tasks complete here
    """

    def __init__(self) -> None:
        self._handles: list[TaskHandle] = []

    def task(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> TaskHandle:
        handle = task(fn, *args, **kwargs)
        self._handles.append(handle)
        return handle

    def __enter__(self) -> "taskgroup":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            return
        pool = _pool()
        for handle in self._handles:
            while not handle.done:
                if pool is None or not pool.run_one():
                    handle._done.wait(timeout=0.001)
            if _hooks.enabled:
                _hooks.emit("task_join", id(handle))
        # surface the first task error, as OpenMP would abort the group
        for handle in self._handles:
            if handle._error is not None:
                raise handle._error
