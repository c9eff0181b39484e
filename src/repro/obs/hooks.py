"""The runtime instrumentation seam: one :class:`HookSeam` per runtime.

The analysis, testing and tracing layers (:mod:`repro.analysis`,
:mod:`repro.testkit`, :mod:`repro.obs`, :class:`repro.mpi.CommTracer`)
observe synchronization, memory and message events inside the two runtimes
without the runtimes importing them — that would be circular and a
permanent tax on uninstrumented runs.  This module is the thin seam
between the two sides, and it imports nothing but the standard library, so
a runtime that imports it pulls in nothing else of :mod:`repro.obs`.

There is one seam class and one instance per runtime, :data:`openmp` and
:data:`mpi`.  Each instance keeps its own :attr:`HookSeam.enabled`
fast-path flag, so an observer of one runtime (the race detector, the
schedule controller, the communication tracer) never turns on the other
runtime's call sites.  Runtime call sites test the flag before paying for
an ``emit`` call::

    from ..obs.hooks import openmp as _hooks

    if _hooks.enabled:
        _hooks.emit("barrier_enter", team)

OpenMP vocabulary (``openmp.emit(event, *args)``; the emitting OS thread is
implicit — observers call ``threading.get_ident()``):

========================  =====================================================
``fork``, team            a parallel region is forking ``team``
``thread_begin``, team, n team member ``n`` starts running the region body
``thread_end``, team, n   team member ``n`` finished the region body
``join``, team            all members of ``team`` joined
``barrier_enter``, team   calling thread arrived at a team barrier
``barrier_exit``, team    calling thread passed the team barrier
``acquire``, key          calling thread now holds lock ``key``
``release``, key          calling thread is about to drop lock ``key``
``read``, key, obj        shared-location read (``obj`` describes the location)
``write``, key, obj       shared-location write
``task_submit``, hid      a task was submitted (``hid`` = handle id)
``task_start``, hid       a thread began executing the task
``task_end``, hid         the task body finished
``task_join``, hid        calling thread observed the task's completion
``task_join_all``         calling thread waited for *all* outstanding tasks
``reduction``, name       a reduction clause combined private partials
``acquire_enter``, key    calling thread is about to block acquiring ``key``
``ws_loop_begin``, n, sch calling thread entered a worksharing loop
``ws_loop_end``, n        calling thread drained its share of the loop
``chunk_begin``, lo, hi   a process-backend worker started a chunk task
``chunk_end``, lo, hi     the chunk task finished
========================  =====================================================

Ordering discipline for lock events: ``acquire`` is emitted *after* the
real lock is taken and ``release`` *before* it is dropped, so observer-side
vector clocks can never see two owners of the same lock out of order.
``acquire_enter`` (wanted only by the profiler, to measure contention) is
emitted *before* the acquisition attempt; observers that only care about
ownership can ignore it.

MPI vocabulary (``mpi.emit(event, *args)``; args are plain ints and
strings so events pickle cheaply across the process-rank boundary):

===============================  =============================================
``send``, cid, src, dest,        a user-context message was enqueued
tag, nbytes
``recv_enter``, cid, rank,       calling rank is blocking in a receive
source, tag                      (``source``/``tag`` may be wildcards)
``recv_exit``, cid, rank,        the receive matched a message of ``nbytes``
source, tag, nbytes
``coll_enter``, cid, rank, name  calling rank entered collective ``name``
``coll_exit``, cid, rank, name   the collective completed on this rank
``coll_algo``, cid, rank,        the algorithm this rank resolved for the
name, algo                       collective (auto-pick, env, or keyword)
``coll_msg``, cid, src, dest,    one internal collective-transport message
nbytes
``wait_enter``, cid, rank        calling rank is blocking in a request wait
``wait_exit``, cid, rank         the wait completed
===============================  =============================================

``cid`` is the communicator context id (:attr:`CommCore.cid` on the
threaded backend; process ranks use 0 — their COMM_WORLD is the only
communicator with a user context).

Two observer flavors share each seam:

* plain observers (``attach(obs)``) receive ``obs(event, *args)`` — the
  protocol the race detector uses;
* timestamped observers (``attach(obs, timestamped=True)``) receive
  ``obs(ts, event, *args)`` with ``ts`` from :func:`time.monotonic` — the
  protocol the :mod:`repro.obs` recorders use.  The clock is read once per
  ``emit`` and only when a timestamped observer is attached, so plain
  instrumentation (and uninstrumented runs) never pay for it.  Call sites
  that already hold a timestamp (e.g. forwarded worker events) may pass it
  via ``emit(..., ts=...)``.
"""

from __future__ import annotations

import time
from typing import Any, Callable

__all__ = ["HookSeam", "openmp", "mpi"]

_monotonic = time.monotonic


class HookSeam:
    """One runtime's observer set and its fast-path flag."""

    __slots__ = ("enabled", "_observers", "_ts_observers")

    def __init__(self) -> None:
        #: Fast-path flag: call sites test this before paying for ``emit``.
        self.enabled = False
        # Immutable snapshots of the observer sets.  ``attach``/``detach``
        # replace the tuples wholesale, so ``emit`` can iterate them
        # directly — no per-event copy — while an observer detaching
        # mid-delivery still sees a consistent snapshot.
        self._observers: tuple[Callable[..., None], ...] = ()
        self._ts_observers: tuple[Callable[..., None], ...] = ()

    def attach(self, observer: Callable[..., None], timestamped: bool = False) -> None:
        """Register an event observer (idempotent).

        Plain observers are called ``observer(event, *args)``; timestamped
        ones ``observer(ts, event, *args)`` with a shared monotonic
        timestamp.
        """
        if timestamped:
            if observer not in self._ts_observers:
                self._ts_observers = self._ts_observers + (observer,)
        elif observer not in self._observers:
            self._observers = self._observers + (observer,)
        self.enabled = True

    def detach(self, observer: Callable[..., None]) -> None:
        """Unregister an observer; clears the fast-path flag with the last one."""
        # Filter by equality, not identity: observers registered as bound
        # methods (e.g. ``recorder._on_openmp``) produce a fresh method
        # object on every attribute access, and those compare ``==`` but
        # never ``is``.
        if observer in self._observers:
            self._observers = tuple(o for o in self._observers if o != observer)
        if observer in self._ts_observers:
            self._ts_observers = tuple(o for o in self._ts_observers if o != observer)
        self.enabled = bool(self._observers or self._ts_observers)

    def emit(self, event: str, *args: Any, ts: float | None = None) -> None:
        """Deliver one runtime event to every attached observer.

        Cheap when instrumentation is off: call sites are expected to guard
        with :attr:`enabled`, and ``emit`` itself early-returns as a second
        line of defense so an unguarded call costs one predictable branch.
        The monotonic clock is read only when a timestamped observer is
        attached and no explicit ``ts`` was supplied.
        """
        if not self.enabled:
            return
        for observer in self._observers:
            observer(event, *args)
        ts_observers = self._ts_observers
        if ts_observers:
            if ts is None:
                ts = _monotonic()
            for observer in ts_observers:
                observer(ts, event, *args)


#: The shared-memory runtime's seam (:mod:`repro.openmp`).
openmp = HookSeam()

#: The message-passing runtime's seam (:mod:`repro.mpi`, both backends).
mpi = HookSeam()
