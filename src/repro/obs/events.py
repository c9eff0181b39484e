"""The observability event model.

An :class:`Event` is one timestamped occurrence captured from a runtime
hook seam (:data:`repro.obs.hooks.openmp` or :data:`repro.obs.hooks.mpi`).  Events
are *flat* — plain scalars only — so they pickle cheaply across the
process-backend boundary and serialize stably into trace files.  Hook
arguments that are live runtime objects (teams, counters) are reduced to
``(kind, id, ...)`` tuples at capture time by :func:`sanitize_args`.

The per-event coordinates:

``ts``
    Monotonic capture time (``time.monotonic()`` seconds) in the clock of
    the *capturing* process; merged worker events are shifted into the
    parent's clock by the recorder (see ``recorder.ingest_forwarded``).
``source``
    Which seam emitted it: ``"openmp"`` or ``"mpi"``.
``tid``
    OS thread ident of the emitting thread (``threading.get_ident()``),
    the lane key inside one process.
``proc``
    ``None`` for the main process, else a ``(kind, index)`` pair naming
    the worker: ``("worker", pid)`` for OpenMP pool workers and
    ``("rank", r)`` for MPI process ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Event", "sanitize_args"]

_SCALARS = (int, float, str, bool, type(None))


def sanitize_args(args: tuple) -> tuple:
    """Reduce hook arguments to picklable, stable scalars.

    Scalars pass through; tuples recurse (lock keys are ``(kind, id)``
    tuples); anything else — team objects, atomic counters — collapses to
    ``(type_name, id)`` so the event neither pins the object alive nor
    drags unpicklable state across a process boundary.
    """
    out = []
    for a in args:
        if isinstance(a, _SCALARS):
            out.append(a)
        elif isinstance(a, tuple):
            out.append(sanitize_args(a))
        else:
            num = getattr(a, "num_threads", None)
            if num is not None:  # a Team: keep the size, it labels lanes
                out.append((type(a).__name__, id(a), num))
            else:
                out.append((type(a).__name__, id(a)))
    return tuple(out)


@dataclass(frozen=True)
class Event:
    """One captured runtime event (see module docstring for coordinates)."""

    ts: float
    source: str
    name: str
    args: tuple = ()
    tid: int = 0
    proc: tuple | None = None

    def shifted(self, offset: float) -> "Event":
        """The same event with ``ts`` moved by ``offset`` seconds."""
        if offset == 0.0:
            return self
        return Event(
            ts=self.ts + offset,
            source=self.source,
            name=self.name,
            args=self.args,
            tid=self.tid,
            proc=self.proc,
        )

    def lane_key(self) -> tuple:
        """Grouping key for one execution lane (process, thread)."""
        return (self.proc, self.tid)
