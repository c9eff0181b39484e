"""Communication tracing: who sent how much to whom.

Teaching aid and benchmarking instrument: wrap a world in a
:class:`CommTracer` to record every user-context message (source, dest,
tag, bytes), then summarize as per-rank totals or a traffic matrix.

The tracer is a consumer of the :data:`repro.obs.hooks.mpi` seam — the
same seam the :mod:`repro.obs` recorders subscribe to — rather than a
mailbox monkey-patch: it attaches a plain (untimestamped) observer and
keeps only the events whose communicator id matches the communicator it
was attached to.  Alongside user point-to-point traffic it now also
counts collective-context traffic (``coll_msg`` events), reported
separately so the patternlet pedagogy — count the *explicit* sends and
recvs — is undisturbed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from ..obs.hooks import mpi as _hooks

__all__ = ["MessageRecord", "TraceReport", "CommTracer", "trace_run"]

#: Tag used for collective-context records (collectives carry no user tag).
COLLECTIVE_TAG = -1


@dataclass(frozen=True)
class MessageRecord:
    """One observed user-context message."""

    source: int
    dest: int
    tag: int
    nbytes: int


@dataclass
class TraceReport:
    """Aggregated view of a traced run."""

    size: int
    records: list[MessageRecord]
    collective_records: list[MessageRecord] = field(default_factory=list)

    @property
    def total_messages(self) -> int:
        return len(self.records)

    @property
    def total_bytes(self) -> int:
        return sum(r.nbytes for r in self.records)

    @property
    def collective_messages(self) -> int:
        return len(self.collective_records)

    @property
    def collective_bytes(self) -> int:
        return sum(r.nbytes for r in self.collective_records)

    def traffic_matrix(self) -> list[list[int]]:
        """``matrix[src][dst]`` = messages sent src -> dst."""
        matrix = [[0] * self.size for _ in range(self.size)]
        for r in self.records:
            matrix[r.source][r.dest] += 1
        return matrix

    def sent_by(self, rank: int) -> int:
        return sum(1 for r in self.records if r.source == rank)

    def received_by(self, rank: int) -> int:
        return sum(1 for r in self.records if r.dest == rank)

    def format_matrix(self) -> str:
        matrix = self.traffic_matrix()
        header = "src\\dst " + " ".join(f"{d:>5}" for d in range(self.size))
        rows = [
            f"{src:>7} " + " ".join(f"{n:>5}" for n in row)
            for src, row in enumerate(matrix)
        ]
        lines = [header, *rows, f"total: {self.total_messages} messages, "
                                f"{self.total_bytes} bytes"]
        if self.collective_records:
            lines.append(
                f"collective: {self.collective_messages} messages, "
                f"{self.collective_bytes} bytes"
            )
        return "\n".join(lines)


class CommTracer:
    """Record user-context messages flowing through one communicator.

    Subscribes a plain observer to the MPI hook bus; ``send`` events
    become user records, ``coll_msg`` events become collective records.
    Events for other communicators (different ``cid``) are ignored.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[MessageRecord] = []
        self._collective: list[MessageRecord] = []
        self._cid: int | None = None
        self._size = 0
        self._attached = False

    def _observe(self, event: str, *args: Any) -> None:
        if event == "send":
            cid, src, dest, tag, nbytes = args[:5]
            if cid != self._cid:
                return
            record = MessageRecord(src, dest, tag, nbytes)
            with self._lock:
                self._records.append(record)
        elif event == "coll_msg":
            cid, src, dest, nbytes = args[:4]
            if cid != self._cid:
                return
            record = MessageRecord(src, dest, COLLECTIVE_TAG, nbytes)
            with self._lock:
                self._collective.append(record)

    def attach(self, comm: Any) -> None:
        """Start recording traffic on ``comm``'s communicator."""
        self._cid = comm._obs_cid
        self._size = comm.size
        if not self._attached:
            _hooks.attach(self._observe)
            self._attached = True

    def detach(self) -> None:
        if self._attached:
            _hooks.detach(self._observe)
            self._attached = False

    def report(self) -> TraceReport:
        with self._lock:
            return TraceReport(
                self._size, list(self._records), list(self._collective)
            )


def trace_run(fn: Any, np: int, *args: Any, **kwargs: Any) -> tuple[list[Any], TraceReport]:
    """Run an SPMD function with tracing; return (results, trace report).

    COMM_WORLD's user-context point-to-point traffic makes up the main
    report — per the patternlet pedagogy, the explicit sends/recvs
    learners should count — with collective-context traffic tallied
    separately in ``collective_records``.
    """
    from .runtime import World, _pop_world, _push_world

    world = World(np, **{k: v for k, v in kwargs.items() if k in (
        "hostname", "deadlock_timeout")})
    fn_kwargs = {k: v for k, v in kwargs.items() if k not in (
        "hostname", "deadlock_timeout")}
    tracer = CommTracer()
    tracer.attach(world.comm_world)
    _push_world(world)
    try:
        results = world.run(fn, args=args, kwargs=fn_kwargs)
    finally:
        _pop_world(world)
        tracer.detach()
    return results, tracer.report()
