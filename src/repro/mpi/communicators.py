"""``create_communicator(name)``: topology-aware communicator variants.

Modeled on chainermn's communicator family: one factory returns a view
over an existing communicator (an ``Intracomm`` on either backend) whose
collectives are specialized for a topology:

``naive``
    Every collective forced to its linear reference algorithm — the
    baseline the differential suite races everything against.
``flat``
    The cost-model auto-pick, unmodified (what a bare communicator does).
``hierarchical``
    ``allreduce``/``Allreduce`` run a two-level schedule: rank-order fold
    to a per-node leader, ring allgather + fold across leaders, broadcast
    back down.  Nodes come from packed placement over the platform's
    cores-per-node (``rank // ranks_per_node``), matching
    :meth:`repro.platforms.machine.Cluster.nodes_for`.
``two_dimensional``
    ``allreduce``/``Allreduce`` run a 2D-mesh schedule (row stage then
    column stage), with the row count the largest divisor of the world
    size not exceeding its square root.

The views delegate everything else to the wrapped communicator, so they
drop into any SPMD body that takes ``comm``.
"""

from __future__ import annotations

import os
from typing import Any

from . import collectives as _coll
from ..obs.hooks import mpi as _hooks
from .buffers import parse_buffer
from .ops import SUM, Op

__all__ = ["COMMUNICATOR_NAMES", "CommunicatorView", "create_communicator"]

COMMUNICATOR_NAMES = ("naive", "flat", "hierarchical", "two_dimensional")


def _ranks_per_node(platform: str | None, size: int) -> int:
    """Packed cores-per-node for the named platform (default: env/laptop)."""
    from ..platforms.machine import PLATFORMS

    name = platform or os.environ.get("REPRO_COLL_PLATFORM", "laptop")
    machine = PLATFORMS.get(name) or PLATFORMS["laptop"]
    node = getattr(machine, "node", machine)
    return max(1, min(node.cores, size))


def _mesh_rows(size: int) -> int:
    """Largest divisor of ``size`` that is at most sqrt(size)."""
    rows = 1
    d = 1
    while d * d <= size:
        if size % d == 0:
            rows = d
        d += 1
    return rows


class CommunicatorView:
    """Delegating communicator wrapper; subclasses override collectives."""

    variant = "flat"

    def __init__(self, comm: Any) -> None:
        self._comm = comm

    def __getattr__(self, name: str) -> Any:
        return getattr(self._comm, name)

    # traced_collective reads these off ``self``; route to the wrapped comm.
    @property
    def _obs_cid(self) -> int:
        return self._comm._obs_cid

    @property
    def _rank(self) -> int:
        return self._comm.rank

    def _emit_algo(self, collective: str, algo: str) -> None:
        if _hooks.enabled:
            _hooks.emit("coll_algo", self._obs_cid, self._rank, collective, algo)


class NaiveCommunicator(CommunicatorView):
    """Everything linear: the reference against which the rest is raced."""

    variant = "naive"

    def bcast(self, obj: Any, root: int = 0, **kw: Any) -> Any:
        kw.setdefault("algorithm", "linear")
        return self._comm.bcast(obj, root, **kw)

    def reduce(self, sendobj: Any, op: Op = SUM, root: int = 0, **kw: Any) -> Any:
        kw.setdefault("algorithm", "linear")
        return self._comm.reduce(sendobj, op, root, **kw)

    def allreduce(self, sendobj: Any, op: Op = SUM, **kw: Any) -> Any:
        kw.setdefault("algorithm", "linear")
        return self._comm.allreduce(sendobj, op, **kw)

    def allgather(self, sendobj: Any, **kw: Any) -> Any:
        kw.setdefault("algorithm", "linear")
        return self._comm.allgather(sendobj, **kw)

    def Bcast(self, buf: Any, root: int = 0, **kw: Any) -> None:
        kw.setdefault("algorithm", "linear")
        self._comm.Bcast(buf, root, **kw)

    def Reduce(self, sendbuf: Any, recvbuf: Any, op: Op = SUM, root: int = 0,
               **kw: Any) -> None:
        kw.setdefault("algorithm", "linear")
        self._comm.Reduce(sendbuf, recvbuf, op, root, **kw)

    def Allreduce(self, sendbuf: Any, recvbuf: Any, op: Op = SUM, **kw: Any) -> None:
        kw.setdefault("algorithm", "linear")
        self._comm.Allreduce(sendbuf, recvbuf, op, **kw)

    def Allgather(self, sendbuf: Any, recvbuf: Any, **kw: Any) -> None:
        kw.setdefault("algorithm", "linear")
        self._comm.Allgather(sendbuf, recvbuf, **kw)


class FlatCommunicator(CommunicatorView):
    """Auto-pick passthrough: the wrapped communicator's own policy."""

    variant = "flat"


class _TopologyCommunicator(CommunicatorView):
    """Shared machinery for the schedule-overriding variants."""

    @_coll.traced_collective
    def allreduce(self, sendobj: Any, op: Op = SUM) -> Any:
        self._emit_algo("allreduce", self.variant)
        comm = self._comm
        send, recv = comm._obj_transports()
        return self._schedule(comm.rank, comm.size, sendobj, op, send, recv)

    @_coll.traced_collective
    def Allreduce(self, sendbuf: Any, recvbuf: Any, op: Op = SUM) -> None:
        self._emit_algo("allreduce", self.variant)
        comm = self._comm
        sspec = parse_buffer(sendbuf)
        send, recv = comm._transports(typed=True)
        result = self._schedule(
            comm.rank, comm.size, sspec.array[: sspec.count], op, send, recv
        )
        comm._fill_array(parse_buffer(recvbuf), result)

    def _schedule(self, rank: int, size: int, value: Any, op: Op,
                  send: Any, recv: Any) -> Any:
        raise NotImplementedError


class HierarchicalCommunicator(_TopologyCommunicator):
    variant = "hierarchical"

    def __init__(self, comm: Any, *, platform: str | None = None,
                 ranks_per_node: int | None = None) -> None:
        super().__init__(comm)
        self.ranks_per_node = ranks_per_node or _ranks_per_node(
            platform, comm.size
        )

    def _schedule(self, rank, size, value, op, send, recv):
        rpn = self.ranks_per_node
        return _coll.allreduce_hierarchical(
            rank, size, value, op, send, recv, lambda r: r // rpn
        )


class TwoDimensionalCommunicator(_TopologyCommunicator):
    variant = "two_dimensional"

    def __init__(self, comm: Any, *, rows: int | None = None) -> None:
        super().__init__(comm)
        self.rows = rows or _mesh_rows(comm.size)
        if comm.size % self.rows:
            raise ValueError(
                f"rows={self.rows} must divide the world size {comm.size}"
            )

    def _schedule(self, rank, size, value, op, send, recv):
        return _coll.allreduce_two_dimensional(
            rank, size, value, op, send, recv, self.rows
        )


def create_communicator(
    name: str = "flat",
    comm: Any = None,
    **kwargs: Any,
) -> CommunicatorView:
    """Build a topology-aware communicator view over ``comm``.

    ``name`` is one of :data:`COMMUNICATOR_NAMES`.  ``hierarchical``
    accepts ``platform=`` (a :data:`repro.platforms.machine.PLATFORMS`
    key) or an explicit ``ranks_per_node=``; ``two_dimensional`` accepts
    ``rows=``.  Works over both the threads and forked-process backends.
    """
    if comm is None:
        raise TypeError(
            "create_communicator needs the backing comm: "
            "create_communicator(name, comm)"
        )
    if name == "naive":
        return NaiveCommunicator(comm, **kwargs)
    if name == "flat":
        return FlatCommunicator(comm, **kwargs)
    if name == "hierarchical":
        return HierarchicalCommunicator(comm, **kwargs)
    if name == "two_dimensional":
        return TwoDimensionalCommunicator(comm, **kwargs)
    raise ValueError(
        f"unknown communicator variant {name!r}; "
        f"choose from {COMMUNICATOR_NAMES}"
    )
