"""One-sided communication (RMA): ``MPI.Win`` with Put/Get/Accumulate/Fence.

The mpi4py tutorial's final topic: a rank exposes a memory *window* that
peers access directly, without a matching receive.  Our windows wrap NumPy
arrays; epochs are delimited by ``Fence`` (a communicator barrier, which is
exactly what fence synchronization means for an in-process runtime), and
every access is applied under the target's window lock, so concurrent
``Accumulate`` calls from different origins never lose updates.

    win = Win.Create(local_array, comm)
    win.Fence()
    win.Put(data, target_rank=1, target_offset=0)
    win.Fence()          # data is now visible in rank 1's array
    win.Free()
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from .buffers import parse_buffer
from .errors import InvalidRankError, MPIError
from .ops import SUM, Op

__all__ = ["Win"]


class _WinCore:
    """Shared state: every rank's exposed array plus its access lock."""

    def __init__(self, size: int) -> None:
        self.arrays: list[np.ndarray | None] = [None] * size
        # Re-entrant: a passive-target Lock() epoch wraps Put/Get calls that
        # take the same lock internally.
        self.locks = [threading.RLock() for _ in range(size)]
        self.freed = False


class Win:
    """One rank's handle on a collectively created RMA window."""

    def __init__(self, core: _WinCore, comm: Any, rank: int) -> None:
        self._core = core
        self._comm = comm
        self._rank = rank

    @classmethod
    def Create(cls, memory: Any, comm: Any) -> "Win":
        """Collectively create a window exposing ``memory`` on each rank.

        ``memory`` must be a contiguous NumPy array (or ``None`` to expose
        nothing from this rank).
        """
        seq_key = ("win", comm._tp.cid, comm._coll_seq)
        comm.barrier()  # consume a collective slot; sync arrival
        core = comm._tp.shared(seq_key, lambda: _WinCore(comm.Get_size()))
        rank = comm.Get_rank()
        if memory is not None:
            spec = parse_buffer(memory)
            core.arrays[rank] = spec.array  # a view onto the caller's memory
        comm.barrier()  # everyone's window is attached before use
        return cls(core, comm, rank)

    # ------------------------------------------------------------------ helpers
    def _target_array(self, target_rank: int) -> np.ndarray:
        if self._core.freed:
            raise MPIError("operation on freed window")
        if not 0 <= target_rank < self._comm.Get_size():
            raise InvalidRankError(target_rank, self._comm.Get_size(), "target")
        array = self._core.arrays[target_rank]
        if array is None:
            raise MPIError(f"rank {target_rank} exposed no memory in this window")
        return array

    @staticmethod
    def _as_values(buf: Any) -> np.ndarray:
        return parse_buffer(buf).data()

    # ------------------------------------------------------------------ RMA verbs
    def Put(self, origin: Any, target_rank: int, target_offset: int = 0) -> None:
        """Write origin data into the target's window at an element offset."""
        values = self._as_values(origin)
        target = self._target_array(target_rank)
        if target_offset < 0 or target_offset + len(values) > len(target):
            raise MPIError(
                f"Put of {len(values)} elements at offset {target_offset} "
                f"exceeds window of {len(target)} elements"
            )
        with self._core.locks[target_rank]:
            target[target_offset : target_offset + len(values)] = values.astype(
                target.dtype, copy=False
            )

    def Get(self, origin: Any, target_rank: int, target_offset: int = 0) -> None:
        """Read from the target's window into the origin buffer."""
        spec = parse_buffer(origin)
        target = self._target_array(target_rank)
        if target_offset < 0 or target_offset + spec.count > len(target):
            raise MPIError(
                f"Get of {spec.count} elements at offset {target_offset} "
                f"exceeds window of {len(target)} elements"
            )
        with self._core.locks[target_rank]:
            snapshot = target[target_offset : target_offset + spec.count].copy()
        spec.fill(snapshot)

    def Accumulate(
        self,
        origin: Any,
        target_rank: int,
        target_offset: int = 0,
        op: Op = SUM,
    ) -> None:
        """Atomically combine origin data into the target's window."""
        values = self._as_values(origin)
        target = self._target_array(target_rank)
        if target_offset < 0 or target_offset + len(values) > len(target):
            raise MPIError(
                f"Accumulate of {len(values)} elements at offset {target_offset} "
                f"exceeds window of {len(target)} elements"
            )
        with self._core.locks[target_rank]:
            region = target[target_offset : target_offset + len(values)]
            region[:] = op(region, values.astype(target.dtype, copy=False))

    # ------------------------------------------------------------- synchronization
    def Fence(self, assertion: int = 0) -> None:
        """Close the current access epoch and open the next (collective)."""
        self._comm.barrier()

    def Lock(self, target_rank: int) -> None:
        """Passive-target lock on one rank's window region."""
        self._target_array(target_rank)  # validates rank/window
        self._core.locks[target_rank].acquire()

    def Unlock(self, target_rank: int) -> None:
        self._core.locks[target_rank].release()

    def Free(self) -> None:
        """Collectively release the window."""
        self._comm.barrier()
        self._core.freed = True
