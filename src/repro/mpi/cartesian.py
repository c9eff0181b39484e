"""Cartesian topology communicator (``MPI_Cart_create`` family).

Used by the grid-decomposed exemplars (e.g. the forest-fire simulation's
row-striped domain) and the neighbor-exchange patternlets.
"""

from __future__ import annotations

from typing import Sequence

from .comm import Intracomm, Transport
from .constants import PROC_NULL

__all__ = ["Cartcomm", "compute_dims"]


def compute_dims(nnodes: int, ndims: int) -> list[int]:
    """Balanced factorization of ``nnodes`` over ``ndims`` dimensions.

    Mirrors ``MPI_Dims_create``: dimensions are as close to each other as
    possible and sorted in non-increasing order.
    """
    if nnodes < 1 or ndims < 1:
        raise ValueError("nnodes and ndims must be positive")
    dims = [1] * ndims
    remaining = nnodes
    # Repeatedly assign the largest prime factor to the currently smallest dim.
    factors: list[int] = []
    f = 2
    while f * f <= remaining:
        while remaining % f == 0:
            factors.append(f)
            remaining //= f
        f += 1
    if remaining > 1:
        factors.append(remaining)
    for factor in sorted(factors, reverse=True):
        dims[dims.index(min(dims))] *= factor
    return sorted(dims, reverse=True)


class Cartcomm(Intracomm):
    """A communicator whose ranks are arranged on an N-dimensional grid."""

    def __init__(
        self,
        tp: Transport,
        name: str = "MPI_COMM_WORLD",
        *,
        dims: Sequence[int],
        periods: Sequence[bool],
    ) -> None:
        super().__init__(tp, name)
        self._dims = tuple(int(d) for d in dims)
        self._periods = tuple(bool(p) for p in periods)

    # ------------------------------------------------------------- topology info
    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def periods(self) -> tuple[bool, ...]:
        return self._periods

    @property
    def ndim(self) -> int:
        return len(self._dims)

    def Get_dim(self) -> int:
        return len(self._dims)

    def Get_topo(self) -> tuple[tuple[int, ...], tuple[bool, ...], tuple[int, ...]]:
        """Return ``(dims, periods, my_coords)``."""
        return self._dims, self._periods, tuple(self.Get_coords(self._rank))

    def Get_coords(self, rank: int) -> list[int]:
        """Row-major coordinates of ``rank`` on the grid (a list, as mpi4py
        returns them)."""
        if not 0 <= rank < self._size:
            raise ValueError(f"rank {rank} outside cartesian communicator")
        coords = []
        for extent in reversed(self._dims):
            coords.append(rank % extent)
            rank //= extent
        return coords[::-1]

    @property
    def coords(self) -> list[int]:
        return self.Get_coords(self._rank)

    def Get_cart_rank(self, coords: Sequence[int]) -> int:
        """Rank at the given coordinates (periodic wrap where allowed)."""
        if len(coords) != len(self._dims):
            raise ValueError(
                f"expected {len(self._dims)} coordinates, got {len(coords)}"
            )
        rank = 0
        for c, extent, periodic in zip(coords, self._dims, self._periods):
            if periodic:
                c %= extent
            elif not 0 <= c < extent:
                raise ValueError(
                    f"coordinate {c} outside non-periodic dimension of extent {extent}"
                )
            rank = rank * extent + c
        return rank

    def Shift(self, direction: int, disp: int = 1) -> tuple[int, int]:
        """Return ``(source, dest)`` for a shift along one dimension.

        At a non-periodic boundary the missing neighbor is ``PROC_NULL``,
        so shift exchanges degrade gracefully at the edges — exactly the
        behaviour the halo-exchange patternlet teaches.
        """
        if not 0 <= direction < len(self._dims):
            raise ValueError(f"invalid shift direction {direction}")
        me = self.Get_coords(self._rank)

        def neighbor(offset: int) -> int:
            coords = list(me)
            coords[direction] += offset
            extent = self._dims[direction]
            if self._periods[direction]:
                coords[direction] %= extent
            elif not 0 <= coords[direction] < extent:
                return PROC_NULL
            return self.Get_cart_rank(coords)

        return neighbor(-disp), neighbor(disp)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Cartcomm dims={self._dims} periods={self._periods} "
            f"rank={self._rank} coords={self.coords}>"
        )
