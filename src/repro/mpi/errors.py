"""Exception hierarchy for the in-process MPI runtime.

Real MPI reports errors through integer error classes attached to an error
handler; mpi4py surfaces them as :class:`mpi4py.MPI.Exception`.  Our runtime
is pure Python, so we use a small exception hierarchy instead.  Every error
raised by :mod:`repro.mpi` derives from :class:`MPIError` so callers can
catch runtime failures without also swallowing programming errors such as
``TypeError``.
"""

from __future__ import annotations

from .constants import TAG_UB


class MPIError(Exception):
    """Base class for all errors raised by the simulated MPI runtime."""


class InvalidRankError(MPIError, ValueError):
    """A rank argument was outside ``[0, size)`` (and not a valid wildcard)."""

    def __init__(self, rank: int, size: int, what: str = "rank") -> None:
        super().__init__(f"invalid {what} {rank} for communicator of size {size}")
        self.rank = rank
        self.size = size
        self.what = what

    def __reduce__(self):
        # Custom __init__ signature (see RankCrashedError): process ranks
        # ship this across in their failure report.
        return (type(self), (self.rank, self.size, self.what))


class InvalidTagError(MPIError, ValueError):
    """A tag argument was outside ``0..TAG_UB`` (and not ``ANY_TAG``)."""

    def __init__(self, tag: int) -> None:
        super().__init__(f"invalid tag {tag}: tags must lie in 0..{TAG_UB}")
        self.tag = tag

    def __reduce__(self):
        return (type(self), (self.tag,))


class InvalidCountError(MPIError, ValueError):
    """A count/partition argument was malformed (negative, wrong length...)."""


class TruncationError(MPIError):
    """A message arrived that is larger than the receive buffer.

    Mirrors ``MPI_ERR_TRUNCATE``: the uppercase ``Recv`` path requires the
    caller-provided buffer to hold the full incoming message.
    """


class DeadlockError(MPIError):
    """The runtime's watchdog concluded that the ranks can no longer progress.

    Raised instead of hanging forever when, e.g., every rank is blocked in a
    ``recv`` with no matching ``send`` in flight.  The teaching materials use
    this to demonstrate deadlock patternlets safely.
    """


class WorldAbortedError(MPIError):
    """``Comm.Abort`` was invoked (or a sibling rank raised), tearing down the world."""

    def __init__(self, errorcode: int = 1, origin: int | None = None) -> None:
        where = f" by rank {origin}" if origin is not None else ""
        super().__init__(f"MPI world aborted{where} with error code {errorcode}")
        self.errorcode = errorcode
        self.origin = origin

    def __reduce__(self):
        # Custom __init__ signature (see RankCrashedError): process ranks
        # ship this across when the launcher aborts them.
        return (type(self), (self.errorcode, self.origin))


class RankFailedError(MPIError):
    """One or more ranks raised an exception during an SPMD run.

    Carries the per-rank exceptions so tests can assert on the original
    failure rather than a generic wrapper.
    """

    def __init__(self, failures: dict[int, BaseException]) -> None:
        detail = "; ".join(
            f"rank {r}: {type(e).__name__}: {e}" for r, e in sorted(failures.items())
        )
        super().__init__(f"{len(failures)} rank(s) failed: {detail}")
        self.failures = dict(failures)


class RankCrashedError(MPIError):
    """A rank was killed mid-run by an injected fault (``repro.testkit``).

    Raised inside the victim rank at its ``at_op``-th communication
    operation; the runtime's failure aggregation surfaces it to the caller
    wrapped in a deterministic :class:`RankFailedError`.
    """

    def __init__(self, rank: int, at_op: int) -> None:
        super().__init__(
            f"rank {rank} crashed (injected fault at operation {at_op})"
        )
        self.rank = rank
        self.at_op = at_op

    def __reduce__(self):
        # Custom __init__ signature: default exception pickling would call
        # it with the formatted message; process ranks ship this across.
        return (type(self), (self.rank, self.at_op))


class CommAlreadyFreedError(MPIError):
    """An operation was attempted on a communicator after ``Free``."""


class NotInWorldError(MPIError, RuntimeError):
    """A world-bound operation was used from a thread that is not an MPI rank."""
