"""``repro.mpi`` — a from-scratch, in-process MPI with the mpi4py API.

The paper's distributed-memory module teaches message passing through
mpi4py patternlets executed with ``mpirun`` inside a Google Colab.  This
package reimplements the runtime those materials depend on: a thread-per-
rank world, MPI-standard message matching, object (pickle) and typed-buffer
(NumPy) communication, real collective algorithms, communicator splitting
and Cartesian topologies, and an ``mpirun`` emulation that executes script
source per rank with captured interleaved output.

Quick start
-----------
>>> from repro.mpi import mpirun
>>> def spmd(comm):
...     return f"rank {comm.Get_rank()} of {comm.Get_size()}"
>>> mpirun(spmd, 3)
['rank 0 of 3', 'rank 1 of 3', 'rank 2 of 3']
"""

from . import api as MPI
from .cartesian import Cartcomm, compute_dims
from .comm import Intracomm
from .constants import ANY_SOURCE, ANY_TAG, PROC_NULL, TAG_UB, UNDEFINED
from .datatypes import Datatype
from .errors import (
    CommAlreadyFreedError,
    DeadlockError,
    InvalidCountError,
    InvalidRankError,
    InvalidTagError,
    MPIError,
    NotInWorldError,
    RankCrashedError,
    RankFailedError,
    TruncationError,
    WorldAbortedError,
)
from .group import Group
from .io import File
from .window import Win
from .launcher import (
    MPI_BACKENDS,
    MpirunInvocation,
    ScriptResult,
    install_mpi4py_shim,
    mpirun,
    parse_mpirun_command,
    run_script,
)
from .message import BufferHandle
from .procs import fork_available, run_procs
from .ops import MAX, MAXLOC, MIN, MINLOC, PROD, SUM, Op
from .serial import (
    counted_dumps,
    merge_serialized,
    reset_serialized,
    serialized_totals,
)
from .tracing import CommTracer, MessageRecord, TraceReport, trace_run
from .algorithms import ALGORITHMS, available, resolve
from .communicators import (
    COMMUNICATOR_NAMES,
    CommunicatorView,
    create_communicator,
)
from .request import Request
from .runtime import Console, World, current_comm, run
from .status import Status

__all__ = [
    "MPI",
    "ALGORITHMS",
    "available",
    "resolve",
    "COMMUNICATOR_NAMES",
    "CommunicatorView",
    "create_communicator",
    "World",
    "Console",
    "run",
    "mpirun",
    "run_script",
    "parse_mpirun_command",
    "install_mpi4py_shim",
    "MpirunInvocation",
    "ScriptResult",
    "MPI_BACKENDS",
    "run_procs",
    "fork_available",
    "BufferHandle",
    "counted_dumps",
    "serialized_totals",
    "reset_serialized",
    "merge_serialized",
    "current_comm",
    "Intracomm",
    "Cartcomm",
    "compute_dims",
    "Group",
    "Status",
    "Request",
    "Op",
    "Datatype",
    "File",
    "Win",
    "CommTracer",
    "TraceReport",
    "MessageRecord",
    "trace_run",
    "SUM",
    "PROD",
    "MAX",
    "MIN",
    "MAXLOC",
    "MINLOC",
    "ANY_SOURCE",
    "ANY_TAG",
    "PROC_NULL",
    "UNDEFINED",
    "TAG_UB",
    "MPIError",
    "DeadlockError",
    "RankCrashedError",
    "RankFailedError",
    "WorldAbortedError",
    "TruncationError",
    "InvalidRankError",
    "InvalidTagError",
    "InvalidCountError",
    "NotInWorldError",
    "CommAlreadyFreedError",
]
