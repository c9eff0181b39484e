"""MPI-IO: collective file access (``MPI.File``), as in the mpi4py tutorial.

Implements the tutorial's collective I/O workflow over an ordinary local
file:

    amode = MPI.MODE_WRONLY | MPI.MODE_CREATE
    fh = MPI.File.Open(comm, "./datafile.contig", amode)
    buffer = np.full(10, comm.Get_rank(), dtype='i')
    fh.Write_at_all(comm.Get_rank() * buffer.nbytes, buffer)
    fh.Close()

``Open``/``Close`` are collective (they synchronize on the communicator);
``Write_at``/``Read_at`` are independent; the ``_all`` variants add the
collective barrier semantics.  Rank-distinct offsets give each rank its own
region of one shared file, exactly as the tutorial teaches.
"""

from __future__ import annotations

import os
import threading
from typing import Any

import numpy as np

from .buffers import parse_buffer
from .errors import MPIError

__all__ = [
    "File",
    "MODE_RDONLY",
    "MODE_WRONLY",
    "MODE_RDWR",
    "MODE_CREATE",
    "MODE_EXCL",
    "MODE_APPEND",
    "MODE_DELETE_ON_CLOSE",
]

MODE_RDONLY = 1
MODE_RDWR = 2
MODE_WRONLY = 4
MODE_CREATE = 8
MODE_EXCL = 16
MODE_DELETE_ON_CLOSE = 32
MODE_APPEND = 64


class _SharedHandle:
    """One OS file handle shared by every rank of the communicator."""

    def __init__(self, path: str, amode: int) -> None:
        self.path = path
        self.amode = amode
        self.lock = threading.Lock()
        self.closed = False

        if amode & MODE_EXCL and os.path.exists(path):
            raise MPIError(f"MPI.File.Open: {path!r} exists and MODE_EXCL was set")
        readable = bool(amode & (MODE_RDONLY | MODE_RDWR))
        writable = bool(amode & (MODE_WRONLY | MODE_RDWR | MODE_APPEND))
        if not readable and not writable:
            raise MPIError("MPI.File.Open: access mode must include RDONLY/WRONLY/RDWR")
        if amode & MODE_CREATE and writable:
            flag = "r+b" if os.path.exists(path) else "w+b"
        elif writable:
            if not os.path.exists(path):
                raise MPIError(
                    f"MPI.File.Open: {path!r} does not exist (add MPI.MODE_CREATE)"
                )
            flag = "r+b"
        else:
            flag = "rb"
        self.fh = open(path, flag)  # noqa: SIM115 - lifetime managed by Close

    def close(self) -> None:
        with self.lock:
            if not self.closed:
                self.fh.close()
                self.closed = True
                if self.amode & MODE_DELETE_ON_CLOSE and os.path.exists(self.path):
                    os.unlink(self.path)


class File:
    """A collective file handle bound to one communicator."""

    def __init__(self, comm: Any, handle: _SharedHandle) -> None:
        self._comm = comm
        self._handle = handle

    # ------------------------------------------------------------------- open/close
    @classmethod
    def Open(cls, comm: Any, filename: str, amode: int = MODE_RDONLY) -> "File":
        """Collectively open ``filename`` on every rank of ``comm``.

        The first arriving rank creates the shared handle through the
        world registry; a barrier guarantees the file exists before any
        rank's ``Open`` returns.
        """
        key = ("mpi-file", comm._tp.cid, comm._coll_seq, filename, amode)
        # Consume one collective slot so repeated Opens get distinct keys.
        comm.barrier()
        handle = comm._tp.shared(key, lambda: _SharedHandle(filename, amode))
        comm.barrier()
        return cls(comm, handle)

    def Close(self) -> None:
        """Collective close: every rank arrives, then the handle is closed."""
        self._comm.barrier()
        self._handle.close()

    def Get_amode(self) -> int:
        return self._handle.amode

    def Get_size(self) -> int:
        """Current size of the file in bytes."""
        with self._handle.lock:
            self._handle.fh.flush()
            return os.path.getsize(self._handle.path)

    # ------------------------------------------------------------------- writes
    def _write_at(self, offset: int, buf: Any) -> int:
        if offset < 0:
            raise MPIError(f"negative file offset {offset}")
        spec = parse_buffer(buf)
        data = spec.data().tobytes()
        with self._handle.lock:
            if self._handle.closed:
                raise MPIError("write on closed MPI file")
            self._handle.fh.seek(offset)
            self._handle.fh.write(data)
            self._handle.fh.flush()
        return len(data)

    def Write_at(self, offset: int, buf: Any) -> int:
        """Independent write of a typed buffer at an explicit byte offset."""
        return self._write_at(offset, buf)

    def Write_at_all(self, offset: int, buf: Any) -> int:
        """Collective write: all ranks write, then synchronize."""
        written = self._write_at(offset, buf)
        self._comm.barrier()
        return written

    # ------------------------------------------------------------------- reads
    def _read_at(self, offset: int, buf: Any) -> int:
        if offset < 0:
            raise MPIError(f"negative file offset {offset}")
        spec = parse_buffer(buf)
        nbytes = spec.nbytes
        with self._handle.lock:
            if self._handle.closed:
                raise MPIError("read on closed MPI file")
            self._handle.fh.flush()
            self._handle.fh.seek(offset)
            raw = self._handle.fh.read(nbytes)
        if len(raw) < nbytes:
            raise MPIError(
                f"short read: wanted {nbytes} bytes at offset {offset}, got {len(raw)}"
            )
        values = np.frombuffer(raw, dtype=spec.datatype.np_dtype)
        spec.fill(values)
        return len(raw)

    def Read_at(self, offset: int, buf: Any) -> int:
        """Independent read into a typed buffer from an explicit byte offset."""
        return self._read_at(offset, buf)

    def Read_at_all(self, offset: int, buf: Any) -> int:
        """Collective read: all ranks read, then synchronize."""
        nread = self._read_at(offset, buf)
        self._comm.barrier()
        return nread
