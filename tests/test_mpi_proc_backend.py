"""The process-rank launcher: real OS processes behind the ``comm`` API."""

from __future__ import annotations

import pytest

from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    MPI_BACKENDS,
    PROC_NULL,
    DeadlockError,
    RankFailedError,
    Status,
    fork_available,
    mpirun,
    run_procs,
)
from repro.mpi.launcher import _resolve_mpi_backend
from repro.mpi.ops import MAX, SUM

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process ranks need the fork start method"
)

TIMEOUT = 8.0


def _run(fn, np, *args, **kwargs):
    kwargs.setdefault("deadlock_timeout", TIMEOUT)
    return run_procs(fn, np, *args, **kwargs)


class TestBasics:
    def test_ranks_are_distinct_processes(self):
        import os

        parent = os.getpid()

        def body(comm):
            return (comm.Get_rank(), comm.Get_size(), os.getpid())

        out = _run(body, 3)
        assert [(r, s) for r, s, _ in out] == [(0, 3), (1, 3), (2, 3)]
        pids = [pid for _, _, pid in out]
        assert len(set(pids)) == 3 and parent not in pids

    def test_extra_args_forwarded(self):
        def body(comm, base, scale=1):
            return base + scale * comm.Get_rank()

        assert _run(body, 3, 100, scale=10) == [100, 110, 120]

    def test_closures_are_fine_under_fork(self):
        secret = {"value": 77}

        def body(comm):
            return secret["value"] + comm.Get_rank()

        assert _run(body, 2) == [77, 78]


class TestPointToPoint:
    def test_ring_exchange(self):
        def body(comm):
            rank, size = comm.Get_rank(), comm.Get_size()
            comm.send(rank, dest=(rank + 1) % size, tag=5)
            return comm.recv(source=(rank - 1) % size, tag=5)

        assert _run(body, 3) == [2, 0, 1]

    def test_status_and_wildcards(self):
        def body(comm):
            if comm.Get_rank() == 1:
                comm.send("hello", dest=0, tag=42)
                return None
            status = Status()
            msg = comm.recv(source=ANY_SOURCE, tag=ANY_TAG, status=status)
            return (msg, status.Get_source(), status.Get_tag())

        out = _run(body, 2)
        assert out[0] == ("hello", 1, 42)

    def test_proc_null_send_recv_are_noops(self):
        def body(comm):
            comm.send("into the void", dest=PROC_NULL)
            return comm.recv(source=PROC_NULL)

        assert _run(body, 2) == [None, None]

    def test_sendrecv_swap(self):
        def body(comm):
            rank = comm.Get_rank()
            partner = 1 - rank
            return comm.sendrecv(f"from {rank}", dest=partner, source=partner)

        assert _run(body, 2) == ["from 1", "from 0"]


class TestCollectives:
    def test_bcast(self):
        def body(comm):
            payload = {"k": [1, 2, 3]} if comm.Get_rank() == 0 else None
            return comm.bcast(payload, root=0)

        out = _run(body, 3)
        assert out == [{"k": [1, 2, 3]}] * 3

    def test_scatter_gather_roundtrip(self):
        def body(comm):
            rank, size = comm.Get_rank(), comm.Get_size()
            blocks = [[i, i * i] for i in range(size)] if rank == 0 else None
            mine = comm.scatter(blocks, root=0)
            return comm.gather(mine, root=0)

        out = _run(body, 3)
        assert out[0] == [[0, 0], [1, 1], [2, 4]]
        assert out[1] is None and out[2] is None

    def test_allgather_and_allreduce(self):
        def body(comm):
            rank = comm.Get_rank()
            return (comm.allgather(rank), comm.allreduce(rank, op=SUM),
                    comm.allreduce(rank, op=MAX))

        out = _run(body, 3)
        assert out == [([0, 1, 2], 3, 2)] * 3

    def test_reduce_root_only(self):
        def body(comm):
            return comm.reduce(comm.Get_rank() + 1, op=SUM, root=0)

        out = _run(body, 3)
        assert out[0] == 6 and out[1] is None and out[2] is None

    def test_barrier(self):
        def body(comm):
            for _ in range(3):
                comm.barrier()
            return comm.Get_rank()

        assert _run(body, 3) == [0, 1, 2]


class TestCartesian:
    def test_shift_with_proc_null_edges(self):
        def body(comm):
            cart = comm.Create_cart((comm.Get_size(),), periods=(False,))
            left, right = cart.Shift(0, 1)
            return (left, right)

        out = _run(body, 3)
        assert out == [(PROC_NULL, 1), (0, 2), (1, PROC_NULL)]

    def test_periodic_shift_and_coords(self):
        def body(comm):
            cart = comm.Create_cart((comm.Get_size(),), periods=(True,))
            left, right = cart.Shift(0, 1)
            return (left, right, cart.Get_coords(cart.Get_rank()))

        out = _run(body, 3)
        assert out == [(2, 1, [0]), (0, 2, [1]), (1, 0, [2])]

    def test_halo_exchange_matches_thread_backend(self):
        import numpy as np

        from repro.exemplars.heat import heat_mpi, heat_seq

        expected = heat_seq(24, 12)
        import repro.exemplars.heat as heat_mod

        # Run the same exemplar body through run_procs via mpirun's backend.
        def run(backend):
            import os

            os.environ["REPRO_MPI_BACKEND"] = backend
            try:
                return heat_mod.heat_mpi(24, 12, np_procs=3)
            finally:
                os.environ.pop("REPRO_MPI_BACKEND", None)

        assert np.allclose(run("processes"), expected)
        assert np.allclose(heat_mpi(24, 12, np_procs=3), expected)


class TestFailures:
    def test_rank_exception_raises_rank_failed(self):
        def body(comm):
            if comm.Get_rank() == 1:
                raise RuntimeError("rank 1 exploded")
            return comm.Get_rank()

        with pytest.raises(RankFailedError, match="rank 1"):
            _run(body, 2)

    def test_rank_exit_aborts_survivors_fast(self):
        import os
        import time

        def body(comm):
            if comm.Get_rank() == 1:
                os._exit(3)
            return comm.recv(source=1)  # never sent: only the abort ends it

        t0 = time.monotonic()
        with pytest.raises(RankFailedError, match="exited with code 3") as excinfo:
            _run(body, 3)
        assert time.monotonic() - t0 < 1.0
        assert set(excinfo.value.failures) == {1}

    def test_every_rank_timed_out_raises_deadlock(self):
        def body(comm):
            return comm.recv(source=ANY_SOURCE)

        with pytest.raises(DeadlockError):
            _run(body, 3, deadlock_timeout=0.3)


class TestLauncherIntegration:
    def test_forked_rank_imports_nothing(self):
        import sys

        def trivial(comm):
            return comm.Get_rank()

        mpirun(trivial, 2, backend="processes")  # warm: the parent's imports
        loaded = set(sys.modules)

        def body(comm):
            return sorted(set(sys.modules) - loaded)

        assert mpirun(body, 2, backend="processes") == [[], []]

    def test_mpirun_backend_parameter(self):
        def body(comm):
            return comm.allreduce(comm.Get_rank(), op=SUM)

        threads = mpirun(body, 3, deadlock_timeout=TIMEOUT)
        procs = mpirun(body, 3, deadlock_timeout=TIMEOUT, backend="processes")
        assert threads == procs == [3, 3, 3]

    def test_backend_registry_and_env(self, monkeypatch):
        assert MPI_BACKENDS == ("threads", "processes")
        assert _resolve_mpi_backend(None) == "threads"
        monkeypatch.setenv("REPRO_MPI_BACKEND", "processes")
        assert _resolve_mpi_backend(None) == "processes"
        assert _resolve_mpi_backend("threads") == "threads"
        with pytest.raises(ValueError, match="unknown MPI backend"):
            _resolve_mpi_backend("carrier-pigeon")
