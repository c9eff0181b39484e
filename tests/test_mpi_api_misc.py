"""The MPI namespace's module-level API surface and request utilities."""

import time

import pytest

from repro.mpi import MPI, Request
from tests.conftest import spmd

pytestmark = pytest.mark.usefixtures("mpi_backend")


class TestModuleLevelAPI:
    def test_wtime_monotone(self):
        a = MPI.Wtime()
        time.sleep(0.002)
        b = MPI.Wtime()
        assert b > a

    def test_wtick_positive(self):
        assert 0 < MPI.Wtick() < 1.0

    def test_compute_dims_both_signatures(self):
        assert MPI.Compute_dims(12, 2) == [4, 3]
        assert MPI.Compute_dims(12, [0, 0]) == [4, 3]

    def test_thread_support_level(self):
        assert MPI.Query_thread() == MPI.THREAD_MULTIPLE

    def test_init_finalize_flags(self):
        assert MPI.Is_initialized() is True
        assert MPI.Is_finalized() is False

    def test_exception_alias(self):
        from repro.mpi import MPIError

        assert MPI.Exception is MPIError

    def test_comm_world_repr_outside_context(self):
        assert "no active mpirun context" in repr(MPI.COMM_WORLD)

    def test_datatype_constants_are_distinct(self):
        names = {dt.name for dt in (MPI.INT, MPI.LONG, MPI.FLOAT, MPI.DOUBLE,
                                    MPI.BYTE, MPI.BOOL)}
        assert len(names) == 6


class TestRequestUtilities:
    def test_waitany_returns_first_completed(self):
        def body(comm):
            rank = comm.Get_rank()
            if rank == 0:
                # only rank 2's message is sent immediately
                comm.barrier()
                reqs = [comm.irecv(source=s, tag=s) for s in (1, 2)]
                index, payload = Request.Waitany(reqs)
                # drain the other to leave the world clean
                comm.send("go", dest=1, tag=9)
                reqs[0].wait()
                return (index, payload)
            if rank == 1:
                comm.barrier()
                comm.recv(source=0, tag=9)  # wait until rank 0 polled
                comm.send("slow", dest=0, tag=1)
                return None
            if rank == 2:
                comm.send("fast", dest=0, tag=2)
                comm.barrier()
                return None
            return None

        outs = spmd(body, 3)
        assert outs[0] == (1, "fast")

    def test_waitall_with_statuses(self):
        from repro.mpi import Status

        def body(comm):
            rank = comm.Get_rank()
            if rank == 0:
                reqs = [comm.irecv(source=s, tag=5) for s in (1, 2)]
                statuses: list[Status] = []
                payloads = Request.Waitall(reqs, statuses)
                return (payloads, [s.Get_source() for s in statuses])
            comm.send(rank * 11, dest=0, tag=5)
            return None

        payloads, sources = spmd(body, 3)[0]
        assert payloads == [11, 22]
        assert sources == [1, 2]

    def test_uppercase_wait_aliases(self):
        def body(comm):
            rank = comm.Get_rank()
            if rank == 0:
                req = comm.isend("x", dest=1)
                req.Wait()
                done, _ = req.Test()
                return done
            return comm.irecv(source=0).Wait()

        outs = spmd(body, 2)
        assert outs == [True, "x"]


class TestProcessorName:
    @pytest.mark.threads_only(reason="MPI.Get_processor_name resolves the calling thread's world")
    def test_inside_world_uses_simulated_hostname(self):
        def body(comm):
            return MPI.Get_processor_name()

        assert spmd(body, 2, hostname="pi-node") == ["pi-node"] * 2

    @pytest.mark.threads_only(reason="the MPI.COMM_WORLD proxy resolves the calling thread's rank")
    def test_nested_helper_sees_comm_world(self):
        """Library code can use MPI.COMM_WORLD without plumbing comm."""

        def helper():
            return MPI.COMM_WORLD.Get_size()

        def body(comm):
            return helper()

        assert spmd(body, 3) == [3, 3, 3]
