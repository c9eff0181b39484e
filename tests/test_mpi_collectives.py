"""Collective-communication semantics, object and buffer variants."""

import numpy as np
import pytest

from repro.mpi import MAX, MAXLOC, MIN, MINLOC, MPI, PROD, SUM, Op
from tests.conftest import spmd

pytestmark = pytest.mark.usefixtures("mpi_backend")

SIZES = [1, 2, 3, 4, 5, 7, 8]


class TestObjectCollectives:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("root", [0, "last"])
    def test_bcast_reaches_every_rank(self, size, root):
        root = size - 1 if root == "last" else 0

        def body(comm):
            data = {"payload": list(range(10))} if comm.Get_rank() == root else None
            return comm.bcast(data, root=root)

        outs = spmd(body, size)
        assert all(o == {"payload": list(range(10))} for o in outs)

    def test_bcast_non_root_copies_are_private(self):
        def body(comm):
            data = [0] if comm.Get_rank() == 0 else None
            data = comm.bcast(data, root=0)
            data.append(comm.Get_rank())
            return data

        outs = spmd(body, 4)
        assert outs == [[0, 0], [0, 1], [0, 2], [0, 3]]

    @pytest.mark.parametrize("size", SIZES)
    def test_scatter_gather_roundtrip(self, size):
        def body(comm):
            rank = comm.Get_rank()
            chunk = comm.scatter(
                [f"item-{i}" for i in range(size)] if rank == 0 else None, root=0
            )
            assert chunk == f"item-{rank}"
            return comm.gather(chunk.upper(), root=0)

        outs = spmd(body, size)
        assert outs[0] == [f"ITEM-{i}" for i in range(size)]
        assert all(o is None for o in outs[1:])

    def test_scatter_wrong_length_raises(self):
        from repro.mpi import InvalidCountError, RankFailedError

        def body(comm):
            comm.scatter([1, 2, 3] if comm.Get_rank() == 0 else None, root=0)

        with pytest.raises(RankFailedError) as exc_info:
            spmd(body, 2)
        assert isinstance(exc_info.value.failures[0], InvalidCountError)

    @pytest.mark.parametrize("size", SIZES)
    def test_allgather(self, size):
        def body(comm):
            return comm.allgather(comm.Get_rank() ** 2)

        outs = spmd(body, size)
        expected = [r * r for r in range(size)]
        assert all(o == expected for o in outs)

    @pytest.mark.parametrize("size", SIZES)
    def test_alltoall_transpose(self, size):
        def body(comm):
            rank = comm.Get_rank()
            return comm.alltoall([(rank, j) for j in range(size)])

        outs = spmd(body, size)
        for r, out in enumerate(outs):
            assert out == [(i, r) for i in range(size)]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize(
        "op,expected_fn",
        [
            (SUM, lambda size: sum(range(size))),
            (PROD, lambda size: int(np.prod(range(1, size + 1)))),
            (MAX, lambda size: size - 1),
            (MIN, lambda size: 0),
        ],
    )
    def test_reduce_ops(self, size, op, expected_fn):
        def body(comm):
            value = comm.Get_rank() + 1 if op is PROD else comm.Get_rank()
            return comm.reduce(value, op=op, root=0)

        outs = spmd(body, size)
        assert outs[0] == expected_fn(size)
        assert all(o is None for o in outs[1:])

    @pytest.mark.parametrize("size", SIZES)
    def test_allreduce_sum(self, size):
        def body(comm):
            return comm.allreduce(comm.Get_rank() + 1, op=SUM)

        outs = spmd(body, size)
        assert all(o == size * (size + 1) // 2 for o in outs)

    @pytest.mark.parametrize("size", [2, 4, 5])
    def test_allreduce_maxloc(self, size):
        def body(comm):
            rank = comm.Get_rank()
            # value peaks in the middle so the loc is interesting
            value = -abs(rank - size // 2)
            return comm.allreduce((value, rank), op=MAXLOC)

        outs = spmd(body, size)
        assert all(o == (0, size // 2) for o in outs)

    def test_reduce_non_commutative_preserves_rank_order(self):
        concat = Op.Create(lambda a, b: a + b, commute=False)

        def body(comm):
            return comm.reduce(chr(ord("a") + comm.Get_rank()), op=concat, root=0)

        assert spmd(body, 5)[0] == "abcde"

    def test_allreduce_non_commutative(self):
        concat = Op.Create(lambda a, b: a + b, commute=False)

        def body(comm):
            return comm.allreduce([comm.Get_rank()], op=concat)

        outs = spmd(body, 4)
        assert all(o == [0, 1, 2, 3] for o in outs)

    @pytest.mark.parametrize("size", SIZES)
    def test_scan_inclusive_prefix(self, size):
        def body(comm):
            return comm.scan(comm.Get_rank() + 1, op=SUM)

        outs = spmd(body, size)
        assert outs == [sum(range(1, r + 2)) for r in range(size)]

    @pytest.mark.parametrize("size", SIZES)
    def test_exscan_exclusive_prefix(self, size):
        def body(comm):
            return comm.exscan(comm.Get_rank() + 1, op=SUM)

        outs = spmd(body, size)
        assert outs[0] is None
        assert outs[1:] == [sum(range(1, r + 1)) for r in range(1, size)]

    @pytest.mark.threads_only(reason="the ranks append to one shared Python list")
    @pytest.mark.parametrize("size", SIZES)
    def test_barrier_orders_phases(self, size):
        import threading

        def body(comm, log, lock):
            rank = comm.Get_rank()
            with lock:
                log.append(("pre", rank))
            comm.barrier()
            with lock:
                log.append(("post", rank))

        log: list = []
        spmd(body, size, log, __import__("threading").Lock())
        phases = [p for p, _r in log]
        assert phases == ["pre"] * size + ["post"] * size

    def test_back_to_back_collectives_do_not_cross_match(self):
        """A fast root racing into collective #2 must not corrupt #1."""

        def body(comm):
            first = comm.bcast("alpha" if comm.Get_rank() == 0 else None, root=0)
            second = comm.bcast("beta" if comm.Get_rank() == 0 else None, root=0)
            third = comm.allreduce(1, op=SUM)
            return (first, second, third)

        outs = spmd(body, 6)
        assert all(o == ("alpha", "beta", 6) for o in outs)


class TestBufferCollectives:
    @pytest.mark.parametrize("size", [1, 2, 4, 5])
    def test_Bcast_in_place(self, size):
        def body(comm):
            rank = comm.Get_rank()
            data = np.arange(100, dtype="i") if rank == 0 else np.empty(100, dtype="i")
            comm.Bcast(data, root=0)
            return int(data.sum())

        assert spmd(body, size) == [sum(range(100))] * size

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_Scatter_tutorial_example(self, size):
        def body(comm):
            rank = comm.Get_rank()
            sendbuf = None
            if rank == 0:
                sendbuf = np.empty([size, 100], dtype="i")
                sendbuf.T[:, :] = range(size)
            recvbuf = np.empty(100, dtype="i")
            comm.Scatter(sendbuf, recvbuf, root=0)
            return bool(np.allclose(recvbuf, rank))

        assert all(spmd(body, size))

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_Gather_tutorial_example(self, size):
        def body(comm):
            rank = comm.Get_rank()
            sendbuf = np.zeros(100, dtype="i") + rank
            recvbuf = np.empty([size, 100], dtype="i") if rank == 0 else None
            comm.Gather(sendbuf, recvbuf, root=0)
            if rank == 0:
                return all(np.allclose(recvbuf[i, :], i) for i in range(size))
            return True

        assert all(spmd(body, size))

    def test_Scatter_indivisible_raises(self):
        from repro.mpi import RankFailedError

        def body(comm):
            send = np.arange(10, dtype="i") if comm.Get_rank() == 0 else None
            recv = np.empty(3, dtype="i")
            comm.Scatter(send, recv, root=0)

        with pytest.raises(RankFailedError):
            spmd(body, 3)

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_Scatterv_Gatherv_variable_segments(self, size):
        counts = [i + 1 for i in range(size)]
        total = sum(counts)

        def body(comm):
            rank = comm.Get_rank()
            recv = np.empty(counts[rank], dtype="d")
            send = [np.arange(total, dtype="d"), counts, None, MPI.DOUBLE] if rank == 0 else None
            comm.Scatterv(send, recv, root=0)
            displ = sum(counts[:rank])
            assert np.allclose(recv, np.arange(displ, displ + counts[rank]))
            out = None
            if rank == 0:
                out = np.zeros(total, dtype="d")
            comm.Gatherv(recv * 2, [out, counts, None, MPI.DOUBLE] if rank == 0 else None, root=0)
            return out.sum() if rank == 0 else None

        outs = spmd(body, size)
        assert outs[0] == 2 * sum(range(total))

    @pytest.mark.parametrize("size", [1, 2, 4, 5])
    def test_Allgather_matvec_style(self, size):
        def body(comm):
            rank = comm.Get_rank()
            x = np.full(3, float(rank))
            xg = np.zeros(3 * size, dtype="d")
            comm.Allgather([x, MPI.DOUBLE], [xg, MPI.DOUBLE])
            return xg.tolist()

        outs = spmd(body, size)
        expected = [float(r) for r in range(size) for _ in range(3)]
        assert all(o == expected for o in outs)

    @pytest.mark.parametrize("size", [2, 4])
    def test_Alltoall_typed(self, size):
        def body(comm):
            rank = comm.Get_rank()
            send = np.array(
                [rank * 10 + j for j in range(size)], dtype="i"
            )
            recv = np.empty(size, dtype="i")
            comm.Alltoall(send, recv)
            return recv.tolist()

        outs = spmd(body, size)
        for r, out in enumerate(outs):
            assert out == [i * 10 + r for i in range(size)]

    @pytest.mark.parametrize("size", [1, 2, 4, 5])
    def test_Reduce_and_Allreduce_elementwise(self, size):
        def body(comm):
            rank = comm.Get_rank()
            send = np.full(10, rank, dtype="d")
            recv = np.empty(10, dtype="d")
            comm.Reduce(send, recv if rank == 0 else recv, op=SUM, root=0)
            root_sum = float(recv[0]) if rank == 0 else None
            comm.Allreduce(send, recv, op=MAX)
            return (root_sum, float(recv[0]))

        outs = spmd(body, size)
        assert outs[0][0] == float(sum(range(size)))
        assert all(o[1] == float(size - 1) for o in outs)
