"""Point-to-point messaging semantics: blocking, nonblocking, matching."""

import numpy as np
import pytest

from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    MPI,
    PROC_NULL,
    DeadlockError,
    InvalidRankError,
    InvalidTagError,
    RankFailedError,
    Status,
    TruncationError,
)
from tests.conftest import spmd

pytestmark = pytest.mark.usefixtures("mpi_backend")


class TestBlockingSendRecv:
    def test_object_roundtrip(self):
        def body(comm):
            if comm.Get_rank() == 0:
                comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        assert spmd(body, 2)[1] == {"a": 7, "b": 3.14}

    def test_value_semantics_no_aliasing(self):
        """The receiver's object must be a private copy of the sender's."""
        def body(comm):
            rank = comm.Get_rank()
            if rank == 0:
                payload = [1, 2, 3]
                comm.send(payload, dest=1)
                payload.append(99)  # mutation after send must not leak
                return payload
            got = comm.recv(source=0)
            got.append(-1)  # and receiver mutation must not leak back
            return got

        outs = spmd(body, 2)
        assert outs[0] == [1, 2, 3, 99]
        assert outs[1] == [1, 2, 3, -1]

    def test_fifo_per_sender(self):
        """Messages between one pair with one tag never overtake."""
        def body(comm):
            if comm.Get_rank() == 0:
                for i in range(20):
                    comm.send(i, dest=1, tag=5)
                return None
            return [comm.recv(source=0, tag=5) for _ in range(20)]

        assert spmd(body, 2)[1] == list(range(20))

    def test_any_source_any_tag(self):
        def body(comm):
            rank, size = comm.Get_rank(), comm.Get_size()
            if rank != 0:
                comm.send(rank * 10, dest=0, tag=rank)
                return None
            status = Status()
            got = {}
            for _ in range(size - 1):
                value = comm.recv(source=ANY_SOURCE, tag=ANY_TAG, status=status)
                got[status.Get_source()] = (value, status.Get_tag())
            return got

        got = spmd(body, 4)[0]
        assert got == {1: (10, 1), 2: (20, 2), 3: (30, 3)}

    def test_tag_selectivity_out_of_arrival_order(self):
        def body(comm):
            if comm.Get_rank() == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (second, first)

        assert spmd(body, 2)[1] == ("second", "first")

    def test_proc_null_send_and_recv_are_noops(self):
        def body(comm):
            comm.send("into the void", dest=PROC_NULL)
            status = Status()
            got = comm.recv(source=PROC_NULL, status=status)
            return (got, status.Get_source())

        for out in spmd(body, 2):
            assert out == (None, PROC_NULL)

    def test_send_to_invalid_rank_raises(self):
        def body(comm):
            comm.send(1, dest=99)

        with pytest.raises(RankFailedError) as exc_info:
            spmd(body, 2)
        assert all(
            isinstance(e, InvalidRankError) for e in exc_info.value.failures.values()
        )

    def test_negative_tag_raises(self):
        def body(comm):
            comm.send(1, dest=0, tag=-5)

        with pytest.raises(RankFailedError):
            spmd(body, 1)

    def test_tag_above_ub_raises(self):
        def body(comm):
            comm.send(1, dest=0, tag=MPI.TAG_UB + 1)

        with pytest.raises(RankFailedError) as exc_info:
            spmd(body, 1)
        error = exc_info.value.failures[0]
        assert isinstance(error, InvalidTagError)
        assert f"0..{MPI.TAG_UB}" in str(error)

    def test_negative_recv_tag_is_an_invalid_tag(self):
        def body(comm):
            comm.recv(source=0, tag=-5)

        with pytest.raises(RankFailedError) as exc_info:
            spmd(body, 1, deadlock_timeout=2.0)
        assert isinstance(exc_info.value.failures[0], InvalidTagError)


class TestNonblocking:
    def test_isend_irecv_roundtrip(self):
        def body(comm):
            rank = comm.Get_rank()
            if rank == 0:
                req = comm.isend({"x": 1}, dest=1, tag=9)
                req.wait()
                return None
            req = comm.irecv(source=0, tag=9)
            return req.wait()

        assert spmd(body, 2)[1] == {"x": 1}

    def test_irecv_test_polls_until_arrival(self):
        def body(comm):
            rank = comm.Get_rank()
            if rank == 0:
                comm.barrier()
                comm.send("late", dest=1)
                return None
            req = comm.irecv(source=0)
            done, _ = req.test()
            before = done  # nothing sent yet (sender is parked at barrier)
            comm.barrier()
            while True:
                done, value = req.test()
                if done:
                    return (before, value)

        assert spmd(body, 2)[1] == (False, "late")

    def test_waitall_returns_payloads_in_order(self):
        from repro.mpi import Request

        def body(comm):
            rank, size = comm.Get_rank(), comm.Get_size()
            if rank == 0:
                reqs = [comm.irecv(source=s, tag=3) for s in range(1, size)]
                return Request.Waitall(reqs)
            comm.send(rank * 100, dest=0, tag=3)
            return None

        assert spmd(body, 4)[0] == [100, 200, 300]

    @pytest.mark.threads_only(reason="issend completes through a threading.Event")
    def test_issend_completes_only_when_matched(self):
        def body(comm):
            rank = comm.Get_rank()
            if rank == 0:
                req = comm.issend("sync", dest=1)
                done, _ = req.test()
                unmatched = done
                comm.barrier()  # let rank 1 post its recv
                req.wait()
                return unmatched
            comm.barrier()
            return comm.recv(source=0)

        outs = spmd(body, 2)
        assert outs[0] is False
        assert outs[1] == "sync"


class TestSendrecvProbe:
    def test_sendrecv_exchange_is_deadlock_free(self):
        def body(comm):
            rank, size = comm.Get_rank(), comm.Get_size()
            partner = (rank + 1) % size
            return comm.sendrecv(
                f"from {rank}", dest=partner, source=(rank - 1) % size
            )

        outs = spmd(body, 4)
        assert outs == [f"from {(r - 1) % 4}" for r in range(4)]

    def test_iprobe_reports_pending_message(self):
        def body(comm):
            rank = comm.Get_rank()
            if rank == 0:
                comm.send("ping", dest=1, tag=6)
                comm.barrier()
                return None
            comm.barrier()  # guarantee the message arrived first
            status = Status()
            seen = comm.iprobe(source=0, tag=6, status=status)
            nothing = comm.iprobe(source=0, tag=7)
            value = comm.recv(source=0, tag=6)
            return (seen, status.Get_source(), nothing, value)

        assert spmd(body, 2)[1] == (True, 0, False, "ping")

    def test_probe_blocks_until_message(self):
        def body(comm):
            rank = comm.Get_rank()
            if rank == 0:
                comm.send(42, dest=1, tag=2)
                return None
            comm.probe(source=0, tag=2)
            return comm.recv(source=0, tag=2)

        assert spmd(body, 2)[1] == 42


class TestBufferP2P:
    def test_typed_roundtrip_explicit_datatype(self):
        def body(comm):
            rank = comm.Get_rank()
            if rank == 0:
                comm.Send([np.arange(100, dtype="i"), MPI.INT], dest=1, tag=77)
                return None
            buf = np.empty(100, dtype="i")
            comm.Recv([buf, MPI.INT], source=0, tag=77)
            return buf.sum()

        assert spmd(body, 2)[1] == sum(range(100))

    def test_typed_roundtrip_automatic_discovery(self):
        def body(comm):
            rank = comm.Get_rank()
            if rank == 0:
                comm.Send(np.arange(50, dtype=np.float64), dest=1, tag=13)
                return None
            buf = np.empty(50, dtype=np.float64)
            comm.Recv(buf, source=0, tag=13)
            return float(buf[-1])

        assert spmd(body, 2)[1] == 49.0

    def test_truncation_raises(self):
        def body(comm):
            rank = comm.Get_rank()
            if rank == 0:
                comm.Send(np.arange(10, dtype="i"), dest=1)
            else:
                buf = np.empty(5, dtype="i")
                comm.Recv(buf, source=0)

        with pytest.raises(RankFailedError) as exc_info:
            spmd(body, 2)
        assert any(
            isinstance(e, TruncationError) for e in exc_info.value.failures.values()
        )

    def test_status_count_for_typed_message(self):
        def body(comm):
            rank = comm.Get_rank()
            if rank == 0:
                comm.Send(np.zeros(16, dtype="d"), dest=1)
                return None
            buf = np.empty(16, dtype="d")
            status = Status()
            comm.Recv(buf, source=0, status=status)
            return status.Get_count(MPI.DOUBLE)

        assert spmd(body, 2)[1] == 16

    def test_irecv_buffer_variant(self):
        def body(comm):
            rank = comm.Get_rank()
            if rank == 0:
                comm.Isend(np.full(8, 7, dtype="i"), dest=1).wait()
                return None
            buf = np.zeros(8, dtype="i")
            comm.Irecv(buf, source=0).wait()
            return int(buf.sum())

        assert spmd(body, 2)[1] == 56

    def test_object_recv_of_a_buffer_send_is_a_type_error(self):
        def body(comm):
            if comm.Get_rank() == 0:
                comm.Send(np.arange(3, dtype="i"), dest=1)
            else:
                comm.recv(source=0)

        with pytest.raises(RankFailedError) as exc_info:
            spmd(body, 2)
        error = exc_info.value.failures[1]
        assert isinstance(error, TypeError)
        assert "uppercase" in str(error)

    def test_mixing_object_send_with_buffer_recv_raises(self):
        def body(comm):
            rank = comm.Get_rank()
            if rank == 0:
                comm.send([1, 2, 3], dest=1)
            else:
                buf = np.empty(3, dtype="i")
                comm.Recv(buf, source=0)

        with pytest.raises(RankFailedError):
            spmd(body, 2)


class TestDeadlockDetection:
    def test_recv_first_exchange_deadlocks(self):
        def body(comm):
            partner = comm.Get_rank() ^ 1
            comm.recv(source=partner)
            comm.send("never", dest=partner)

        with pytest.raises(DeadlockError):
            spmd(body, 2, deadlock_timeout=5.0)

    @pytest.mark.threads_only(reason="ssend waits on a threading.Event")
    def test_ssend_without_receiver_deadlocks(self):
        def body(comm):
            if comm.Get_rank() == 0:
                comm.ssend("nobody listens", dest=1)
            else:
                comm.recv(source=0, tag=999)  # wrong tag: never matches

        with pytest.raises(DeadlockError):
            spmd(body, 2, deadlock_timeout=5.0)

    @pytest.mark.threads_only(reason="ssend waits on a threading.Event")
    def test_matched_ssend_completes(self):
        def body(comm):
            rank = comm.Get_rank()
            if rank == 0:
                comm.ssend("handshake", dest=1)
                return "sent"
            return comm.recv(source=0)

        assert spmd(body, 2) == ["sent", "handshake"]
