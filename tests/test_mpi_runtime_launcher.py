"""World lifecycle, error propagation, console capture, mpirun emulation."""

import time

import pytest

from repro.mpi import (
    DeadlockError,
    MPI,
    NotInWorldError,
    RankFailedError,
    World,
    WorldAbortedError,
    current_comm,
    mpirun,
    parse_mpirun_command,
    run,
    run_script,
)
from tests.conftest import spmd


class TestWorldLifecycle:
    def test_run_returns_per_rank_results(self):
        assert spmd(lambda comm: comm.Get_rank() ** 2, 5) == [0, 1, 4, 9, 16]

    def test_single_rank_world(self):
        assert spmd(lambda comm: comm.Get_size(), 1) == [1]

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            World(0)

    def test_args_and_kwargs_forwarded(self):
        def body(comm, base, scale=1):
            return base + comm.Get_rank() * scale

        assert spmd(body, 3, 100, scale=10) == [100, 110, 120]

    def test_hostname_configurable(self):
        def body(comm):
            return comm.Get_processor_name()

        assert spmd(body, 2, hostname="pi-cluster-node0") == ["pi-cluster-node0"] * 2

    def test_worlds_are_isolated(self):
        """Two sequential worlds must not share mailboxes or state."""

        def sender_only(comm):
            if comm.Get_rank() == 0:
                comm.isend("stale", dest=1, tag=1)
            # rank 1 deliberately never receives

        spmd(sender_only, 2)

        def receiver(comm):
            if comm.Get_rank() == 1:
                return comm.iprobe(source=0, tag=1)
            return None

        assert spmd(receiver, 2)[1] is False


class TestErrorPropagation:
    def test_rank_exception_aggregated(self):
        def body(comm):
            if comm.Get_rank() == 1:
                raise ValueError("rank 1 exploded")
            comm.barrier()  # would hang forever without abort propagation

        with pytest.raises(RankFailedError) as exc_info:
            spmd(body, 3)
        failures = exc_info.value.failures
        assert isinstance(failures[1], ValueError)

    def test_abort_unparks_blocked_ranks(self):
        def body(comm):
            if comm.Get_rank() == 0:
                comm.Abort(errorcode=7)
            else:
                comm.recv(source=0)  # parked until the abort

        with pytest.raises(RankFailedError) as exc_info:
            spmd(body, 3)
        assert any(
            isinstance(e, WorldAbortedError)
            for e in exc_info.value.failures.values()
        )

    def test_deadlock_left_by_finished_ranks_is_caught_within_grace(self):
        """Ranks 0 and 2 return while rank 1 waits on rank 0: the last exit
        starts the all-blocked clock, so the default 30 s timeout is not
        what catches the deadlock."""

        def body(comm):
            if comm.Get_rank() == 1:
                return comm.recv(source=0)
            return None

        t0 = time.monotonic()
        with pytest.raises(DeadlockError):
            run(body, 3)
        assert time.monotonic() - t0 < 2.0

    def test_freed_comm_rejects_operations(self):
        from repro.mpi import CommAlreadyFreedError

        def body(comm):
            sub = comm.Dup()
            sub.Free()
            try:
                sub.send(1, dest=0)
            except CommAlreadyFreedError:
                return "caught"
            return "not caught"

        assert spmd(body, 2) == ["caught", "caught"]


class TestCommWorldProxy:
    def test_proxy_resolves_per_thread(self):
        def body(comm):
            # MPI.COMM_WORLD must resolve to *this* rank's view.
            return (MPI.COMM_WORLD.Get_rank(), comm.Get_rank())

        outs = spmd(body, 4)
        assert all(a == b for a, b in outs)

    def test_proxy_outside_world_raises(self):
        with pytest.raises(NotInWorldError):
            current_comm()

    def test_get_processor_name_outside_world(self):
        assert MPI.Get_processor_name() == "localhost"


class TestParseMpirun:
    def test_standard_form(self):
        inv = parse_mpirun_command("mpirun -np 4 python 00spmd.py")
        assert (inv.np, inv.script) == (4, "00spmd.py")

    def test_allow_run_as_root_and_figure2_typo(self):
        inv = parse_mpirun_command(
            "mpirun --allow-run-as-root -mp 4 python 00spmd.py"
        )
        assert inv.np == 4
        assert inv.allow_run_as_root is True

    def test_mpiexec_with_n(self):
        inv = parse_mpirun_command("mpiexec -n 8 python job.py --size 100")
        assert inv.np == 8
        assert inv.extra_args == ["--size", "100"]

    def test_python3_binary(self):
        inv = parse_mpirun_command("mpirun -np 2 python3 ring.py")
        assert inv.script == "ring.py"

    def test_default_np_is_one(self):
        assert parse_mpirun_command("mpirun python x.py").np == 1

    def test_not_mpirun_raises(self):
        with pytest.raises(ValueError, match="not an mpirun command"):
            parse_mpirun_command("ls -la")

    def test_missing_script_raises(self):
        with pytest.raises(ValueError):
            parse_mpirun_command("mpirun -np 4 python")

    def test_nonpositive_np_raises(self):
        with pytest.raises(ValueError):
            parse_mpirun_command("mpirun -np 0 python x.py")


class TestRunScript:
    def test_figure2_greetings(self):
        source = (
            "from mpi4py import MPI\n"
            "comm = MPI.COMM_WORLD\n"
            "print('Greetings from process {} of {} on {}'.format("
            "comm.Get_rank(), comm.Get_size(), MPI.Get_processor_name()))\n"
        )
        result = run_script(source, 4)
        assert len(result.stdout_lines) == 4
        ranks = sorted(int(line.split()[3]) for line in result.stdout_lines)
        assert ranks == [0, 1, 2, 3]
        assert all("of 4 on d6ff4f902ed6" in line for line in result.stdout_lines)

    def test_module_globals_are_per_rank(self):
        source = (
            "from mpi4py import MPI\n"
            "counter = 0\n"  # a module global: must be private per rank
            "counter += MPI.COMM_WORLD.Get_rank()\n"
            "print(counter)\n"
        )
        result = run_script(source, 3)
        assert sorted(int(l) for l in result.stdout_lines) == [0, 1, 2]

    def test_per_rank_lines_partition_stdout(self):
        source = "from mpi4py import MPI\nprint(MPI.COMM_WORLD.Get_rank())\n"
        result = run_script(source, 5)
        for rank in range(5):
            assert result.per_rank_lines[rank] == [str(rank)]

    def test_argv_exposed(self):
        source = "print(','.join(ARGV))\n"
        result = run_script(source, 1, argv=["--fire", "0.5"])
        assert result.stdout_lines == ["--fire,0.5"]

    def test_script_collectives(self):
        source = (
            "from mpi4py import MPI\n"
            "comm = MPI.COMM_WORLD\n"
            "total = comm.reduce(comm.Get_rank(), op=MPI.SUM, root=0)\n"
            "if comm.Get_rank() == 0:\n"
            "    print('total', total)\n"
        )
        result = run_script(source, 4)
        assert result.stdout_lines == ["total 6"]

    def test_script_deadlock_detected(self):
        source = (
            "from mpi4py import MPI\n"
            "comm = MPI.COMM_WORLD\n"
            "comm.recv(source=(comm.Get_rank() + 1) % comm.Get_size())\n"
        )
        with pytest.raises(DeadlockError):
            run_script(source, 2, deadlock_timeout=5.0)


class TestConsole:
    def test_interleaved_lines_keep_arrival_order(self):
        from repro.mpi import Console

        console = Console()
        console.write(0, "a")
        console.write(1, "b\nc")
        console.write(0, "d")
        assert console.lines() == ["a", "b", "c", "d"]
        assert console.lines(0) == ["a", "d"]
        assert console.lines(1) == ["b", "c"]
        assert len(console) == 4
        console.clear()
        assert console.lines() == []
