"""Fault injector: plan grammar, deterministic delivery faults, rank crashes."""

import pytest

from repro.mpi import (
    DeadlockError,
    RankCrashedError,
    RankFailedError,
    fork_available,
    run,
    run_procs,
)
from repro.testkit import FaultPlan, FaultRule, fault_injection, parse_plan

TIMEOUT = 4.0


def ring(comm):
    rank, size = comm.Get_rank(), comm.Get_size()
    comm.send(rank, dest=(rank + 1) % size)
    return comm.recv(source=(rank - 1) % size)


def bcast(comm):
    data = "payload" if comm.Get_rank() == 0 else None
    return comm.bcast(data, root=0)


class TestPlanGrammar:
    def test_parse_round_trip(self):
        spec = "drop:src=0,dst=1,nth=2;crash:rank=1,at=3"
        plan = parse_plan(spec)
        assert plan.format() == spec
        assert plan.token == f"f1.{spec}"
        assert parse_plan(plan.token) == plan

    def test_none_is_empty(self):
        assert not parse_plan("none")
        assert not parse_plan("")
        assert parse_plan("f1.none").format() == "none"

    @pytest.mark.parametrize(
        "bad",
        [
            "explode:rank=1",          # unknown action
            "drop:src=0",              # missing dst
            "crash:at=1",              # missing rank
            "drop:src=0,dst=1,nth=x",  # non-integer field
            "drop:src=0,dst=1,bogus=1",  # unknown field
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_plan(bad)

    def test_random_plans_are_seed_deterministic(self):
        assert FaultPlan.random(9, 3).token == FaultPlan.random(9, 3).token
        tokens = {FaultPlan.random(s, 3).token for s in range(8)}
        assert len(tokens) > 1

    def test_shrink_enumerates_single_rule_removals(self):
        plan = parse_plan("drop:src=0,dst=1,nth=1;crash:rank=1,at=1")
        shrunk = list(plan.shrink())
        assert len(shrunk) == 2
        assert all(len(p.rules) == 1 for p in shrunk)


class TestThreadRankFaults:
    def test_crash_surfaces_as_rank_failed(self):
        with fault_injection("crash:rank=1,at=2"):
            with pytest.raises(RankFailedError) as excinfo:
                run(ring, 3, deadlock_timeout=TIMEOUT)
        failure = excinfo.value.failures[1]
        assert isinstance(failure, RankCrashedError)
        assert (failure.rank, failure.at_op) == (1, 2)

    def test_crash_is_deterministic(self):
        outcomes = []
        for _ in range(3):
            with fault_injection("crash:rank=1,at=2"):
                with pytest.raises(RankFailedError) as excinfo:
                    run(ring, 3, deadlock_timeout=TIMEOUT)
            failure = excinfo.value.failures[1]
            outcomes.append((sorted(excinfo.value.failures), failure.at_op))
        assert outcomes == [([1], 2)] * 3

    def test_drop_deadlocks_the_ring(self):
        with fault_injection("drop:src=0,dst=1,nth=1"):
            with pytest.raises(DeadlockError):
                run(ring, 3, deadlock_timeout=TIMEOUT)

    def test_duplicate_is_harmless_to_matching(self):
        with fault_injection("dup:src=0,dst=1,nth=1,times=3"):
            assert run(ring, 3, deadlock_timeout=TIMEOUT) == [2, 0, 1]

    def test_delay_reorders_but_delivers(self):
        def two_sends(comm):
            rank = comm.Get_rank()
            if rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                return None
            # Tag matching must still pair each message correctly even
            # though the transport delivered them out of order.
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        with fault_injection("delay:src=0,dst=1,nth=1,after=1"):
            results = run(two_sends, 2, deadlock_timeout=TIMEOUT)
        assert results[1] == ("first", "second")

    def test_crash_mid_collective(self):
        with fault_injection("crash:rank=2,at=1"):
            with pytest.raises((RankFailedError, DeadlockError)) as excinfo:
                run(bcast, 3, deadlock_timeout=TIMEOUT)
        if isinstance(excinfo.value, RankFailedError):
            assert isinstance(excinfo.value.failures[2], RankCrashedError)

    def test_no_plan_no_interference(self):
        assert run(ring, 3, deadlock_timeout=TIMEOUT) == [2, 0, 1]

    def test_injection_context_detaches(self):
        with fault_injection("drop:src=0,dst=1,nth=1"):
            pass
        assert run(ring, 3, deadlock_timeout=TIMEOUT) == [2, 0, 1]


@pytest.mark.skipif(not fork_available(), reason="needs os.fork")
class TestProcessRankFaults:
    def test_crash_crosses_the_fork(self):
        with fault_injection("crash:rank=1,at=2"):
            with pytest.raises(RankFailedError) as excinfo:
                run_procs(ring, 3, deadlock_timeout=TIMEOUT)
        failure = excinfo.value.failures[1]
        assert isinstance(failure, RankCrashedError)
        assert (failure.rank, failure.at_op) == (1, 2)

    def test_drop_deadlocks_process_ranks(self):
        with fault_injection("drop:src=0,dst=1,nth=1"):
            with pytest.raises(DeadlockError):
                run_procs(ring, 3, deadlock_timeout=1.0)

    def test_clean_run_after_context_exit(self):
        with fault_injection("crash:rank=1,at=1"):
            pass
        assert run_procs(ring, 3, deadlock_timeout=TIMEOUT) == [2, 0, 1]


class TestRuleValidation:
    def test_crash_rule_requires_rank(self):
        with pytest.raises(ValueError):
            FaultRule(action="crash")
        assert FaultRule(action="crash", rank=0, at=2).format() == "crash:rank=0,at=2"

    def test_delivery_rule_requires_edge(self):
        with pytest.raises(ValueError):
            FaultRule(action="drop", src=0)

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(action="scramble", src=0, dst=1)
