"""Happens-before race detector: true positives, true negatives, API."""

import threading

import pytest

from repro.analysis import (
    TrackedVar,
    analyze,
    instrument,
    race_detector,
)
from repro.openmp import AtomicCounter, Lock, parallel_region
from repro.openmp.sync import barrier, critical


class TestTruePositives:
    def test_unprotected_increment_races_every_run(self):
        # Deterministic: the verdict depends on synchronization structure,
        # not on the schedule — so it must hold on every single run.
        for _ in range(3):
            with race_detector() as det:
                x = TrackedVar(0, name="x")
                parallel_region(lambda: x.add(1), num_threads=2)
            report = det.report()
            assert not report.clean
            assert report.errors[0].kind == "data-race"
            assert "'x'" in report.errors[0].message

    def test_diagnostic_names_both_accesses_and_site(self):
        with race_detector() as det:
            x = TrackedVar(0, name="shared")
            parallel_region(lambda: x.add(1), num_threads=2)
        diag = det.report().errors[0]
        assert "test_analysis_race.py" in diag.location
        assert "thread" in diag.details["first access"]
        assert "thread" in diag.details["second access"]
        assert diag.details["candidate lockset"] == "(empty)"

    def test_unsafe_counter_rmw_is_diagnosed(self):
        with race_detector() as det:
            counter = AtomicCounter(0)
            parallel_region(
                lambda: counter.unsafe_read_modify_write(1), num_threads=2
            )
        assert any(d.kind == "data-race" for d in det.report().errors)

    def test_analyze_race_patternlet_deterministic(self):
        for _ in range(3):
            report = analyze("race")
            assert not report.clean
            assert report.errors[0].kind == "data-race"
            assert "AtomicCounter" in report.errors[0].message

    def test_one_report_per_location(self):
        with race_detector() as det:
            x = TrackedVar(0, name="x")

            def body():
                for _ in range(50):
                    x.add(1)

            parallel_region(body, num_threads=4)
        races = [d for d in det.report().diagnostics if d.kind == "data-race"]
        assert len(races) == 1


class TestTrueNegatives:
    @pytest.mark.parametrize("name", ["critical", "atomic", "reduction"])
    def test_fixed_patternlets_analyze_clean(self, name):
        report = analyze(name)
        assert report.clean
        assert not report.warnings
        assert report.diagnostics[0].kind == "summary"

    def test_critical_section_orders_accesses(self):
        with race_detector() as det:
            x = TrackedVar(0, name="x")

            def body():
                with critical("guard"):
                    x.add(1)

            parallel_region(body, num_threads=4)
        assert det.report().clean

    def test_explicit_lock_orders_accesses(self):
        with race_detector() as det:
            lock = Lock()
            x = TrackedVar(0, name="x")

            def body():
                with lock:
                    x.add(1)

            parallel_region(body, num_threads=4)
        assert det.report().clean

    def test_fork_join_ordering_is_understood(self):
        with race_detector() as det:
            x = TrackedVar(0, name="x")
            x.add(1)  # before the fork
            parallel_region(lambda: x.read(), num_threads=2)
            x.add(1)  # after the join
        assert det.report().clean

    def test_barrier_separated_phases_do_not_race(self):
        from repro.openmp.team import get_thread_num

        with race_detector() as det:
            x = TrackedVar(0, name="x")

            def body():
                if get_thread_num() == 0:
                    x.write(1)
                barrier()
                x.read()  # every thread reads after the barrier

            parallel_region(body, num_threads=3)
        assert det.report().clean

    def test_reduction_note_explains_why_clean(self):
        report = analyze("reduction")
        assert any("reduction" in note for note in report.notes)


class TestLocksetFallback:
    def test_ordered_but_unlocked_writes_warn(self):
        # Thread 0 writes, barrier, thread 1 writes: happens-before clean,
        # but no common lock — Eraser flags the fragile discipline.
        from repro.openmp.team import get_thread_num

        with race_detector() as det:
            x = TrackedVar(0, name="x")

            def body():
                if get_thread_num() == 0:
                    x.write(1)
                barrier()
                if get_thread_num() == 1:
                    x.write(2)

            parallel_region(body, num_threads=2)
        report = det.report()
        assert report.clean
        assert any(d.kind == "lockset-empty" for d in report.warnings)


class TestTrackedVarApi:
    def test_read_write_add_value(self):
        x = TrackedVar(10, name="x")
        assert x.read() == 10
        x.write(11)
        assert x.value == 11
        x.value = 12
        assert x.add(3) == 15
        assert x.peek() == 15

    def test_instrument_wraps_plain_values(self):
        x = instrument(5, name="x")
        assert isinstance(x, TrackedVar)
        assert x.peek() == 5

    def test_instrument_passes_through_instrumented_types(self):
        counter = AtomicCounter(0)
        assert instrument(counter) is counter
        x = TrackedVar(0)
        assert instrument(x) is x

    def test_forced_race_under_raw_threads_is_diagnosed(self):
        # No fork/join events at all: threads register lazily.
        with race_detector() as det:
            x = TrackedVar(0, name="x")
            go = threading.Event()

            def writer():
                go.wait()
                x.add(1)

            t = threading.Thread(target=writer)
            t.start()
            x.add(1)
            go.set()
            t.join()
        assert any(d.kind == "data-race" for d in det.report().diagnostics)


class TestDetectorOverheadIsolation:
    def test_hooks_disabled_outside_context(self):
        from repro.obs.hooks import openmp as hooks

        assert not hooks.enabled
        with race_detector():
            assert hooks.enabled
        assert not hooks.enabled

    def test_runtime_results_unaffected_under_analysis(self):
        from repro.openmp import parallel_for

        with race_detector() as det:
            total = parallel_for(
                1000, lambda i: i, num_threads=4, reduction="+"
            )
        assert total == 499500
        assert det.report().clean
