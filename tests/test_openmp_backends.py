"""Execution-backend layer: chunking, process pool, shared memory, config.

Process-backend kernels must pickle, so every kernel these tests ship to
the pool is a module-level function (or ``functools.partial`` over one) —
which is itself one of the behaviours under test.
"""

from __future__ import annotations

import functools
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.openmp import (
    BACKENDS,
    BackendUnavailable,
    SharedArray,
    chunk_ranges,
    for_loop,
    get_backend,
    parallel_for,
    parallel_for_chunks,
    parallel_region,
    resolve_backend,
    run_chunks,
    scoped,
    set_backend,
)
from repro.obs.hooks import openmp as hooks
from repro.openmp import backends
from repro.openmp.env import _reset_for_testing

BOTH_BACKENDS = pytest.mark.parametrize("backend", ["threads", "processes"])


# --- module-level kernels (picklable across the process boundary) ----------

def chunk_sum(lo: int, hi: int) -> int:
    return sum(range(lo, hi))


def chunk_len(lo: int, hi: int) -> int:
    return hi - lo


def square(i: int) -> int:
    return i * i


def write_chunk(shared: SharedArray, lo: int, hi: int) -> None:
    shared.array[lo:hi] = np.arange(lo, hi, dtype=shared.dtype)


def exit_chunk(lo: int, hi: int) -> None:
    os._exit(3)


def fail_on_chunk(bad_lo: int, lo: int, hi: int) -> int:
    if lo == bad_lo:
        raise ValueError(f"bad batch at {lo}")
    return sum(range(lo, hi))


def attached_chunk(lo: int, hi: int) -> tuple[int, int]:
    return os.getpid(), len(backends._attached)


def closure_chunk(lo: int, hi: int):
    return lambda: lo  # a result no pickle can ship back


def sleep_chunk(lo: int, hi: int) -> int:
    time.sleep(5)
    return lo


class Interrupted(Exception):
    """Raised in the parent by a timer while batches are in flight."""


class CountingKernel:
    """A chunk kernel that counts, in the parent, how often it is pickled."""

    reductions = 0

    def __reduce__(self):
        CountingKernel.reductions += 1
        return (CountingKernel, ())

    def __call__(self, lo: int, hi: int) -> int:
        return hi - lo


# --- chunk decomposition ---------------------------------------------------

class TestChunkRanges:
    def test_static_blocks_cover_range(self):
        ranges = chunk_ranges(10, 3, "static")
        assert ranges[0][0] == 0 and ranges[-1][1] == 10
        covered = [i for lo, hi in ranges for i in range(lo, hi)]
        assert covered == list(range(10))

    def test_n_zero_yields_no_batches(self):
        for schedule in ("static", "dynamic", "guided"):
            assert chunk_ranges(0, 4, schedule) == []

    def test_chunk_larger_than_n_is_one_batch(self):
        for schedule in ("static", "dynamic", "guided"):
            assert chunk_ranges(5, 4, schedule, chunk=10) == [(0, 5)]

    def test_guided_single_worker_still_terminates(self):
        ranges = chunk_ranges(10, 1, "guided")
        covered = [i for lo, hi in ranges for i in range(lo, hi)]
        assert covered == list(range(10))

    def test_guided_batches_decay(self):
        sizes = [hi - lo for lo, hi in chunk_ranges(100, 4, "guided")]
        assert sizes[0] == 25
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_dynamic_honours_chunk(self):
        assert chunk_ranges(7, 2, "dynamic", chunk=3) == [(0, 3), (3, 6), (6, 7)]

    def test_more_workers_than_iterations(self):
        ranges = chunk_ranges(2, 8, "static")
        covered = [i for lo, hi in ranges for i in range(lo, hi)]
        assert covered == [0, 1]
        assert all(hi > lo for lo, hi in ranges)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            chunk_ranges(-1, 2)
        with pytest.raises(ValueError):
            chunk_ranges(4, 0)
        with pytest.raises(ValueError):
            chunk_ranges(4, 2, chunk=0)
        with pytest.raises(ValueError):
            chunk_ranges(4, 2, "bogus")


# --- run_chunks / parallel_for_chunks --------------------------------------

class TestRunChunks:
    @BOTH_BACKENDS
    def test_results_in_batch_order(self, backend):
        ranges = chunk_ranges(20, 3, "dynamic", chunk=4)
        results = run_chunks(chunk_sum, ranges, workers=3, backend=backend)
        assert results == [sum(range(lo, hi)) for lo, hi in ranges]

    @BOTH_BACKENDS
    def test_empty_ranges(self, backend):
        assert run_chunks(chunk_sum, [], workers=2, backend=backend) == []

    @BOTH_BACKENDS
    def test_parallel_for_chunks_reduction(self, backend):
        total = parallel_for_chunks(
            100, chunk_sum, num_workers=3, reduction="+", backend=backend
        )
        assert total == sum(range(100))

    @BOTH_BACKENDS
    def test_parallel_for_chunks_n_zero(self, backend):
        assert parallel_for_chunks(0, chunk_sum, num_workers=2, backend=backend) == []
        assert (
            parallel_for_chunks(
                0, chunk_sum, num_workers=2, reduction="+", backend=backend
            )
            == 0
        )

    @BOTH_BACKENDS
    def test_parallel_for_chunks_chunk_bigger_than_n(self, backend):
        got = parallel_for_chunks(
            3, chunk_len, num_workers=2, schedule="dynamic", chunk=99,
            backend=backend,
        )
        assert got == [3]

    @BOTH_BACKENDS
    def test_runtime_schedule_resolves_from_config(self, backend):
        with scoped(schedule="dynamic", chunk=2):
            got = parallel_for_chunks(
                6, chunk_len, num_workers=2, schedule="runtime", backend=backend
            )
        assert got == [2, 2, 2]

    def test_unpicklable_kernel_raises_backend_unavailable(self):
        captured = []
        with pytest.raises(BackendUnavailable, match="module-level"):
            run_chunks(
                lambda lo, hi: captured.append((lo, hi)),
                [(0, 2)],
                workers=2,
                backend="processes",
            )


# --- the persistent process pool -------------------------------------------

class TestProcessPool:
    def test_dead_worker_raises_then_next_call_gets_fresh_pool(self):
        with pytest.raises(BackendUnavailable, match="worker died"):
            run_chunks(exit_chunk, [(0, 1), (1, 2)], workers=2, backend="processes")
        ranges = chunk_ranges(30, 2, "dynamic", chunk=3)
        got = run_chunks(chunk_sum, ranges, workers=2, backend="processes")
        assert got == [sum(range(lo, hi)) for lo, hi in ranges]

    def test_kernel_error_reraised_and_no_stale_reply_left(self):
        ranges = chunk_ranges(40, 2, "dynamic", chunk=2)
        with pytest.raises(ValueError, match="bad batch at 10") as excinfo:
            run_chunks(
                functools.partial(fail_on_chunk, 10), ranges, workers=2,
                backend="processes",
            )
        assert "fail_on_chunk" in str(excinfo.value.__cause__)  # worker traceback
        got = run_chunks(chunk_sum, ranges, workers=2, backend="processes")
        assert got == [sum(range(lo, hi)) for lo, hi in ranges]

    def test_unpicklable_result_raises_in_parent(self):
        with pytest.raises(RuntimeError, match="could not be pickled"):
            run_chunks(closure_chunk, [(0, 1), (1, 2)], workers=2,
                       backend="processes")
        assert run_chunks(chunk_len, [(0, 2)], workers=2,
                          backend="processes") == [2]

    def test_interrupted_call_shuts_pool_down(self):
        def interrupt(signum, frame):
            raise Interrupted

        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        try:
            t0 = time.monotonic()
            with pytest.raises(Interrupted):
                run_chunks(sleep_chunk, [(0, 1), (1, 2)], workers=2,
                           backend="processes")
            assert time.monotonic() - t0 < 2.0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert backends.pool_size() == 0  # the sleeping workers were ended
        assert run_chunks(chunk_len, [(0, 2), (2, 5)], workers=2,
                          backend="processes") == [2, 3]

    def test_kernel_pickled_once_per_call(self):
        ranges = chunk_ranges(40, 2, "dynamic", chunk=1)
        CountingKernel.reductions = 0
        got = run_chunks(CountingKernel(), ranges, workers=2, backend="processes")
        assert got == [1] * 40
        assert CountingKernel.reductions == 1

    def test_unlinked_segments_leave_worker_caches(self):
        from repro.exemplars.heat import heat_omp

        for _ in range(50):
            heat_omp(2000, 10, backend="processes")
        ranges = [(i, i + 1) for i in range(4)]
        got = run_chunks(attached_chunk, ranges, workers=4, backend="processes")
        assert len({pid for pid, _ in got}) == 4  # one batch on every worker
        assert all(count <= 2 for _, count in got), got

    def test_shutdown_ends_every_worker(self):
        ranges = [(i, i + 1) for i in range(3)]
        pids = {pid for pid, _ in run_chunks(attached_chunk, ranges, workers=3,
                                             backend="processes")}
        backends.shutdown_pool()
        assert backends.pool_size() == 0
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_calls_from_threads_are_serialised(self):
        ranges = chunk_ranges(60, 3, "dynamic", chunk=2)
        expected = [sum(range(lo, hi)) for lo, hi in ranges]
        wrong: list = []

        def caller() -> None:
            for _ in range(15):
                got = run_chunks(chunk_sum, ranges, workers=3, backend="processes")
                if got != expected:
                    wrong.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


# --- parallel_for on the process backend -----------------------------------

class TestProcessParallelFor:
    def test_reduction_parity_with_threads(self):
        expected = parallel_for(200, square, num_threads=3, reduction="+")
        got = parallel_for(
            200, square, num_threads=3, reduction="+", backend="processes"
        )
        assert got == expected == sum(i * i for i in range(200))

    @pytest.mark.parametrize("schedule", ["static", "dynamic", "guided"])
    def test_all_schedules(self, schedule):
        got = parallel_for(
            50, square, num_threads=2, schedule=schedule, reduction="+",
            backend="processes",
        )
        assert got == sum(i * i for i in range(50))

    def test_n_zero(self):
        assert (
            parallel_for(0, square, num_threads=2, reduction="+",
                         backend="processes")
            == 0
        )

    def test_max_reduction(self):
        got = parallel_for(
            30, square, num_threads=2, reduction="max", backend="processes"
        )
        assert got == 29 * 29


# --- shared-memory arrays --------------------------------------------------

class TestSharedArray:
    def test_from_array_roundtrip(self):
        src = np.arange(12, dtype=np.float64).reshape(3, 4)
        with SharedArray.from_array(src) as shared:
            assert shared.shape == (3, 4)
            assert np.array_equal(shared.array, src)

    def test_worker_writes_visible_to_parent(self):
        with SharedArray(32, np.float64) as shared:
            shared.array[:] = -1.0
            ranges = chunk_ranges(32, 4, "static")
            run_chunks(
                functools.partial(write_chunk, shared),
                ranges,
                workers=4,
                backend="processes",
            )
            assert np.array_equal(shared.array, np.arange(32, dtype=np.float64))


# --- backend configuration -------------------------------------------------

class TestBackendConfig:
    def test_registry(self):
        assert BACKENDS == ("threads", "processes")

    def test_set_get_backend(self):
        assert get_backend() == "threads"
        set_backend("processes")
        try:
            assert get_backend() == "processes"
            assert resolve_backend(None) == "processes"
        finally:
            set_backend("threads")

    def test_set_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_backend("gpu")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu")

    def test_scoped_restores_all_settings(self):
        from repro.openmp import get_config

        cfg = get_config()
        before = (cfg.num_threads, cfg.schedule, cfg.chunk, cfg.backend)
        with scoped(num_threads=7, schedule="guided", chunk=5, backend="processes"):
            assert (cfg.num_threads, cfg.schedule) == (7, "guided")
            assert (cfg.chunk, cfg.backend) == (5, "processes")
        assert (cfg.num_threads, cfg.schedule, cfg.chunk, cfg.backend) == before

    def test_omp_backend_env_var(self, monkeypatch):
        monkeypatch.setenv("OMP_BACKEND", "processes")
        _reset_for_testing()
        try:
            assert get_backend() == "processes"
        finally:
            monkeypatch.delenv("OMP_BACKEND")
            _reset_for_testing()

    def test_omp_backend_env_var_ignores_garbage(self, monkeypatch):
        monkeypatch.setenv("OMP_BACKEND", "quantum")
        _reset_for_testing()
        try:
            assert get_backend() == "threads"
        finally:
            monkeypatch.delenv("OMP_BACKEND")
            _reset_for_testing()


# --- for_loop scheduler-key regression -------------------------------------

class TestForLoopSchedulerKeys:
    def test_same_body_two_dynamic_loops_both_complete(self):
        """Regression: the shared-scheduler key used to be id(body)-based, so
        the *same* body object reaching a second identically-shaped loop
        reused the first loop's exhausted scheduler and iterated nothing."""
        one = lambda i: 1  # noqa: E731 - identity matters: same object twice

        def body():
            first = for_loop(one, 8, schedule="dynamic", reduction="+")
            second = for_loop(one, 8, schedule="dynamic", reduction="+")
            return first, second

        results = parallel_region(body, num_threads=2)
        assert results == [(8, 8), (8, 8)]

    def test_same_body_in_region_loop_guided(self):
        one = lambda i: 1  # noqa: E731

        def body():
            totals = []
            for _ in range(3):
                totals.append(for_loop(one, 10, schedule="guided", reduction="+"))
            return totals

        results = parallel_region(body, num_threads=2)
        assert results == [[10, 10, 10], [10, 10, 10]]


# --- instrumentation hooks fast path ---------------------------------------

class TestHooksFastPath:
    def test_emit_disabled_is_noop(self):
        seen = []
        assert not hooks.enabled
        hooks.emit("fork", "team")  # must not raise, must not deliver
        assert seen == []

    def test_attach_enables_and_delivers(self):
        seen = []

        def observer(event, *args):
            seen.append((event, args))

        hooks.attach(observer)
        try:
            assert hooks.enabled
            hooks.emit("barrier_enter")
            hooks.emit("acquire", "k")
            assert seen == [("barrier_enter", ()), ("acquire", ("k",))]
        finally:
            hooks.detach(observer)
        assert not hooks.enabled

    def test_detach_during_delivery_is_safe(self):
        events = []

        def observer(event, *args):
            events.append(event)
            hooks.detach(observer)

        hooks.attach(observer)
        try:
            hooks.emit("acquire", "k")
            hooks.emit("release", "k")  # observer already detached
        finally:
            hooks.detach(observer)
        assert events == ["acquire"]


# --- wall-clock speedup (the acceptance criterion) -------------------------

@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="speedup needs >= 2 cores; this host has fewer",
)
class TestRealSpeedup:
    def test_process_backend_beats_sequential(self):
        from repro.exemplars.drugdesign import generate_ligands, run_omp, run_seq
        from repro.exemplars.integration import integrate_omp, integrate_seq, quarter_circle
        from repro.platforms import measure_wall_time

        n = 400_000
        seq_s = measure_wall_time(
            lambda: integrate_seq(quarter_circle, 0.0, 2.0, n), warmup=1, repeat=3
        )
        par_s = measure_wall_time(
            lambda: integrate_omp(n, num_threads=4, backend="processes"),
            warmup=1,
            repeat=3,
        )
        assert seq_s / par_s > 1.3

        ligands = generate_ligands(600, max_len=48, seed=11)
        seq_s = measure_wall_time(lambda: run_seq(ligands), warmup=1, repeat=3)
        par_s = measure_wall_time(
            lambda: run_omp(ligands, num_threads=4, chunk=16, backend="processes"),
            warmup=1,
            repeat=3,
        )
        assert seq_s / par_s > 1.3
