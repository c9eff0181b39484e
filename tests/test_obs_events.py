"""Event-bus layer: hook protocols, the recorder ring, arg sanitization."""

import threading

import pytest

from repro.obs.hooks import mpi as mpi_hooks
from repro.obs import Event, Recorder, active, record, sanitize_args
from repro.obs.hooks import openmp as omp_hooks


class TestTimestampedObservers:
    def test_plain_observer_protocol_unchanged(self):
        """The legacy observer(event, *args) protocol must not change."""
        seen = []

        def observer(event, *args):
            seen.append((event, args))

        omp_hooks.attach(observer)
        try:
            omp_hooks.emit("barrier_enter")
            omp_hooks.emit("acquire", "k")
        finally:
            omp_hooks.detach(observer)
        assert seen == [("barrier_enter", ()), ("acquire", ("k",))]

    def test_timestamped_observer_receives_clock(self):
        seen = []

        def observer(ts, event, *args):
            seen.append((ts, event, args))

        omp_hooks.attach(observer, timestamped=True)
        try:
            omp_hooks.emit("read", 0, None)
        finally:
            omp_hooks.detach(observer)
        assert len(seen) == 1
        ts, event, args = seen[0]
        assert isinstance(ts, float) and ts > 0.0
        assert event == "read"
        assert args == (0, None)

    def test_explicit_ts_passes_through(self):
        seen = []

        def observer(ts, event, *args):
            seen.append(ts)

        omp_hooks.attach(observer, timestamped=True)
        try:
            omp_hooks.emit("read", 0, None, ts=123.5)
        finally:
            omp_hooks.detach(observer)
        assert seen == [123.5]

    def test_both_protocols_coexist(self):
        plain, stamped = [], []

        def p(event, *args):
            plain.append(event)

        def t(ts, event, *args):
            stamped.append(event)

        mpi_hooks.attach(p)
        mpi_hooks.attach(t, timestamped=True)
        try:
            assert mpi_hooks.enabled
            mpi_hooks.emit("send", 1, 0, 1, 0, 16)
        finally:
            mpi_hooks.detach(p)
            mpi_hooks.detach(t)
        assert plain == ["send"]
        assert stamped == ["send"]
        assert not mpi_hooks.enabled

    def test_bound_method_observer_detaches(self):
        """Bound methods are fresh objects per access; detach must still work."""

        class Watcher:
            def observe(self, event, *args):
                pass

        for seam in (mpi_hooks, omp_hooks):
            w = Watcher()
            seam.attach(w.observe)
            seam.attach(w.observe)  # equal to the one attached: not added twice
            assert seam.enabled
            assert len(seam._observers) == 1
            seam.detach(w.observe)  # a *different* bound-method object
            assert not seam.enabled

    def test_enabled_reflects_either_observer_kind(self):
        def t(ts, event, *args):
            pass

        assert not omp_hooks.enabled
        omp_hooks.attach(t, timestamped=True)
        try:
            assert omp_hooks.enabled
        finally:
            omp_hooks.detach(t)
        assert not omp_hooks.enabled


class TestRecorder:
    def test_records_both_seams(self):
        with record() as rec:
            omp_hooks.emit("barrier_enter")
            mpi_hooks.emit("send", 1, 0, 1, 0, 8)
        sources = {(ev.source, ev.name) for ev in rec.events()}
        assert ("openmp", "barrier_enter") in sources
        assert ("mpi", "send") in sources

    def test_ring_capacity_and_dropped(self):
        rec = Recorder(capacity=4)
        for i in range(10):
            rec._file(float(i), "openmp", "read", (i,))
        assert len(rec) == 4
        assert rec.dropped == 6
        assert [ev.args[0] for ev in rec.events()] == [6, 7, 8, 9]

    def test_nested_recording_rejected(self):
        with record():
            with pytest.raises(RuntimeError, match="already active"):
                with record():
                    pass

    def test_active_tracks_context(self):
        assert active() is None
        with record() as rec:
            assert active() is rec
        assert active() is None

    def test_events_carry_thread_id(self):
        with record() as rec:
            omp_hooks.emit("read", 0, None)
        (ev,) = [e for e in rec.events() if e.name == "read"]
        assert ev.tid == threading.get_ident()


class TestSanitizeArgs:
    def test_scalars_pass_through(self):
        assert sanitize_args((1, 2.5, "x", True, None)) == (1, 2.5, "x", True, None)

    def test_objects_become_type_id_tuples(self):
        lock = threading.Lock()
        (out,) = sanitize_args((lock,))
        assert out[0] == "lock"
        assert isinstance(out[1], int)

    def test_nested_tuples_recurse(self):
        out = sanitize_args((("critical", 42),))
        assert out == (("critical", 42),)


class TestEvent:
    def test_shifted_zero_returns_self(self):
        ev = Event(ts=1.0, source="openmp", name="read")
        assert ev.shifted(0.0) is ev

    def test_shifted_moves_timestamp_only(self):
        ev = Event(ts=1.0, source="openmp", name="read", args=(1,), tid=7)
        moved = ev.shifted(2.5)
        assert moved.ts == 3.5
        assert (moved.name, moved.args, moved.tid) == ("read", (1,), 7)

    def test_lane_key(self):
        ev = Event(ts=0.0, source="mpi", name="send", tid=3, proc=("rank", 1))
        assert ev.lane_key() == (("rank", 1), 3)
