"""Profile math on synthetic event streams: exact, hand-checkable numbers."""

from repro.obs import Event, build_profile, render_text, render_timeline
from repro.obs.profile import _union_length


def ev(ts, name, *args, source="openmp", tid=0, proc=None):
    return Event(ts=ts, source=source, name=name, args=args, tid=tid, proc=proc)


def mpi_ev(ts, name, *args, tid=0, proc=None):
    return Event(ts=ts, source="mpi", name=name, args=args, tid=tid, proc=proc)


class TestSpanPairing:
    def test_region_and_barrier_spans(self):
        events = [
            ev(0.0, "thread_begin", "t", 0, tid=1),
            ev(1.0, "barrier_enter", tid=1),
            ev(3.0, "barrier_exit", tid=1),
            ev(10.0, "thread_end", "t", 0, tid=1),
        ]
        profile = build_profile(events)
        assert {s.name for s in profile.spans} == {"parallel region", "barrier wait"}
        barrier = next(s for s in profile.spans if s.cat == "barrier")
        assert barrier.t0 == 1.0 and barrier.t1 == 3.0
        assert profile.unmatched == 0

    def test_acquire_closes_wait_and_opens_critical(self):
        key = ("critical", 1)
        events = [
            ev(0.0, "thread_begin", "t", 0, tid=1),
            ev(1.0, "acquire_enter", key, tid=1),
            ev(4.0, "acquire", key, tid=1),
            ev(6.0, "release", key, tid=1),
            ev(10.0, "thread_end", "t", 0, tid=1),
        ]
        profile = build_profile(events)
        wait = next(s for s in profile.spans if s.cat == "lockwait")
        hold = next(s for s in profile.spans if s.cat == "critical")
        assert (wait.t0, wait.t1) == (1.0, 4.0)
        assert (hold.t0, hold.t1) == (4.0, 6.0)
        row = profile.lock_contention["critical#0"]
        assert row["waits"] == 1 and row["wait_s"] == 3.0
        assert row["holds"] == 1 and row["hold_s"] == 2.0

    def test_bare_acquire_release_not_unmatched(self):
        """Atomic fast paths emit acquire/release without acquire_enter."""
        events = [
            ev(0.0, "thread_begin", "t", 0, tid=1),
            ev(1.0, "release", ("lock", 9), tid=1),
            ev(2.0, "thread_end", "t", 0, tid=1),
        ]
        assert build_profile(events).unmatched == 0

    def test_end_without_begin_counts_unmatched(self):
        events = [
            ev(0.0, "thread_begin", "t", 0, tid=1),
            ev(1.0, "barrier_exit", tid=1),
            ev(2.0, "thread_end", "t", 0, tid=1),
        ]
        assert build_profile(events).unmatched == 1


class TestWaitAttribution:
    def test_busy_is_extent_minus_waits(self):
        events = [
            ev(0.0, "thread_begin", "t", 0, tid=1),
            ev(2.0, "barrier_enter", tid=1),
            ev(5.0, "barrier_exit", tid=1),
            ev(10.0, "thread_end", "t", 0, tid=1),
        ]
        (lane,) = build_profile(events).lanes
        assert lane.extent_s == 10.0
        assert lane.waits_s == {"barrier": 3.0}
        assert lane.busy_s == 7.0

    def test_nested_waits_use_interval_union(self):
        """reduce wraps gather: nested collective spans must not double-count."""
        events = [
            mpi_ev(0.0, "coll_enter", 1, 0, "reduce", proc=("rank", 0)),
            mpi_ev(1.0, "coll_enter", 1, 0, "gather", proc=("rank", 0)),
            mpi_ev(7.0, "coll_exit", 1, 0, "gather", proc=("rank", 0)),
            mpi_ev(8.0, "coll_exit", 1, 0, "reduce", proc=("rank", 0)),
        ]
        (lane,) = build_profile(events).lanes
        assert lane.waits_s == {"collective": 8.0}
        assert lane.busy_s == 0.0

    def test_cross_category_overlap_does_not_go_negative(self):
        """A collective's receives nest inside the collective span."""
        events = [
            mpi_ev(0.0, "coll_enter", 0, 0, "gather", proc=("rank", 0)),
            mpi_ev(1.0, "recv_enter", 0, 0, 1, 5, proc=("rank", 0)),
            mpi_ev(5.0, "recv_exit", 0, 0, 1, 5, 16, proc=("rank", 0)),
            mpi_ev(6.0, "coll_exit", 0, 0, "gather", proc=("rank", 0)),
        ]
        (lane,) = build_profile(events).lanes
        assert lane.waits_s == {"collective": 6.0, "recv": 4.0}
        assert lane.busy_s == 0.0  # union covers the whole extent

    def test_imbalance_ratio(self):
        events = [
            ev(0.0, "thread_begin", "t", 0, tid=1),
            ev(9.0, "thread_end", "t", 0, tid=1),
            ev(0.0, "thread_begin", "t", 1, tid=2),
            ev(3.0, "thread_end", "t", 1, tid=2),
        ]
        profile = build_profile(events)
        # busy = 9 and 3; max/mean = 9/6.
        assert profile.imbalance_ratio == 1.5


class TestEdgesAndLanes:
    def test_p2p_and_collective_edges(self):
        events = [
            mpi_ev(0.0, "send", 1, 0, 1, 7, 32, proc=("rank", 0)),
            mpi_ev(1.0, "send", 1, 0, 1, 7, 32, proc=("rank", 0)),
            mpi_ev(2.0, "coll_msg", 1, 1, 0, 8, proc=("rank", 1)),
        ]
        profile = build_profile(events)
        assert profile.p2p_edges[(0, 1)] == {"messages": 2, "bytes": 64}
        assert profile.coll_edges[(1, 0)] == {"messages": 1, "bytes": 8}
        assert profile.metrics.message_bytes.count == 2

    def test_lane_ordering_ranks_then_threads_then_workers(self):
        events = [
            ev(0.0, "chunk_begin", 0, 5, proc=("worker", 999)),
            ev(1.0, "chunk_end", 0, 5, proc=("worker", 999)),
            ev(0.0, "thread_begin", "t", 0, tid=4),
            ev(1.0, "thread_end", "t", 0, tid=4),
            mpi_ev(0.0, "send", 0, 1, 0, 0, 8, proc=("rank", 1)),
        ]
        profile = build_profile(events)
        assert [lane.kind for lane in profile.lanes] == [
            "mpi-rank", "omp-thread", "omp-worker",
        ]
        assert [lane.label for lane in profile.lanes] == [
            "rank 1", "thread 0", "worker 999",
        ]


class TestUnionLength:
    def test_disjoint(self):
        assert _union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0

    def test_nested_and_overlapping(self):
        assert _union_length([(0.0, 8.0), (1.0, 7.0), (6.0, 10.0)]) == 10.0

    def test_empty(self):
        assert _union_length([]) == 0.0


class TestRendering:
    def _profile(self):
        events = [
            ev(0.0, "thread_begin", "t", 0, tid=1),
            ev(2.0, "barrier_enter", tid=1),
            ev(5.0, "barrier_exit", tid=1),
            ev(10.0, "thread_end", "t", 0, tid=1),
        ]
        return build_profile(events)

    def test_render_text_has_lane_table(self):
        text = render_text(self._profile())
        assert "thread 0" in text
        assert "load imbalance" in text

    def test_render_timeline_glyphs(self):
        timeline = render_timeline(self._profile(), width=10)
        row = timeline.splitlines()[0]
        assert "b" in row  # barrier wait visible
        assert "#" in row  # busy region visible

    def test_render_timeline_empty(self):
        assert render_timeline(build_profile([])) == "(no spans to draw)"

    def test_to_dict_round_trips_json(self):
        import json

        doc = self._profile().to_dict()
        assert json.loads(json.dumps(doc)) == doc
