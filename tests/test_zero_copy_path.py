"""The zero-copy data path: shm transport lifecycle and buffer equivalence.

Covers the transport pieces behind the uppercase verbs on the processes
backend — attach-side segment caching, unlink-on-exit hygiene, inline vs
shared-segment payload shapes — plus the two regression guards on the
contiguity contract (``parse_buffer`` rejects strided views with a
recipe; ``SharedArray.from_array`` copies them), and the headline
invariant: typed-buffer traffic serializes nothing.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.mpi import fork_available, run_procs
from repro.mpi.buffers import parse_buffer
from repro.mpi.serial import reset_serialized, serialized_totals
from repro.mpi.shm import SegmentCache, SendSlot, create_segment, ship, fetch
from repro.obs import serialization_totals
from repro.openmp import SharedArray

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process backend needs os.fork"
)


def _shm_entries() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


class TestContiguityContract:
    def test_parse_buffer_rejects_sliced_view_with_recipe(self):
        a = np.arange(16, dtype=np.float64)
        with pytest.raises(ValueError, match="ascontiguousarray"):
            parse_buffer(a[::2])

    def test_parse_buffer_rejects_transposed_view(self):
        a = np.zeros((4, 6))
        with pytest.raises(ValueError, match="contiguous"):
            parse_buffer(a[:, ::2])

    def test_shared_array_from_sliced_view_copies_values(self):
        a = np.arange(10, dtype=np.int64)
        with SharedArray.from_array(a[::2]) as shared:
            np.testing.assert_array_equal(shared.array, [0, 2, 4, 6, 8])
            # Values, not storage: writing the copy leaves the source alone.
            shared.array[0] = 99
            assert a[0] == 0

    def test_shared_array_rejects_object_dtype(self):
        with pytest.raises(TypeError, match="object"):
            SharedArray.from_array(np.array([object()]))


class TestSegmentLifecycle:
    def test_ship_fetch_inline_roundtrip(self):
        cache = SegmentCache()
        values = np.arange(8, dtype=np.float64)
        handle = ship(values)
        assert handle.shm_name is None  # below threshold: inline bytes
        out, ack = fetch(handle, cache)
        assert ack is None
        np.testing.assert_array_equal(out, values)

    def test_ship_fetch_owned_segment_unlinks(self):
        before = _shm_entries()
        cache = SegmentCache()
        values = np.arange(4096, dtype=np.float64)
        handle = ship(values)
        assert handle.shm_name is not None and handle.mode == "owned"
        out, ack = fetch(handle, cache)
        assert ack is None
        np.testing.assert_array_equal(out, values)
        assert _shm_entries() == before  # receiver unlinked the segment

    def test_slot_reuse_hits_receiver_cache(self):
        cache = SegmentCache()
        slot = SendSlot()
        try:
            for i in range(4):
                values = np.full(4096, float(i))
                handle = ship(values, slot=slot)
                assert handle.mode == "acked"
                out, ack = fetch(handle, cache)
                assert ack == handle.shm_name
                slot.awaiting_ack = False  # ack collected (same-process stand-in)
                np.testing.assert_array_equal(out, values)
        finally:
            slot.release()
            cache.close()
        # One real attach, then by-name reuse.
        assert cache.misses == 1 and cache.hits == 3

    def test_slot_release_unlinks(self):
        before = _shm_entries()
        slot = SendSlot()
        ship(np.zeros(4096), slot=slot)
        assert _shm_entries() != before
        slot.awaiting_ack = False
        slot.release()
        assert _shm_entries() == before

    def test_cache_eviction_closes_segments(self):
        cache = SegmentCache(capacity=2)
        segs = [create_segment(64) for _ in range(3)]
        try:
            for seg in segs:
                cache.attach(seg.name)
            assert len(cache) == 2  # LRU evicted the first
        finally:
            cache.close()
            for seg in segs:
                seg.close()
                try:
                    seg.unlink()
                except FileNotFoundError:
                    pass


def _exchange_body(comm, payload):
    rank = comm.Get_rank()
    if rank == 0:
        comm.Send(payload, dest=1, tag=7)
        return None
    out = np.zeros_like(payload)
    comm.Recv(out, source=0, tag=7)
    return out


@needs_fork
class TestTwoRankEquivalence:
    @pytest.mark.parametrize("dtype", [np.float64, np.int32, np.uint8])
    def test_dtypes_large_and_small(self, dtype):
        for count in (16, 8192):  # inline and shared-segment payloads
            payload = (np.arange(count) % 251).astype(dtype)
            results = run_procs(_exchange_body, 2, payload)
            np.testing.assert_array_equal(results[1], payload)
            assert results[1].dtype == payload.dtype

    def test_zero_d_array(self):
        results = run_procs(_exchange_body, 2, np.array(42.5))
        assert float(results[1]) == 42.5

    def test_empty_array(self):
        results = run_procs(_exchange_body, 2, np.zeros(0, dtype=np.int32))
        assert results[1].size == 0

    def test_two_dimensional_array(self):
        payload = np.arange(96, dtype=np.float64).reshape(8, 12)
        results = run_procs(_exchange_body, 2, payload)
        np.testing.assert_array_equal(results[1], payload)
        assert results[1].shape == payload.shape

    def test_no_segments_leak_across_run(self):
        before = _shm_entries()
        run_procs(_exchange_body, 2, np.arange(16384, dtype=np.float64))
        assert _shm_entries() == before

    def test_buffer_traffic_serializes_nothing(self):
        reset_serialized()
        run_procs(_exchange_body, 2, np.arange(32768, dtype=np.float64))
        totals = serialized_totals()
        assert totals == {"pickle_calls": 0, "pickled_bytes": 0}
        # The same counters surface through the obs metrics facade.
        assert serialization_totals() == totals


def _attach_cache_body(comm):
    rank = comm.Get_rank()
    buf = np.zeros(8192, dtype=np.float64)
    if rank == 0:
        for i in range(5):
            buf[:] = float(i)
            comm.Send(buf, dest=1, tag=0)
        return None
    for _ in range(5):
        comm.Recv(buf, source=0, tag=0)
    cache = comm._tp.edge.cache
    return (cache.hits, cache.misses)


@needs_fork
def test_repeated_sends_reuse_attached_segment():
    results = run_procs(_attach_cache_body, 2)
    hits, misses = results[1]
    # The sender reuses one acked slot, so the receiver attaches once and
    # serves every later message from its cache.
    assert misses == 1 and hits == 4
