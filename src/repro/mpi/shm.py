"""Shared-memory payload transport for the process-rank backend.

The process ranks talk over :mod:`multiprocessing` queues, which pickle
everything they carry.  For object messages that is the right semantics
(value snapshot), but for typed NumPy buffers it turns every ``Send`` into
serialize + copy + deserialize.  This module provides the zero-copy
alternative: the payload bytes travel through a
``multiprocessing.shared_memory`` segment and only a tiny
:class:`~repro.mpi.message.BufferHandle` descriptor (segment name, shape,
dtype) rides the queue.

Three payload shapes, chosen by :func:`ship`:

* **inline** — payloads below :func:`shm_threshold` are shipped as raw
  bytes sliced straight off the caller's buffer (still no
  ``pickle.dumps`` of the array: the queue frames the bytes object, it
  does not walk an object graph);
* **owned segment** (``mode="owned"``) — a per-message segment; the
  *receiver* copies out and unlinks (single-use, no acknowledgment
  round);
* **acked segment** (``mode="acked"``) — a *sender-owned, reused*
  segment; the receiver copies out and posts an ``ack`` envelope, and the
  sender waits for that ack before overwriting the segment for the next
  message on the same edge.  Steady-state pingpong traffic therefore
  allocates nothing: the sender reuses its :class:`SendSlot`, and the
  receiver's :class:`SegmentCache` re-attaches by name without a syscall.

All payloads are flattened 1-D views by the time they reach :func:`ship`
(:func:`repro.mpi.buffers.parse_buffer` guarantees contiguity), so
``(count, dtype)`` at the start of a segment fully describes the bytes.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections import OrderedDict
from multiprocessing import shared_memory

import numpy as np

from .message import BufferHandle

__all__ = [
    "OWNED",
    "ACKED",
    "BufferHandle",
    "SegmentCache",
    "SendSlot",
    "shm_threshold",
    "ship",
    "fetch",
    "payload_nbytes",
]

#: Receiver-side disposal modes for shared-segment handles.
OWNED = "owned"  # receiver unlinks after copy-out (single-use segment)
ACKED = "acked"  # receiver acks after copy-out; sender owns and reuses

#: Payloads at or above this many bytes ride shared memory; smaller ones
#: are inlined into the envelope.  Override with REPRO_SHM_THRESHOLD.
DEFAULT_SHM_THRESHOLD = 4096


def shm_threshold() -> int:
    """The inline/shared-memory crossover size in bytes."""
    env = os.environ.get("REPRO_SHM_THRESHOLD")
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            pass
    return DEFAULT_SHM_THRESHOLD


_tracker_lock = threading.RLock()


@contextlib.contextmanager
def _tracker_silenced():
    """Keep the resource tracker out of protocol-managed segment lifetime.

    Segment lifetime here is protocol-managed: exactly one process — not
    necessarily the creator — unlinks each segment, and forked ranks may
    each lazily spawn their *own* tracker daemon.  Letting the stdlib
    register these names (bpo-39959: attach registers too) therefore
    yields either leaked-object warnings (registered in rank A's tracker,
    unlinked by rank B) or tracker KeyError crashes (two ranks sharing
    the parent's tracker both register/unregister one name, and the
    tracker's name *set* collapses the pair).  Instead the tracker never
    hears about these segments: ``register``/``unregister`` are no-ops
    for the duration of each create/attach/unlink call.
    """
    from multiprocessing import resource_tracker

    def _noop(name: str, rtype: str) -> None:  # pragma: no cover - trivial
        return None

    with _tracker_lock:
        orig_register = resource_tracker.register
        orig_unregister = resource_tracker.unregister
        resource_tracker.register = _noop
        resource_tracker.unregister = _noop
        try:
            yield
        finally:
            resource_tracker.register = orig_register
            resource_tracker.unregister = orig_unregister


def create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """A fresh untracked segment with room for ``nbytes``."""
    with _tracker_silenced():
        return shared_memory.SharedMemory(create=True, size=max(1, nbytes))


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without tracker registration."""
    with _tracker_silenced():
        return shared_memory.SharedMemory(name=name)


def unlink_segment(seg: shared_memory.SharedMemory) -> None:
    """Close and unlink, tolerating a segment that is already gone."""
    seg.close()
    with _tracker_silenced():
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class SegmentCache:
    """Attach-side cache of shared-memory segments, keyed by name.

    Re-attaching a segment is two syscalls and an mmap; a reused sender
    slot (``acked`` mode) names the same segment on every message, so the
    receiver pays that cost once.  Bounded LRU: stale entries (e.g. a
    slot segment its sender has since replaced with a larger one) are
    closed as they age out — an unlinked-but-mapped segment is valid
    POSIX, the pages live until the last ``close``.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._segments: OrderedDict[str, shared_memory.SharedMemory] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def attach(self, name: str) -> shared_memory.SharedMemory:
        seg = self._segments.get(name)
        if seg is not None:
            self.hits += 1
            self._segments.move_to_end(name)
            return seg
        self.misses += 1
        seg = attach_segment(name)
        self._segments[name] = seg
        while len(self._segments) > self.capacity:
            _, old = self._segments.popitem(last=False)
            old.close()
        return seg

    def evict(self, name: str) -> None:
        seg = self._segments.pop(name, None)
        if seg is not None:
            seg.close()

    def close(self) -> None:
        for seg in self._segments.values():
            seg.close()
        self._segments.clear()

    def __len__(self) -> int:
        return len(self._segments)


class SendSlot:
    """A sender-owned, acknowledged, reused segment for one edge."""

    def __init__(self) -> None:
        self.segment: shared_memory.SharedMemory | None = None
        self.capacity = 0
        self.awaiting_ack = False

    def reserve(self, nbytes: int) -> shared_memory.SharedMemory:
        """A segment with room for ``nbytes`` (grown by replacement).

        The caller must have collected the outstanding ack first — growth
        unlinks the old segment, which is only safe once the receiver has
        copied out of it.
        """
        if self.segment is None or self.capacity < nbytes:
            if self.segment is not None:
                unlink_segment(self.segment)
            self.segment = create_segment(nbytes)
            self.capacity = max(1, nbytes)
        return self.segment

    def release(self) -> None:
        if self.segment is not None:
            unlink_segment(self.segment)
            self.segment = None
            self.capacity = 0
        self.awaiting_ack = False


def ship(
    values: np.ndarray,
    *,
    slot: SendSlot | None = None,
    threshold: int | None = None,
) -> BufferHandle:
    """Package a flat contiguous array as an envelope payload handle.

    With ``slot`` (whose outstanding ack the caller has collected), big
    payloads reuse the slot's segment in ``acked`` mode; without one they
    get a fresh single-use ``owned`` segment.  Small payloads are inlined
    either way.
    """
    dtype = values.dtype.str
    shape = (values.size,)
    nbytes = values.nbytes
    limit = shm_threshold() if threshold is None else threshold
    if nbytes < limit:
        return BufferHandle(None, shape, dtype, data=values.tobytes())
    if slot is not None:
        seg = slot.reserve(nbytes)
        np.ndarray(shape, dtype=values.dtype, buffer=seg.buf)[:] = values
        slot.awaiting_ack = True
        return BufferHandle(seg.name, shape, dtype, mode=ACKED)
    seg = create_segment(nbytes)
    np.ndarray(shape, dtype=values.dtype, buffer=seg.buf)[:] = values
    handle = BufferHandle(seg.name, shape, dtype, mode=OWNED)
    # Drop the sender-side mapping now; the receiver unlinks after copy-out
    # (unlink-after-close is well-defined POSIX: pages live until the last
    # mapping goes away).
    seg.close()
    return handle


def fetch(handle: BufferHandle, cache: SegmentCache) -> tuple[np.ndarray, str | None]:
    """Materialize a handle's payload as a private array copy.

    Returns ``(values, ack_name)``: ``ack_name`` is the segment name the
    receiver must acknowledge to its sender (``None`` for inline and
    single-use payloads, which need no ack).
    """
    np_dtype = np.dtype(handle.dtype)
    count = handle.count
    if handle.shm_name is None:
        values = np.frombuffer(handle.data, dtype=np_dtype, count=count)
        return values.copy(), None
    if handle.mode == ACKED:
        seg = cache.attach(handle.shm_name)
        values = np.ndarray((count,), dtype=np_dtype, buffer=seg.buf).copy()
        return values, handle.shm_name
    # Single-use segment: attach directly (the name never recurs), copy,
    # and unlink — the receiver is the segment's last user.
    seg = attach_segment(handle.shm_name)
    try:
        values = np.ndarray((count,), dtype=np_dtype, buffer=seg.buf).copy()
    finally:
        unlink_segment(seg)
    return values, None


def payload_nbytes(handle: BufferHandle) -> int:
    """Wire size of a handle's payload (for Status byte counts)."""
    if handle.data is not None:
        return len(handle.data)
    return handle.count * np.dtype(handle.dtype).itemsize
