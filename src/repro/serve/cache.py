"""LRU cache of encoded read bodies with explicit invalidation.

Rendering a full handout walks the whole module tree and escapes every
block, and encoding the read response scans the module again for its
activities — cheap once, expensive at a few thousand requests per
second.  The cache keys on ``(module_id, variant)`` where ``variant`` is
``"v<version>:<format>[:s<section>]"``, holds the encoded JSON body a
read returns, and is bounded by an LRU policy, so a hit is served with
no render and no encode.  Invalidation is *explicit*: the registry's
module-edit seam calls :meth:`invalidate` with the module id, dropping
every variant of that module, so a stale body can outlive an edit only
if nobody told the cache (which is the bug the serving tests pin).

Hit/miss/eviction/invalidation counters are :class:`repro.obs.Counter`
instances, surfaced through the app's metrics provider so
``repro.obs.snapshot_providers()`` and ``GET /metricz`` see them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable

from ..obs.metrics import Counter

__all__ = ["RenderCache"]


class RenderCache:
    """Thread-safe bounded LRU of encoded read bodies, one per variant."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[str, str], bytes] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = Counter()
        self.misses = Counter()
        self.evictions = Counter()
        self.invalidations = Counter()

    def get(self, module_id: str, variant: str, render: Callable[[], bytes]) -> bytes:
        """Return the cached body or compute, store, and return it.

        The render runs outside the lock: a slow render must not stall
        every other module's hits.  Two racing misses for the same key
        both render and both count; last write wins — acceptable because
        bodies are deterministic for a given module version.  A render
        that raises (an unknown section) is neither counted nor stored.
        """
        key = (module_id, variant)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits.inc()
                return cached
        body = render()
        with self._lock:
            self.misses.inc()
            self._entries[key] = body
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions.inc()
        return body

    def invalidate(self, module_id: str) -> int:
        """Drop every cached variant of one module; returns entries dropped."""
        with self._lock:
            stale = [key for key in self._entries if key[0] == module_id]
            for key in stale:
                del self._entries[key]
            if stale:
                self.invalidations.inc(len(stale))
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            size = len(self._entries)
        hits, misses = self.hits.count, self.misses.count
        lookups = hits + misses
        return {
            "size": size,
            "capacity": self.capacity,
            "hits": hits,
            "misses": misses,
            "evictions": self.evictions.count,
            "invalidations": self.invalidations.count,
            "hit_rate": hits / lookups if lookups else 0.0,
        }
