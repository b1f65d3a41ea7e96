"""Server-side response cache.

The EIS "mitigates the need for redundant API call requests by
intelligently employing a smart caching mechanism" (Section IV).  This is
a TTL keyed cache with spatial bucketing: requests for nearby locations at
nearby times share entries, which is what collapses the per-client API
fan-out when many vehicles traverse the same area.

Beyond freshness, the cache is the middle rung of the resilience
degradation ladder (``docs/resilience.md``): entries past their TTL are
retained up to the eviction bound and can be served *stale* when the
upstream provider is failing — ``lookup_stale`` with an explicit
staleness bound, so serve-stale-on-error is bounded, observable
(``stats.stale_hits``), and never silently substitutes for a fresh
response on the happy path.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Any, Hashable

from ..lru import LRU
from ..observability.metrics import hit_ratio
from ..spatial.geometry import Point
from ..validation import require_finite


@dataclass(slots=True)
class ResponseCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stale_hits: int = 0

    @property
    def hit_rate(self) -> float:
        return hit_ratio(self.hits, self.misses)


@dataclass(frozen=True, slots=True)
class CachedValue:
    """A cache read: the stored value plus how old it is."""

    value: Any
    stored_h: float
    age_h: float


@dataclass(frozen=True, slots=True)
class _Entry:
    """One stored response: write time and payload."""

    stored_h: float
    value: Any


class ResponseCache:
    """TTL cache with a true LRU size bound.

    Keys are arbitrary hashables; :meth:`spatial_key` buckets locations
    and times so continuous queries quantise onto shared entries.
    Recency is tracked per *access* (reads refresh it), so a hot entry
    is never evicted in favour of a cold one merely because the cold one
    was written later; accesses that share one ``now_h`` still order by
    when they happened.
    """

    def __init__(self, ttl_h: float = 0.5, max_entries: int = 4096):
        require_finite("ttl_h", ttl_h, above=0.0)
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.ttl_h = ttl_h
        self.max_entries = max_entries
        self.stats = ResponseCacheStats()
        self._entries: LRU[Hashable, _Entry] = LRU(max_entries)
        # Entries and stats mutate under one lock.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def spatial_key(
        kind: str, location: Point, time_h: float, cell_km: float = 2.0, slot_h: float = 0.25
    ) -> tuple:
        """Bucketed key: same cell + same quarter-hour share an entry."""
        return (
            kind,
            math.floor(location.x / cell_km),
            math.floor(location.y / cell_km),
            math.floor(time_h / slot_h),
        )

    def lookup(self, key: Hashable, now_h: float) -> CachedValue | None:
        """Fresh entry under ``key`` or None; counts a hit or a miss.

        A read refreshes the entry's recency, fresh or expired."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and now_h - entry.stored_h <= self.ttl_h:
                self.stats.hits += 1
                return CachedValue(entry.value, entry.stored_h, now_h - entry.stored_h)
            self.stats.misses += 1
            return None

    def lookup_stale(
        self, key: Hashable, now_h: float, max_stale_h: float | None = None
    ) -> CachedValue | None:
        """Any entry under ``key`` no older than ``max_stale_h``.

        The error-path read of the degradation ladder: unlike
        :meth:`lookup` it ignores the TTL (``max_stale_h=None`` accepts
        any retained entry) and counts ``stale_hits`` instead of
        hits/misses, so serve-stale never distorts the hit rate the
        caching experiments measure.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            age_h = now_h - entry.stored_h
            if max_stale_h is not None and age_h > max_stale_h:
                return None
            self.stats.stale_hits += 1
            return CachedValue(entry.value, entry.stored_h, max(0.0, age_h))

    def put(self, key: Hashable, now_h: float, value: Any) -> None:
        """Store ``value`` under ``key``, evicting the least recently
        *used* entry if full (reads refresh recency, so hot entries
        survive write bursts)."""
        with self._lock:
            entry = _Entry(stored_h=now_h, value=value)
            self.stats.evictions += self._entries.put(key, entry)

    def clear(self) -> None:
        """Drop every entry and reset statistics."""
        with self._lock:
            self._entries.clear()
            self.stats = ResponseCacheStats()
