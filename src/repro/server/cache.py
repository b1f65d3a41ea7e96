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
from typing import Any, Callable, Hashable

from ..lru import LRU
from ..observability.metrics import hit_ratio
from ..spatial.geometry import Point


@dataclass(slots=True)
class ResponseCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stale_hits: int = 0
    compute_errors: int = 0
    #: ``get_or_compute`` callers that joined another caller's in-flight
    #: computation instead of starting their own (single-flight).
    coalesced: int = 0

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


class _Flight:
    """One in-progress ``get_or_compute`` computation (single-flight).

    The leader computes and publishes either ``value`` or ``error``
    before setting ``done``; followers block on ``done`` and then read
    whichever was published.  The fields are written exactly once,
    before the event is set, so followers never observe a torn flight.
    """

    __slots__ = ("done", "value", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None


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
        if ttl_h <= 0:
            raise ValueError("ttl_h must be positive")
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.ttl_h = ttl_h
        self.max_entries = max_entries
        self.stats = ResponseCacheStats()
        self._entries: LRU[Hashable, _Entry] = LRU(max_entries)
        # Entries, stats, and the in-flight table mutate under one
        # re-entrant lock; ``compute()`` itself always runs outside it so
        # a slow upstream never blocks unrelated keys.
        self._lock = threading.RLock()
        self._inflight: dict[Hashable, _Flight] = {}

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

    def _fresh_entry(self, key: Hashable, now_h: float) -> _Entry | None:
        """The entry under ``key`` if within its TTL (a read refreshes
        its recency either way)."""
        entry = self._entries.get(key)
        if entry is not None and now_h - entry.stored_h <= self.ttl_h:
            return entry
        return None

    def lookup(self, key: Hashable, now_h: float) -> CachedValue | None:
        """Fresh entry under ``key`` or None; counts a hit or a miss."""
        with self._lock:
            entry = self._fresh_entry(key, now_h)
            if entry is not None:
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

    def get_or_compute(self, key: Hashable, now_h: float, compute: Callable[[], Any]) -> Any:
        """Cached value if fresh, else compute, store, and return.

        Concurrent callers for the same key **coalesce into one
        computation** (single-flight): the first caller becomes the
        leader and runs ``compute()`` outside the cache lock; later
        callers park on the flight and receive the leader's value (or
        error) when it lands, counted as ``coalesced`` — never as extra
        hits, misses, or errors, so one upstream computation reconciles
        to exactly one miss (or one ``compute_errors``) however many
        requests rode it.

        A ``compute()`` failure is counted as ``compute_errors`` (not a
        miss), leaves any previous entry in place for serve-stale, and
        propagates to the caller — the cache never swallows upstream
        errors and never stores a placeholder for a failed computation.
        """
        with self._lock:
            entry = self._fresh_entry(key, now_h)
            if entry is not None:
                self.stats.hits += 1
                return entry.value
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._inflight[key] = flight
            else:
                self.stats.coalesced += 1
        if not leader:
            flight.done.wait(timeout=None)
            if flight.error is not None:
                raise flight.error
            return flight.value
        try:
            value = compute()
        except BaseException as error:
            with self._lock:
                if isinstance(error, Exception):
                    self.stats.compute_errors += 1
                self._inflight.pop(key, None)
            # Publish before waking followers so they never read a torn
            # flight; the flight is already unlinked, so a retry starts
            # a fresh computation instead of inheriting this failure.
            flight.error = error
            flight.done.set()
            raise
        with self._lock:
            self.stats.misses += 1
            self.put(key, now_h, value)
            self._inflight.pop(key, None)
        flight.value = value
        flight.done.set()
        return value

    def put(self, key: Hashable, now_h: float, value: Any) -> None:
        """Store ``value`` under ``key``, evicting the least recently
        *used* entry if full (reads refresh recency, so hot entries
        survive write bursts)."""
        with self._lock:
            entry = _Entry(stored_h=now_h, value=value)
            self.stats.evictions += self._entries.put(key, entry)

    def invalidate_older_than(self, now_h: float) -> int:
        """Drop expired entries; returns how many were removed."""
        with self._lock:
            return self._entries.drop_where(
                lambda _, entry: now_h - entry.stored_h > self.ttl_h
            )

    def clear(self) -> None:
        """Drop every entry and reset statistics (in-flight computations
        are left to land; their stores repopulate the fresh cache)."""
        with self._lock:
            self._entries.clear()
            self.stats = ResponseCacheStats()
