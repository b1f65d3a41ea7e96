"""Dynamic Caching (Section IV-C).

EcoCharge's bottom-up reuse strategy: solved sub-problems (the scored
candidate pool behind an Offering Table) are stored and *adapted* for
nearby later locations instead of recomputed.  A cached solution is
reusable when

* the new query location is within the range-distance parameter ``Q`` of
  the location the solution was computed for, and
* the solution is still temporally valid — the ECs carry a natural expiry
  (the caching hypothesis: ``L``, ``A``, ``D`` invalidate after some time
  ``t``).

The cache also fronts the simulated external-API responses on the server
side (see :mod:`repro.server.cache`); this module is the client-side
solution cache.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

from ..analysis.contracts import ensure
from ..chargers.charger import Charger
from ..interval_array import ComponentArrays
from ..observability.metrics import hit_ratio
from ..spatial.geometry import Point
from ..validation import require_finite


@dataclass(slots=True)
class CacheStats:
    """Hit/miss bookkeeping surfaced by the experiments."""

    hits: int = 0
    misses: int = 0
    expirations: int = 0
    out_of_range: int = 0
    #: Entries dropped because the live graph moved past the epoch they
    #: were computed on (the fence in :meth:`DynamicCache.lookup`) —
    #: distinct from ``expirations`` (time) and ``out_of_range`` (space).
    epoch_invalidations: int = 0

    @property
    def lookups(self) -> int:
        hits = self.hits
        misses = self.misses
        return hits + misses

    @property
    def hit_rate(self) -> float:
        return hit_ratio(self.hits, self.misses)


@dataclass(frozen=True, slots=True)
class CachedSolution:
    """The raw material behind one Offering Table.

    Keeping the *scored pool* (not just the top-k) is what makes
    adaptation sound: a charger that was rank 7 at the previous location
    can surface into the top-k at the new one.  ``components`` row ``i``
    prices ``pool[i]``.
    """

    segment_index: int
    origin: Point
    generated_at_h: float
    eta_h: float
    radius_km: float
    pool: tuple[Charger, ...]
    components: ComponentArrays
    #: Live-graph *weight-changing* epoch token the solution was computed
    #: on (the manager's ``weights_version``; 0 is the static network).
    #: A solution is only reusable on its own token —
    #: :meth:`DynamicCache.lookup` enforces it — while no-op epoch
    #: bumps, which leave the token unchanged, never cost the entry.
    epoch: int = 0


class DynamicCache:
    """Single-trip solution cache with ``Q``-range and TTL validity."""

    def __init__(self, range_km: float = 5.0, ttl_h: float = 1.0) -> None:
        require_finite("range_km", range_km, above=0.0)
        require_finite("ttl_h", ttl_h, above=0.0)
        self.range_km = range_km
        self.ttl_h = ttl_h
        self.stats = CacheStats()
        self._entry: CachedSolution | None = None
        # One lock covers entry + stats together: a shard's worker and a
        # checkpointing observer must never see a hit counted against an
        # entry that has already been replaced (torn read).  Re-entrant
        # because contract-checked callers may nest public methods.
        self._lock = threading.RLock()

    @ensure(
        lambda result, self, origin, now_h, epoch: result is None
        or (
            origin.distance_to(result.origin) <= self.range_km
            and now_h - result.generated_at_h <= self.ttl_h
            and result.epoch == epoch
        ),
        "Section IV-C admission: a reused solution must be within Q, "
        "temporally valid, and computed on the current epoch",
    )
    def lookup(self, origin: Point, now_h: float, epoch: int) -> CachedSolution | None:
        """The cached solution if reusable for a query at ``origin`` on the
        live graph's current weights token ``epoch``.

        The epoch fence runs first: an entry computed on a *different*
        token is dropped (counting ``epoch_invalidations``) whatever its
        TTL or range say, because derouting distances from an old graph
        must never be adapted onto the new one.  Taking the token as a
        required argument makes an unfenced lookup impossible to write;
        a static network passes ``0``.

        Misses are categorised (empty / epoch / expired / out of Q range)
        for the Q-opt experiment's diagnostics.
        """
        with self._lock:
            entry = self._entry
            if entry is not None and entry.epoch != epoch:
                self._entry = entry = None
                self.stats.epoch_invalidations += 1
            if entry is None:
                self.stats.misses += 1
                return None
            if now_h - entry.generated_at_h > self.ttl_h:
                self.stats.misses += 1
                self.stats.expirations += 1
                self._entry = None
                return None
            if origin.distance_to(entry.origin) > self.range_km:
                self.stats.misses += 1
                self.stats.out_of_range += 1
                return None
            self.stats.hits += 1
            return entry

    def store(self, solution: CachedSolution) -> None:
        """Replace the cached solution with ``solution``."""
        with self._lock:
            self._entry = solution

    def clear(self) -> None:
        """Drop the cached solution and reset statistics (new trip)."""
        with self._lock:
            self._entry = None
            self.stats = CacheStats()

    @property
    def current(self) -> CachedSolution | None:
        return self._entry

    # -- transactional state (durability / torn-segment rollback) -----------

    def checkpoint(self) -> "CacheState":
        """An immutable copy of the full cache state.

        The entry is already frozen; the stats are copied so later lookups
        cannot mutate the checkpoint.  Used as the per-segment transaction
        boundary: a segment that fails mid-mutation is rolled back to its
        checkpoint, and the durability journal records the state a
        recovered session must restore.
        """
        with self._lock:
            return CacheState(entry=self._entry, stats=replace(self.stats))

    def restore(self, state: "CacheState") -> None:
        """Reset the cache to a previously captured :class:`CacheState`."""
        with self._lock:
            self._entry = state.entry
            self.stats = replace(state.stats)


@dataclass(frozen=True, slots=True)
class CacheState:
    """A point-in-time copy of a :class:`DynamicCache`'s state."""

    entry: CachedSolution | None
    stats: CacheStats
