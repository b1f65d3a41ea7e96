"""The EcoCharge algorithm (Algorithm 1) and framework facade.

Per trip segment:

1. **Filtering** — gather the candidate pool: chargers within the
   user-configured radius ``R`` of the segment (via a spatial index), and
   price their ECs as intervals (lines 3-10).
2. **Refinement** — evaluate Eq. 6 (top-k intersection of the SC_min and
   SC_max rankings), sort, and emit the Offering Table (lines 16-18).

Dynamic caching wraps the whole pipeline: when the vehicle has moved less
than ``Q`` since the last full computation and the solution is still
temporally valid, the cached scored pool is *adapted* — derouting deltas
are applied arithmetically and the pool re-ranked — with no new shortest
path searches or estimator calls.  That skip is the source of the paper's
speedup over the Index-Quadtree baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..analysis.contracts import ensure
from ..chargers.charger import Charger
from ..spatial.geometry import Point
from ..validation import require_finite

if TYPE_CHECKING:
    from .feasibility import VehicleConstraints
from ..estimation.derouting import REFERENCE_SPEED_KMH
from ..interval_array import ComponentArrays
from ..network.path import DEFAULT_SEGMENT_KM, Trip, TripSegment
from ..observability.recorder import Telemetry
from .caching import CachedSolution, CacheState, CacheStats, DynamicCache
from .environment import ChargingEnvironment
from .offering import OfferingTable, build_table_from_arrays
from .ranking import RankingRun, run_over_trip
from .scoring import Weights, intersect_top_k_batch, sc_score_batch


@dataclass(frozen=True, slots=True)
class EcoChargeConfig:
    """User-facing knobs of the framework.

    ``radius_km`` is the paper's ``R`` (chargers considered around the
    vehicle), ``range_km`` the paper's ``Q`` (how far the vehicle may move
    before a cached solution must be regenerated).  The paper's sweet spot
    is ``R = 50 km``, ``Q = 5 km`` (Section V-B).
    """

    k: int = 5
    radius_km: float = 50.0
    range_km: float = 5.0
    weights: Weights = Weights.equal()
    segment_km: float = DEFAULT_SEGMENT_KM
    cache_ttl_h: float = 1.0
    #: Optional cap on the scored pool kept for cache adaptation.  None
    #: stores the full filtered pool (exact adaptation over all
    #: candidates); a value like ``8 * k`` bounds per-adaptation work at a
    #: small quality cost (a charger outside the kept set cannot surface
    #: later).  Measured in benchmarks/bench_ablation_cache.py.
    cache_pool_limit: int | None = None
    #: Shortest-path backend for the environment's distance engine: None
    #: leaves the environment's current backend untouched, "dijkstra" the
    #: truncated-Dijkstra fallback, "ch" the contraction hierarchy (same
    #: quantised distances; see docs/performance.md).
    engine: str | None = None
    #: Install a live telemetry recorder (metrics registry + span tracer,
    #: see repro.observability) on the environment when this ranker is
    #: built.  False keeps the shared no-op recorder: instrumented call
    #: sites reduce to constant no-op context managers (< 3% overhead,
    #: measured by `python -m repro.experiments observability`).
    telemetry: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        for name in ("radius_km", "range_km", "segment_km", "cache_ttl_h"):
            require_finite(name, getattr(self, name), above=0.0)
        if self.cache_pool_limit is not None and self.cache_pool_limit < self.k:
            raise ValueError("cache_pool_limit must be at least k")
        if self.engine is not None and self.engine not in ("dijkstra", "ch"):
            raise ValueError("engine must be None, 'dijkstra', or 'ch'")


class EcoChargeRanker:
    """Algorithm 1 with dynamic caching, as a :class:`SegmentRanker`."""

    name = "ecocharge"

    def __init__(
        self,
        environment: ChargingEnvironment,
        config: EcoChargeConfig | None = None,
        constraints: "VehicleConstraints | None" = None,
    ) -> None:
        """``constraints`` (a
        :class:`~repro.core.feasibility.VehicleConstraints`) optionally
        narrows the Filtering phase to chargers the specific vehicle can
        reach and use."""
        self._env = environment
        self.config = config if config is not None else EcoChargeConfig()
        self.constraints = constraints
        if self.config.engine is not None:
            environment.set_engine_backend(self.config.engine)
        if self.config.telemetry and not environment.telemetry.enabled:
            environment.set_telemetry(Telemetry.live())
        self._cache = DynamicCache(
            range_km=self.config.range_km, ttl_h=self.config.cache_ttl_h
        )
        # Out to the radius edge and back, at the reference speed: the
        # shortest-path budget implied by R.
        self._budget_h = min(
            environment.derouting.max_derouting_h,
            4.0 * self.config.radius_km / REFERENCE_SPEED_KMH,
        )

    @property
    def cache_stats(self) -> CacheStats:
        return self._cache.stats

    @property
    def cache_entry(self) -> CachedSolution | None:
        """The live cached solution (what a durability journal records)."""
        return self._cache.current

    def reset(self) -> None:
        """Drop per-trip state: clears the dynamic cache."""
        self._cache.clear()

    # -- transactional state (durability integration) -----------------------

    def checkpoint_state(self) -> CacheState:
        """Capture the per-trip mutable state (the dynamic cache)."""
        return self._cache.checkpoint()

    def restore_state(self, state: CacheState) -> None:
        """Roll the per-trip state back to ``state`` (segment rollback or
        crash recovery — the two callers of the journal transaction
        boundary)."""
        self._cache.restore(state)

    # -- the algorithm -------------------------------------------------------

    @ensure(
        lambda result, self: len(result.entries) <= self.config.k,
        "an Offering Table holds at most k entries",
    )
    def rank_segment(
        self,
        trip: Trip,
        segment: TripSegment,
        eta_h: float,
        now_h: float,
        next_segment: TripSegment | None = None,
    ) -> OfferingTable:
        """Algorithm 1 for one segment: adapt from cache or recompute."""
        telemetry = self._env.telemetry
        origin = segment.midpoint
        with telemetry.span("cache.lookup", tier="cache", segment=segment.index):
            # The lookup fences on the *weights* version before its Q/TTL
            # admission test, so a no-op epoch bump never costs a warm
            # entry while a weight change always does.
            cached = self._cache.lookup(
                origin, now_h=eta_h, epoch=self._env.weights_token()
            )
        if cached is not None:
            with telemetry.span("ranker.adapt", tier="ranker", segment=segment.index):
                return self._adapt(cached, segment, origin, eta_h)
        with telemetry.span("ranker.compute", tier="ranker", segment=segment.index):
            return self._compute(trip, segment, origin, eta_h, now_h, next_segment)

    def _compute(
        self,
        trip: Trip,
        segment: TripSegment,
        origin: Point,
        eta_h: float,
        now_h: float,
        next_segment: TripSegment | None,
    ) -> OfferingTable:
        """Full Filtering + Refinement, then prime the cache."""
        pool = self._env.registry.within_radius(origin, self.config.radius_km)
        if self.constraints is not None:
            from .feasibility import filter_feasible

            pool = filter_feasible(pool, self.constraints, origin)
        if not pool:
            pool = self._env.registry.nearest(origin, k=self.config.k)
        components = self._env.score_pool(
            segment,
            pool,
            eta_h=eta_h,
            now_h=now_h,
            next_segment=next_segment,
            search_budget_h=self._budget_h,
        )
        kept_pool, kept_components = self._reduce_for_cache(pool, components)
        self._cache.store(
            CachedSolution(
                segment_index=segment.index,
                origin=origin,
                generated_at_h=eta_h,
                eta_h=eta_h,
                radius_km=self.config.radius_km,
                pool=kept_pool,
                components=kept_components,
                epoch=self._env.weights_token(),
            )
        )
        return self._refine(segment.index, origin, eta_h, eta_h, pool, components)

    def _reduce_for_cache(
        self, pool: Sequence[Charger], components: ComponentArrays
    ) -> tuple[tuple[Charger, ...], ComponentArrays]:
        """Apply ``cache_pool_limit``: keep the most promising candidates
        (by midpoint score, best first, ties in pool order) so adaptation
        work is bounded."""
        limit = self.config.cache_pool_limit
        if limit is None or len(pool) <= limit:
            return tuple(pool), components
        sc_min, sc_max = sc_score_batch(components, self.config.weights)
        kept = np.argsort(-((sc_min + sc_max) / 2.0), kind="stable")[:limit]
        return tuple(pool[i] for i in kept), components.take(kept)

    def _adapt(
        self,
        cached: CachedSolution,
        segment: TripSegment,
        origin: Point,
        eta_h: float,
    ) -> OfferingTable:
        """Adapt a cached solution to the new location (O(|pool|), no
        shortest paths, no estimator calls).

        Only the derouting component depends on the vehicle's position;
        each charger's cached ``D`` is shifted by the straight-line
        round-trip delta between old and new origin at the reference
        speed, then the whole pool is re-ranked.

        The adapted solution replaces the cache entry (the paper's
        bottom-up chain: O1 is adjusted to O2 "and this carries on to the
        next EV path segments").  Its TTL stays anchored at the original
        full computation, so drift is bounded: once the ECs expire, a full
        recomputation is forced regardless of how little the vehicle
        moved.
        """
        max_h = self._env.derouting.max_derouting_h
        # Point.distance_to per charger (math.hypot), not np.hypot, whose
        # last bit may differ.
        old_km = np.array([cached.origin.distance_to(c.point) for c in cached.pool])
        new_km = np.array([origin.distance_to(c.point) for c in cached.pool])
        delta_norm = 2.0 * (new_km - old_km) / REFERENCE_SPEED_KMH / max_h
        adapted = replace(
            cached.components,
            derouting=cached.components.derouting.add(delta_norm).clamp(0.0, 1.0),
        )
        self._cache.store(
            CachedSolution(
                segment_index=segment.index,
                origin=origin,
                generated_at_h=cached.generated_at_h,
                eta_h=eta_h,
                radius_km=cached.radius_km,
                pool=cached.pool,
                components=adapted,
                epoch=cached.epoch,
            )
        )
        return self._refine(
            segment.index,
            origin,
            eta_h,
            cached.generated_at_h,
            cached.pool,
            adapted,
            adapted_from=cached.segment_index,
        )

    def _refine(
        self,
        segment_index: int,
        origin: Point,
        eta_h: float,
        generated_at_h: float,
        pool: Sequence[Charger],
        components: ComponentArrays,
        adapted_from: int | None = None,
    ) -> OfferingTable:
        """Eq. 6 intersection + sort + table assembly (lines 16-18)."""
        sc_min, sc_max = sc_score_batch(components, self.config.weights)
        chosen_rows = intersect_top_k_batch(
            components.charger_ids,
            sc_min,
            sc_max,
            self.config.k,
            pad=True,
        )
        return build_table_from_arrays(
            segment_index=segment_index,
            origin=origin,
            generated_at_h=generated_at_h,
            radius_km=self.config.radius_km,
            components=components,
            sc_min=sc_min,
            sc_max=sc_max,
            chosen_rows=chosen_rows,
            chargers=pool,
            eta_h=eta_h,
            adapted_from=adapted_from,
        )


class EcoCharge:
    """Framework facade: plan sustainable charging along a scheduled trip.

    The quickstart entry point::

        framework = EcoCharge(environment, EcoChargeConfig(k=3))
        run = framework.plan(trip)
        for table in run.tables:
            print(table.best.charger)
    """

    def __init__(self, environment: ChargingEnvironment, config: EcoChargeConfig | None = None) -> None:
        self.environment = environment
        self.config = config if config is not None else EcoChargeConfig()
        self.ranker = EcoChargeRanker(environment, self.config)

    def plan(self, trip: Trip) -> RankingRun:
        """The CkNN-EC answer for ``trip``: one Offering Table per segment."""
        return run_over_trip(
            self.ranker, self.environment, trip, segment_km=self.config.segment_km
        )

    def offering_for(
        self, trip: Trip, segment: TripSegment, eta_h: float | None = None
    ) -> OfferingTable:
        """One-shot Offering Table for a single segment (Mode-3 style
        on-demand query)."""
        if eta_h is None:
            eta_h = self._eta_for(trip, segment)
        return self.ranker.rank_segment(
            trip, segment, eta_h=eta_h, now_h=trip.departure_time_h
        )

    def _eta_for(self, trip: Trip, segment: TripSegment) -> float:
        return self.environment.eta.eta_at_segment(
            trip, segment, segment_km=self.config.segment_km
        ).expected_h

    @property
    def cache_stats(self) -> CacheStats:
        return self.ranker.cache_stats
