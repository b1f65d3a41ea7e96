"""Time-varying traffic model.

Substitute for Google/HERE real-time traffic feeds: each edge's free-flow
travel time is inflated by a congestion multiplier that follows the
commuter double peak, scaled by road class (arterials congest more), with
an uncertainty band that widens with forecast horizon.  The model hands
the shortest-path layer min/max cost functions, which is exactly how the
derouting cost ``D`` becomes an interval.

**Live incidents.** When a :class:`~repro.network.epochs.
GraphEpochManager` is attached (:meth:`TrafficModel.set_epochs`), every
travel-time metric is additionally scaled by the current epoch's
per-edge incident factor (``inf`` = closed).  Factors are *observed*
state, not a forecast, so they multiply the optimistic and pessimistic
bounds identically and interval validity is preserved.  Cost functions
capture the epoch's immutable factor table at construction — a metric
built on epoch *e* prices epoch *e* forever — and each spec carries the
weights version as its ``epoch_version``, so the distance engine can
never join results across a weight change.  Raw static-map metrics
(``EdgeWeight`` specs) and the energy metric deliberately never see
incidents: they are the map view, not the traffic view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from typing import Mapping, Sequence

from ..intervals import Interval
from ..lru import LRU
from ..network.distance_engine import WeightSpec
from ..network.epochs import GraphEpochManager
from ..network.graph import EdgeWeight, RoadEdge
from ..network.shortest_path import CostFn
from .component import DEFAULT_CONFIDENCE, ForecastConfidence


@dataclass(frozen=True, slots=True)
class TrafficParams:
    """Shape of the diurnal congestion curve.

    The multiplier is 1 (free flow) overnight and rises to
    ``1 + peak_gain`` at the rush-hour centres.  Arterials (fast roads)
    attract through traffic and congest hardest, which
    ``speed_sensitivity`` captures.
    """

    morning_peak_h: float = 8.0
    evening_peak_h: float = 17.5
    peak_width_h: float = 1.75
    peak_gain: float = 1.2
    weekend_scale: float = 0.4
    speed_sensitivity: float = 0.5

    def __post_init__(self) -> None:
        if self.peak_width_h <= 0:
            raise ValueError("peak width must be positive")
        if self.peak_gain < 0:
            raise ValueError("peak gain must be non-negative")
        if not 0.0 <= self.weekend_scale <= 1.0:
            raise ValueError("weekend_scale must be in [0, 1]")


class TrafficModel:
    """Deterministic congestion field over (edge, time)."""

    def __init__(
        self,
        params: TrafficParams | None = None,
        seed: int = 0,
        confidence: ForecastConfidence = DEFAULT_CONFIDENCE,
    ):
        self.params = params or TrafficParams()
        self.confidence = confidence
        self._rng_seed = seed
        self._noise_cache: dict[tuple[int, int], float] = {}
        #: Static per-edge arrays for the vectorised spec evaluators, keyed
        #: by the identity of the (stable) edge sequence a DistanceEngine
        #: hierarchy hands us.  Tiny: one entry per hierarchy.
        self._batch_arrays: LRU[int, tuple[object, tuple]] = LRU(8)
        #: Live-graph epoch manager; ``None`` keeps the model static.
        self._epochs: GraphEpochManager | None = None
        #: Incident factor arrays per (arc-list id, weights version) —
        #: one entry per hierarchy per epoch.
        self._factor_arrays: LRU[tuple[int, int], tuple[object, np.ndarray]] = LRU(16)

    def cold_copy(self) -> "TrafficModel":
        """The same congestion field with empty caches and no epochs."""
        return TrafficModel(self.params, self._rng_seed, self.confidence)

    def set_epochs(self, epochs: GraphEpochManager) -> None:
        """Attach the live-graph epoch manager.

        Only metrics built *after* this call see incident factors; metrics
        already handed out keep pricing the epoch they captured, which is
        exactly the in-flight-completes-on-admission-epoch contract.  A
        model prices against one manager: its specs carry that manager's
        weights versions, and a second manager's versions would restart
        and name distances priced under the first, so a different one
        raises :class:`ValueError`.
        """
        if self._epochs is not None and epochs is not self._epochs:
            raise ValueError("this traffic model already prices against an epoch manager")
        self._epochs = epochs

    @property
    def epochs(self) -> GraphEpochManager | None:
        return self._epochs

    def _epoch_state(
        self,
    ) -> tuple[int, Mapping[tuple[int, int], float]] | tuple[None, None]:
        """(weights version, immutable factor snapshot) or (None, None).

        Read once per metric construction so the key, the scalar closure,
        and the batch evaluator all price the *same* epoch even if a bump
        lands mid-call.
        """
        manager = self._epochs
        if manager is None:
            return (None, None)
        return manager.snapshot()

    def _diurnal_gain(self, time_h: float) -> float:
        p = self.params
        hod = time_h % 24.0
        day = int(time_h // 24) % 7
        gain = p.peak_gain * (
            math.exp(-((hod - p.morning_peak_h) ** 2) / (2 * p.peak_width_h**2))
            + math.exp(-((hod - p.evening_peak_h) ** 2) / (2 * p.peak_width_h**2))
        )
        if day >= 5:
            gain *= p.weekend_scale
        return gain

    def _edge_noise(self, edge: RoadEdge) -> float:
        """Stable per-edge congestion idiosyncrasy in [0.8, 1.2] (cached:
        this sits on the hot path of every shortest-path relaxation)."""
        key = (edge.source, edge.target)
        noise = self._noise_cache.get(key)
        if noise is None:
            rng = np.random.default_rng(
                self._rng_seed * 2_000_003 + edge.source * 65_537 + edge.target
            )
            noise = float(rng.uniform(0.8, 1.2))
            self._noise_cache[key] = noise
        return noise

    def multiplier(self, edge: RoadEdge, time_h: float) -> float:
        """True congestion multiplier (>= 1) on ``edge`` at ``time_h``."""
        p = self.params
        speed_factor = 1.0 + p.speed_sensitivity * (edge.speed_kmh - 30.0) / 50.0
        speed_factor = max(0.5, speed_factor)
        return 1.0 + self._diurnal_gain(time_h) * speed_factor * self._edge_noise(edge)

    def multiplier_interval(self, edge: RoadEdge, time_h: float, now_h: float) -> Interval:
        """Forecast congestion multiplier with horizon widening.

        The band is multiplicative: a ``1 - accuracy`` relative error on
        the predicted multiplier.
        """
        truth = self.multiplier(edge, time_h)
        horizon = time_h - now_h
        if horizon <= 0:
            return Interval.exact(truth)
        rel = self.confidence.half_width(horizon)
        return Interval(max(1.0, truth * (1.0 - rel)), truth * (1.0 + rel))

    # -- cost-function factories for the shortest-path layer ---------------

    @staticmethod
    def _with_factors(
        base: CostFn, factors: Mapping[tuple[int, int], float] | None
    ) -> CostFn:
        """Scale ``base`` by the captured epoch's incident factors.

        A closed edge (factor ``inf``) returns ``inf`` directly — never
        ``base * inf``, which would be NaN on a zero-length edge.  The
        default factor 1.0 multiplies through so the operation sequence
        matches the batch evaluator exactly (``x * 1.0`` is bitwise
        ``x``, so detached and no-incident costs are identical).
        """
        if factors is None:
            return base

        def cost(edge: RoadEdge) -> float:
            factor = factors.get((edge.source, edge.target), 1.0)
            if math.isinf(factor):
                return math.inf
            return base(edge) * factor

        return cost

    def travel_time_fn(self, time_h: float) -> CostFn:
        """True travel-time cost (hours) at ``time_h``."""
        _, factors = self._epoch_state()
        base = lambda edge: edge.weight(EdgeWeight.TRAVEL_TIME_H) * self.multiplier(
            edge, time_h
        )
        return self._with_factors(base, factors)

    def _bound_fns(self, time_h: float, now_h: float) -> tuple[CostFn, CostFn]:
        """The raw (incident-free) optimistic/pessimistic cost closures."""

        def low(edge: RoadEdge) -> float:
            return edge.weight(EdgeWeight.TRAVEL_TIME_H) * self.multiplier_interval(
                edge, time_h, now_h
            ).lo

        def high(edge: RoadEdge) -> float:
            return edge.weight(EdgeWeight.TRAVEL_TIME_H) * self.multiplier_interval(
                edge, time_h, now_h
            ).hi

        return low, high

    def travel_time_bounds(self, time_h: float, now_h: float) -> tuple[CostFn, CostFn]:
        """(optimistic, pessimistic) travel-time cost functions.

        Optimistic uses each edge's lower multiplier bound, pessimistic the
        upper — running Dijkstra under each yields ``[D_min, D_max]``.
        Incident factors are observed state and scale both bounds alike.
        """
        _, factors = self._epoch_state()
        low, high = self._bound_fns(time_h, now_h)
        return self._with_factors(low, factors), self._with_factors(high, factors)

    # -- keyed weight specs for the DistanceEngine -------------------------

    def travel_time_spec(self, time_h: float) -> WeightSpec:
        """True travel-time metric with a cache identity (oracle view)."""
        version, factors = self._epoch_state()
        return WeightSpec(
            key=("travel_time", time_h),
            fn=self._with_factors(
                lambda edge: edge.weight(EdgeWeight.TRAVEL_TIME_H)
                * self.multiplier(edge, time_h),
                factors,
            ),
            batch=lambda edges: self._batch_travel_time(
                edges, time_h, time_h, "true", factors, version
            ),
            epoch_version=version,
        )

    def travel_time_bound_specs(
        self, time_h: float, now_h: float
    ) -> tuple[WeightSpec, WeightSpec]:
        """(optimistic, pessimistic) keyed metrics for ``[D_min, D_max]``.

        The spec keys make one segment's four searches, the baselines'
        re-pricings, and chaos re-rankings share cached distance maps; the
        ``batch`` evaluators mirror the scalar cost functions operation-
        for-operation so CH customisation is bitwise-consistent with the
        Dijkstra fallback.  Both specs capture one epoch snapshot — the
        lower and upper bound always price the same graph.
        """
        version, factors = self._epoch_state()
        base_low, base_high = self._bound_fns(time_h, now_h)
        low = self._with_factors(base_low, factors)
        high = self._with_factors(base_high, factors)
        return (
            WeightSpec(
                key=("travel_time_lo", time_h, now_h),
                fn=low,
                batch=lambda edges: self._batch_travel_time(
                    edges, time_h, now_h, "lo", factors, version
                ),
                epoch_version=version,
            ),
            WeightSpec(
                key=("travel_time_hi", time_h, now_h),
                fn=high,
                batch=lambda edges: self._batch_travel_time(
                    edges, time_h, now_h, "hi", factors, version
                ),
                epoch_version=version,
            ),
        )

    def _edge_arrays(self, edges: "Sequence[RoadEdge | None]") -> tuple:
        """Static (index, length, speed, noise) arrays for an arc list."""
        key = id(edges)
        cached = self._batch_arrays.get(key)
        if cached is not None and cached[0] is edges:
            return cached[1]
        index = [i for i, edge in enumerate(edges) if edge is not None]
        real = [edges[i] for i in index]
        arrays = (
            np.asarray(index, dtype=np.intp),
            len(edges),
            np.array([edge.length_km for edge in real], dtype=np.float64),
            np.array([edge.speed_kmh for edge in real], dtype=np.float64),
            np.array([self._edge_noise(edge) for edge in real], dtype=np.float64),
        )
        self._batch_arrays.put(key, (edges, arrays))
        return arrays

    def _factor_array(
        self,
        edges: "Sequence[RoadEdge | None]",
        index: "np.ndarray",
        factors: Mapping[tuple[int, int], float],
        version: int,
    ) -> "np.ndarray":
        """Incident factors aligned with the real (non-shortcut) arcs of
        ``edges``, cached per (arc list, weights version)."""
        key = (id(edges), version)
        cached = self._factor_arrays.get(key)
        if cached is not None and cached[0] is edges:
            return cached[1]
        farr = np.array(
            [
                factors.get((edges[i].source, edges[i].target), 1.0)  # type: ignore[union-attr]
                for i in index
            ],
            dtype=np.float64,
        )
        self._factor_arrays.put(key, (edges, farr))
        return farr

    def _batch_travel_time(
        self,
        edges: "Sequence[RoadEdge | None]",
        time_h: float,
        now_h: float,
        bound: str,
        factors: Mapping[tuple[int, int], float] | None = None,
        version: int | None = None,
    ) -> "np.ndarray":
        """Vectorised travel-time costs over an arc list (inf for shortcuts).

        Every operation replays :meth:`multiplier` /
        :meth:`multiplier_interval` in the same order and association so
        each element is bitwise equal to the scalar cost function —
        verified by ``tests/test_distance_engine.py``.  Incident factors
        multiply last, exactly as :meth:`_with_factors` does in the
        scalar closure (closures become ``inf``, never ``0 * inf`` NaN).
        """
        index, total, length, speed, noise = self._edge_arrays(edges)
        p = self.params
        speed_factor = np.maximum(
            0.5, 1.0 + p.speed_sensitivity * (speed - 30.0) / 50.0
        )
        truth = 1.0 + self._diurnal_gain(time_h) * speed_factor * noise
        horizon = time_h - now_h
        if bound == "true" or horizon <= 0:
            multiplier = truth
        else:
            rel = self.confidence.half_width(horizon)
            if bound == "lo":
                multiplier = np.maximum(1.0, truth * (1.0 - rel))
            else:
                multiplier = truth * (1.0 + rel)
        out = np.full(total, math.inf, dtype=np.float64)
        costs = (length / speed) * multiplier
        if factors is not None:
            farr = self._factor_array(edges, index, factors, version or 0)
            closed = np.isinf(farr)
            # Multiply closed arcs by 1.0, not inf: a zero-length closed
            # arc would compute 0 * inf (NaN, and an invalid-value warning)
            # before the select discards it.
            costs = np.where(closed, math.inf, costs * np.where(closed, 1.0, farr))
        out[index] = costs
        return out

    def energy_fn(self, time_h: float, congestion_energy_gain: float = 0.25) -> CostFn:
        """Energy cost (kWh) at ``time_h``.

        Stop-and-go traffic raises consumption, but far less than it raises
        travel time; ``congestion_energy_gain`` converts excess multiplier
        into excess energy.
        """

        def cost(edge: RoadEdge) -> float:
            excess = self.multiplier(edge, time_h) - 1.0
            return edge.weight(EdgeWeight.ENERGY_KWH) * (
                1.0 + congestion_energy_gain * excess
            )

        return cost
