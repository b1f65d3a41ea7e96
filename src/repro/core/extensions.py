"""Future-work extensions from the paper's conclusion (Section VII).

Two extensions the authors name:

* **Smart-grid / tariff awareness** — an extended four-objective score
  ``SC4 = L*w1 + A*w2 + (1-D)*w3 + (1-C)*w4`` where ``C`` is the
  normalised time-of-use energy cost (see
  :mod:`repro.estimation.tariff`).  :class:`TariffAwareRanker` wraps the
  standard EcoCharge pipeline with the extra term.

* **Offering-table load balancing** — "investigate the balance of the
  produced traffic to chargers by the suggested Offering Tables, and
  monitor the congestion to redirect drivers to alternative EV charging
  stations".  :class:`ChargerLoadBalancer` tracks how many vehicles the
  system has already steered to each charger per time slot and feeds a
  crowding penalty back into availability, so a fleet of EcoCharge
  vehicles spreads over sites instead of stampeding the single best one.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace

from ..chargers.charger import Charger
from ..estimation.tariff import TariffEstimator
from ..intervals import Interval
from ..network.path import Trip, TripSegment
from .caching import CacheStats
from .ecocharge import EcoChargeConfig, EcoChargeRanker
from .environment import ChargingEnvironment
from .offering import OfferingTable, build_table
from .scoring import ComponentScores, ScScore, Weights, intersect_top_k


@dataclass(frozen=True, slots=True)
class ExtendedWeights:
    """Four-objective weights: (L, A, D, C) summing to 1."""

    sustainable: float
    availability: float
    derouting: float
    cost: float

    def __post_init__(self) -> None:
        values = (self.sustainable, self.availability, self.derouting, self.cost)
        if any(w < 0 for w in values):
            raise ValueError("weights must be non-negative")
        if abs(sum(values) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(values)}")

    @classmethod
    def equal(cls) -> "ExtendedWeights":
        return cls(0.25, 0.25, 0.25, 0.25)

    def base_weights(self) -> Weights:
        """The three-objective projection, renormalised (used to drive the
        inner EcoCharge pipeline before the cost term is applied)."""
        total = self.sustainable + self.availability + self.derouting
        if total <= 0:
            return Weights.equal()
        return Weights(
            self.sustainable / total, self.availability / total, self.derouting / total
        )


class TariffAwareRanker:
    """EcoCharge extended with the time-of-use energy-cost objective.

    Strategy: run the standard interval pipeline for a generous candidate
    count (``k * overshoot``), then re-rank with the four-term score that
    adds ``(1 - C) * w4``.  The cost term is per-ETA (not per-charger) at
    tariff granularity, so it shifts ranking only when it is combined with
    per-charger terms — exactly how off-peak awareness should behave.
    """

    name = "ecocharge-tariff"

    def __init__(
        self,
        environment: ChargingEnvironment,
        config: EcoChargeConfig | None = None,
        weights: ExtendedWeights | None = None,
        tariff: TariffEstimator | None = None,
        overshoot: int = 3,
    ) -> None:
        if overshoot < 1:
            raise ValueError("overshoot must be at least 1")
        self.weights = weights if weights is not None else ExtendedWeights.equal()
        base_config = config if config is not None else EcoChargeConfig()
        self.config = replace(
            base_config,
            weights=self.weights.base_weights(),
            k=base_config.k * overshoot,
        )
        self._final_k = base_config.k
        self._inner = EcoChargeRanker(environment, self.config)
        self.tariff = tariff if tariff is not None else TariffEstimator()

    def reset(self) -> None:
        """Drop per-trip state of the wrapped EcoCharge ranker."""
        self._inner.reset()

    def rank_segment(
        self,
        trip: Trip,
        segment: TripSegment,
        eta_h: float,
        now_h: float,
        next_segment: TripSegment | None = None,
    ) -> OfferingTable:
        """Rank with the four-objective score (L, A, D, energy cost)."""
        wide = self._inner.rank_segment(trip, segment, eta_h, now_h, next_segment)
        cost = self.tariff.estimate(eta_h, now_h)
        w = self.weights
        rescored: list[ScScore] = []
        by_id = {}
        for entry in wide:
            sc_min = (
                entry.sustainable.lo * w.sustainable
                + entry.availability.lo * w.availability
                + (1.0 - entry.derouting.lo) * w.derouting
                + (1.0 - cost.lo) * w.cost
            )
            sc_max = (
                entry.sustainable.hi * w.sustainable
                + entry.availability.hi * w.availability
                + (1.0 - entry.derouting.hi) * w.derouting
                + (1.0 - cost.hi) * w.cost
            )
            rescored.append(ScScore(entry.charger_id, sc_min, sc_max))
            by_id[entry.charger_id] = entry
        chosen = intersect_top_k(rescored, self._final_k)
        rows = []
        for score in chosen:
            entry = by_id[score.charger_id]
            rows.append(
                (score, entry.charger, entry.sustainable, entry.availability,
                 entry.derouting, eta_h)
            )
        return build_table(
            segment_index=segment.index,
            origin=segment.midpoint,
            generated_at_h=wide.generated_at_h,
            radius_km=wide.radius_km,
            ranked=rows,
            adapted_from=wide.adapted_from,
        )

    @property
    def cache_stats(self) -> CacheStats:
        return self._inner.cache_stats


class ChargerLoadBalancer:
    """Feedback loop spreading a fleet's offerings over chargers.

    Every accepted recommendation registers an expected arrival in a time
    slot; the balancer then damps the availability interval of crowded
    chargers (in proportion to assignments per plug), which pushes later
    vehicles toward alternatives.  This is the paper's planned congestion
    redirection, implemented as a wrapper any SegmentRanker's environment
    can share.
    """

    def __init__(self, slot_h: float = 0.5, penalty_per_vehicle: float = 0.25) -> None:
        if slot_h <= 0:
            raise ValueError("slot_h must be positive")
        if penalty_per_vehicle < 0:
            raise ValueError("penalty must be non-negative")
        self.slot_h = slot_h
        self.penalty_per_vehicle = penalty_per_vehicle
        self._assignments: dict[tuple[int, int], int] = defaultdict(int)

    def _slot(self, time_h: float) -> int:
        return int(time_h / self.slot_h)

    def register(self, charger_id: int, eta_h: float) -> None:
        """Record that a vehicle was steered to ``charger_id`` at ``eta_h``."""
        self._assignments[(charger_id, self._slot(eta_h))] += 1

    def load(self, charger_id: int, eta_h: float) -> int:
        """Vehicles already steered to ``charger_id`` in the ETA slot."""
        return self._assignments.get((charger_id, self._slot(eta_h)), 0)

    def adjusted_availability(
        self, charger: Charger, availability: Interval, eta_h: float
    ) -> Interval:
        """Availability damped by expected crowding at the ETA slot."""
        queued = self.load(charger.charger_id, eta_h)
        if queued == 0:
            return availability
        factor = max(0.0, 1.0 - self.penalty_per_vehicle * queued / charger.plugs)
        return Interval(availability.lo * factor, availability.hi * factor)

    def adjust_components(
        self,
        chargers: list[Charger],
        components: list[ComponentScores],
        eta_h: float,
    ) -> list[ComponentScores]:
        """Apply crowding penalties to a scored pool."""
        adjusted = []
        for charger, comp in zip(chargers, components):
            adjusted.append(
                replace(
                    comp,
                    availability=self.adjusted_availability(
                        charger, comp.availability, eta_h
                    ),
                )
            )
        return adjusted

    def clear(self) -> None:
        """Forget all registered assignments (new planning epoch)."""
        self._assignments.clear()


class BalancedEcoChargeRanker:
    """EcoCharge + load balancing: re-ranks under crowding penalties and
    registers the top pick so subsequent vehicles see the load."""

    name = "ecocharge-balanced"

    def __init__(
        self,
        environment: ChargingEnvironment,
        balancer: ChargerLoadBalancer,
        config: EcoChargeConfig | None = None,
    ) -> None:
        self._env = environment
        self.balancer = balancer
        self.config = config if config is not None else EcoChargeConfig()
        self._inner = EcoChargeRanker(environment, self.config)

    def reset(self) -> None:
        """Per-trip reset; the balancer's fleet-wide state persists."""
        self._inner.reset()

    def rank_segment(
        self,
        trip: Trip,
        segment: TripSegment,
        eta_h: float,
        now_h: float,
        next_segment: TripSegment | None = None,
    ) -> OfferingTable:
        """Rank under crowding penalties and register the top pick."""
        table = self._inner.rank_segment(trip, segment, eta_h, now_h, next_segment)
        # Re-rank the offered entries under current crowding.
        chargers = [entry.charger for entry in table]
        components = [
            ComponentScores(
                entry.charger_id, entry.sustainable, entry.availability, entry.derouting
            )
            for entry in table
        ]
        adjusted = self.balancer.adjust_components(chargers, components, eta_h)
        scores = []
        by_id = {}
        from .scoring import sc_score

        for charger, comp in zip(chargers, adjusted):
            scores.append(sc_score(comp, self.config.weights))
            by_id[comp.charger_id] = (charger, comp)
        chosen = intersect_top_k(scores, min(self.config.k, len(scores)))
        rows = []
        for score in chosen:
            charger, comp = by_id[score.charger_id]
            rows.append(
                (score, charger, comp.sustainable, comp.availability, comp.derouting, eta_h)
            )
        rebalanced = build_table(
            segment_index=segment.index,
            origin=segment.midpoint,
            generated_at_h=table.generated_at_h,
            radius_km=table.radius_km,
            ranked=rows,
            adapted_from=table.adapted_from,
        )
        if rebalanced.best is not None:
            self.balancer.register(rebalanced.best.charger_id, eta_h)
        return rebalanced
