"""The scalar reference pipeline the array code is checked against.

Production prices, caches, adapts, ranks and re-scores a candidate pool
only as :class:`~repro.interval_array.ComponentArrays`.  This module
keeps the per-row form — one :class:`~repro.intervals.Interval` per
component and charger — as an oracle: the same steps written with
``Interval`` and ``ComponentScores`` dataclasses, Eq. 4-6 one charger at
a time (``sc_score``, ``intersect_top_k``) and ``build_table``, with
``L`` and ``A`` written out per charger from the models' inputs and each
busy timetable written out hour by hour.  Tests compare production
output with it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from repro.chargers.charger import Charger
from repro.core.ecocharge import EcoChargeConfig
from repro.core.environment import ChargingEnvironment
from repro.core.extensions import ChargerLoadBalancer, ExtendedWeights
from repro.core.offering import OfferingEntry, OfferingTable
from repro.core.scoring import ScScore, Weights
from repro.estimation.derouting import REFERENCE_SPEED_KMH
from repro.interval_array import ComponentArrays
from repro.intervals import Interval
from repro.network.path import Trip, TripSegment
from repro.spatial.geometry import Point


@dataclass(frozen=True, slots=True)
class ComponentScores:
    """The three normalised EC intervals for one charger at one ETA.

    All three live in [0, 1]; for ``L`` and ``A`` bigger is better, for
    ``D`` smaller is better (the score flips it via ``1 - D``).
    """

    charger_id: int
    sustainable: Interval
    availability: Interval
    derouting: Interval

    def __post_init__(self) -> None:
        for name, interval in (
            ("sustainable", self.sustainable),
            ("availability", self.availability),
            ("derouting", self.derouting),
        ):
            if not interval.within_bounds(0.0, 1.0, tol=1e-9):
                raise ValueError(f"{name} interval {interval} not normalised to [0, 1]")


def sc_score(components: ComponentScores, weights: Weights) -> ScScore:
    """Eq. 4 and Eq. 5 for one charger."""
    w1, w2, w3 = weights.as_tuple()
    sc_min = (
        components.sustainable.lo * w1
        + components.availability.lo * w2
        + (1.0 - components.derouting.lo) * w3
    )
    sc_max = (
        components.sustainable.hi * w1
        + components.availability.hi * w2
        + (1.0 - components.derouting.hi) * w3
    )
    return ScScore(components.charger_id, sc_min, sc_max)


def intersect_top_k(scores: list[ScScore], k: int, pad: bool = True) -> list[ScScore]:
    """Eq. 6: intersect the SC_min top-k with the SC_max top-k, pad with
    the best remaining chargers by midpoint, and sort by descending
    SC_max, then SC_min, then id."""
    if k < 1:
        raise ValueError("k must be at least 1")
    by_min = sorted(scores, key=lambda s: (-s.sc_min, s.charger_id))[:k]
    by_max = sorted(scores, key=lambda s: (-s.sc_max, s.charger_id))[:k]
    min_ids = {s.charger_id for s in by_min}
    chosen = [s for s in by_max if s.charger_id in min_ids]
    if pad and len(chosen) < k:
        chosen_ids = {s.charger_id for s in chosen}
        leftovers = sorted(
            (s for s in scores if s.charger_id not in chosen_ids),
            key=lambda s: (-s.midpoint, s.charger_id),
        )
        chosen.extend(leftovers[: k - len(chosen)])
    chosen.sort(key=lambda s: (-s.sc_max, -s.sc_min, s.charger_id))
    return chosen[:k]


def rank_by_midpoint(scores: list[ScScore], k: int) -> list[ScScore]:
    """The intersection ablation's alternative: sort by midpoint score."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return sorted(scores, key=lambda s: (-s.midpoint, s.charger_id))[:k]


def build_table(
    segment_index: int,
    origin: Point,
    generated_at_h: float,
    radius_km: float,
    ranked: list[tuple[ScScore, Charger, Interval, Interval, Interval, float]],
    adapted_from: int | None = None,
) -> OfferingTable:
    """An :class:`OfferingTable` from ``(score, charger, L, A, D, eta_h)``
    rows in final rank order."""
    entries = tuple(
        OfferingEntry(
            rank=i + 1,
            charger=charger,
            score=score,
            sustainable=l_iv,
            availability=a_iv,
            derouting=d_iv,
            eta_h=eta_h,
        )
        for i, (score, charger, l_iv, a_iv, d_iv, eta_h) in enumerate(ranked)
    )
    return OfferingTable(
        segment_index=segment_index,
        origin=origin,
        generated_at_h=generated_at_h,
        radius_km=radius_km,
        entries=entries,
        adapted_from=adapted_from,
    )


def bits(value: float) -> bytes:
    """The raw IEEE-754 bit pattern (distinguishes -0.0 from 0.0)."""
    return np.float64(value).tobytes()


def assert_tables_bitequal(
    expected: Sequence[OfferingTable], got: Sequence[OfferingTable]
) -> None:
    """Same tables, entries, ranks and raw float bits."""
    assert len(expected) == len(got)
    for a, b in zip(expected, got):
        assert a.segment_index == b.segment_index
        assert a.adapted_from == b.adapted_from
        assert bits(a.generated_at_h) == bits(b.generated_at_h)
        assert len(a.entries) == len(b.entries)
        for ea, eb in zip(a.entries, b.entries):
            assert ea.charger_id == eb.charger_id
            assert ea.rank == eb.rank
            assert bits(ea.score.sc_min) == bits(eb.score.sc_min)
            assert bits(ea.score.sc_max) == bits(eb.score.sc_max)
            for field in ("sustainable", "availability", "derouting"):
                iva, ivb = getattr(ea, field), getattr(eb, field)
                assert bits(iva.lo) == bits(ivb.lo), (field, iva, ivb)
                assert bits(iva.hi) == bits(ivb.hi), (field, iva, ivb)


def assert_rows_bitequal(
    expected: Sequence[ComponentScores], got: Sequence[ComponentScores]
) -> None:
    """Same charger per row and the same raw float bits per component."""
    assert [c.charger_id for c in expected] == [c.charger_id for c in got]
    for a, b in zip(expected, got):
        for field in ("sustainable", "availability", "derouting"):
            iva, ivb = getattr(a, field), getattr(b, field)
            assert bits(iva.lo) == bits(ivb.lo), (a.charger_id, field, iva, ivb)
            assert bits(iva.hi) == bits(ivb.hi), (a.charger_id, field, iva, ivb)


def rows(arrays: ComponentArrays) -> list[ComponentScores]:
    """One ``ComponentScores`` per array row, in row order."""
    return [
        ComponentScores(
            charger_id=int(arrays.charger_ids[i]),
            sustainable=arrays.sustainable.at(i),
            availability=arrays.availability.at(i),
            derouting=arrays.derouting.at(i),
        )
        for i in range(len(arrays))
    ]


def clear_sky_kw(
    capacity_kw: float,
    time_h: float,
    sunrise_h: float = 6.0,
    sunset_h: float = 20.0,
    peak_fraction: float = 0.85,
) -> float:
    """A site's clear-sky production: a squared half-sine between sunrise
    and sunset, exactly 0.0 outside."""
    hour = time_h % 24
    if hour <= sunrise_h or hour >= sunset_h:
        return 0.0
    phase = (hour - sunrise_h) / (sunset_h - sunrise_h)
    return capacity_kw * peak_fraction * math.sin(math.pi * phase) ** 2


def sustainable_row(
    environment: ChargingEnvironment,
    charger: Charger,
    eta_h: float,
    now_h: float,
    attenuation: Interval | None = None,
) -> Interval:
    """Normalised ``L`` for one charger (Eq. 1): the clear-sky hull of
    five samples over the charging window, times the forecast
    attenuation, capped at the rated power, scaled by the environment
    maximum and clamped.  ``attenuation`` defaults to the weather
    model's forecast for the window."""
    window_h = environment.charging_window_h
    if attenuation is None:
        attenuation = environment.weather.window_attenuation(eta_h, eta_h + window_h, now_h)
    samples = [
        clear_sky_kw(charger.solar_capacity_kw, eta_h + window_h * i / 4.0)
        for i in range(5)
    ]
    produced = Interval(min(samples), max(samples)) * attenuation
    power = Interval(min(produced.lo, charger.rate_kw), min(produced.hi, charger.rate_kw))
    max_kw = max(min(c.rate_kw, c.solar_capacity_kw * 0.85) for c in environment.registry)
    return power.scaled_by_max(max_kw).clamp(0.0, 1.0)


def busy_timetable_row(
    seed: int,
    base_load: float = 0.25,
    morning_peak: float = 0.5,
    midday_peak: float = 0.55,
    evening_peak: float = 0.65,
    weekend_scale: float = 0.8,
) -> tuple[float, ...]:
    """One charger's weekly busy profile, hour by hour: the shifted
    commuter, midday and evening bumps over ``base_load`` (scaled on
    weekends), times the site factor and one noise draw per hour, clamped
    to [0, 1]."""
    rng = np.random.default_rng(seed)
    site_factor = float(rng.uniform(0.5, 1.4))
    values = []
    for hour in range(168):
        day, hod = divmod(hour, 24)
        weekend = day >= 5
        morning_centre = 10.0 if weekend else 8.0
        midday_centre = 14.0 if weekend else 13.0
        evening_centre = 16.0 if weekend else 18.0
        level = base_load
        level += morning_peak * np.exp(-((hod - morning_centre) ** 2) / (2 * 2.0**2))
        level += midday_peak * np.exp(-((hod - midday_centre) ** 2) / (2 * 2.0**2))
        level += evening_peak * np.exp(-((hod - evening_centre) ** 2) / (2 * 2.5**2))
        if weekend:
            level *= weekend_scale
        level *= site_factor * float(rng.uniform(0.85, 1.15))
        values.append(min(1.0, max(0.0, level)))
    return tuple(values)


def availability_row(
    environment: ChargingEnvironment, charger: Charger, eta_h: float, now_h: float
) -> Interval:
    """``A`` for one charger (Eq. 2): ``1 - busy ** plugs`` at the ETA's
    hour, exact at horizon <= 0, else widened by the horizon and
    clamped."""
    estimator = environment.availability
    busy = estimator.timetable(charger.charger_id).busyness[int(eta_h) % 168]
    truth = 1.0 - busy**charger.plugs
    horizon = eta_h - now_h
    if horizon <= 0:
        return Interval.exact(truth)
    return estimator.confidence.interval_around(truth, horizon)


def _round_trip(
    node: int,
    outbound: Mapping[int, float],
    back_same: Mapping[int, float],
    back_next: Mapping[int, float],
) -> float | None:
    out = outbound.get(node)
    if out is None:
        return None
    returns = [cost for cost in (back_same.get(node), back_next.get(node)) if cost is not None]
    if not returns:
        return None
    return out + min(returns)


def price_rows(
    environment: ChargingEnvironment,
    segment: TripSegment,
    pool: Sequence[Charger],
    eta_h: float,
    now_h: float,
    next_segment: TripSegment | None = None,
    search_budget_h: float | None = None,
) -> list[ComponentScores]:
    """Interval L/A/D per charger: the derouting round trip priced one
    charger at a time from six single-target distance maps (outbound,
    back to this segment's end, back to the next one's, per bound)."""
    derouting = environment.derouting
    max_h = derouting.max_derouting_h
    budget = search_budget_h if search_budget_h is not None else max_h
    engine = derouting.engine
    nodes = {charger.node_id for charger in pool}
    rejoin_same = segment.node_ids[-1]
    rejoin_next = next_segment.node_ids[-1] if next_segment is not None else rejoin_same
    (out_lo, same_lo, next_lo), (out_hi, same_hi, next_hi) = (
        (
            engine.one_to_many(segment.anchor_node, nodes, spec, max_cost=budget),
            engine.many_to_one(nodes, rejoin_same, spec, max_cost=budget),
            engine.many_to_one(nodes, rejoin_next, spec, max_cost=budget),
        )
        for spec in environment.traffic.travel_time_bound_specs(eta_h, now_h)
    )
    priced = []
    for charger in pool:
        lo = _round_trip(charger.node_id, out_lo, same_lo, next_lo)
        hi = _round_trip(charger.node_id, out_hi, same_hi, next_hi)
        if lo is None or hi is None:
            hours = Interval.exact(max_h)
        else:
            hours = Interval(min(lo, hi), max(lo, hi))
        priced.append(
            ComponentScores(
                charger_id=charger.charger_id,
                sustainable=sustainable_row(environment, charger, eta_h, now_h),
                availability=availability_row(environment, charger, eta_h, now_h),
                derouting=hours.scaled_by_max(max_h).clamp(0.0, 1.0),
            )
        )
    return priced


def reduce_rows(
    pool: Sequence[Charger],
    components: Sequence[ComponentScores],
    limit: int | None,
    weights: Weights,
) -> tuple[list[Charger], list[ComponentScores]]:
    """``cache_pool_limit``: a stable sort by descending midpoint score,
    cut at ``limit``."""
    if limit is None or len(pool) <= limit:
        return list(pool), list(components)
    kept = sorted(
        zip(pool, components), key=lambda pair: -sc_score(pair[1], weights).midpoint
    )[:limit]
    return [p for p, __ in kept], [c for __, c in kept]


def adapt_rows(
    pool: Sequence[Charger],
    components: Sequence[ComponentScores],
    old_origin: Point,
    new_origin: Point,
    max_h: float,
) -> list[ComponentScores]:
    """Shift each cached ``D`` by the straight-line round-trip delta
    between the two origins at the reference speed, then clamp."""
    adapted = []
    for charger, comp in zip(pool, components):
        old_km = old_origin.distance_to(charger.point)
        new_km = new_origin.distance_to(charger.point)
        delta_norm = 2.0 * (new_km - old_km) / REFERENCE_SPEED_KMH / max_h
        adapted.append(
            replace(
                comp,
                derouting=Interval(
                    comp.derouting.lo + delta_norm, comp.derouting.hi + delta_norm
                ).clamp(0.0, 1.0),
            )
        )
    return adapted


def refine_rows(
    pool: Sequence[Charger],
    components: Sequence[ComponentScores],
    weights: Weights,
    k: int,
    *,
    segment_index: int,
    origin: Point,
    generated_at_h: float,
    radius_km: float,
    eta_h: float,
    pad: bool = True,
    adapted_from: int | None = None,
) -> OfferingTable:
    """Eq. 4-6 per row, then the Offering Table."""
    by_id = {comp.charger_id: (charger, comp) for charger, comp in zip(pool, components)}
    chosen = intersect_top_k([sc_score(comp, weights) for comp in components], k, pad=pad)
    ranked = []
    for score in chosen:
        charger, comp = by_id[score.charger_id]
        ranked.append(
            (score, charger, comp.sustainable, comp.availability, comp.derouting, eta_h)
        )
    return build_table(
        segment_index=segment_index,
        origin=origin,
        generated_at_h=generated_at_h,
        radius_km=radius_km,
        ranked=ranked,
        adapted_from=adapted_from,
    )


@dataclass
class _Entry:
    segment_index: int
    origin: Point
    generated_at_h: float
    pool: list[Charger]
    components: list[ComponentScores]


class ScalarEcoCharge:
    """Algorithm 1 with dynamic caching, one ``ComponentScores`` per
    charger: the reference for ``EcoChargeRanker`` on a static network
    with no vehicle constraints."""

    name = "scalar-ecocharge"

    def __init__(self, environment: ChargingEnvironment, config: EcoChargeConfig):
        self._env = environment
        self.config = config
        if config.engine is not None:
            environment.set_engine_backend(config.engine)
        self._budget_h = min(
            environment.derouting.max_derouting_h,
            4.0 * config.radius_km / REFERENCE_SPEED_KMH,
        )
        self._entry: _Entry | None = None

    def reset(self) -> None:
        self._entry = None

    def rank_segment(
        self,
        trip: Trip,
        segment: TripSegment,
        eta_h: float,
        now_h: float,
        next_segment: TripSegment | None = None,
    ) -> OfferingTable:
        config = self.config
        origin = segment.midpoint
        entry = self._entry
        if (
            entry is not None
            and eta_h - entry.generated_at_h <= config.cache_ttl_h
            and origin.distance_to(entry.origin) <= config.range_km
        ):
            adapted = adapt_rows(
                entry.pool,
                entry.components,
                entry.origin,
                origin,
                self._env.derouting.max_derouting_h,
            )
            self._entry = _Entry(
                segment.index, origin, entry.generated_at_h, entry.pool, adapted
            )
            return self._refine(
                segment.index, origin, eta_h, entry.generated_at_h, entry.pool, adapted,
                adapted_from=entry.segment_index,
            )
        pool = self._env.registry.within_radius(origin, config.radius_km)
        if not pool:
            pool = self._env.registry.nearest(origin, k=config.k)
        components = price_rows(
            self._env, segment, pool, eta_h, now_h, next_segment, self._budget_h
        )
        kept_pool, kept = reduce_rows(
            pool, components, config.cache_pool_limit, config.weights
        )
        self._entry = _Entry(segment.index, origin, eta_h, kept_pool, kept)
        return self._refine(segment.index, origin, eta_h, eta_h, pool, components)

    def _refine(
        self,
        segment_index: int,
        origin: Point,
        eta_h: float,
        generated_at_h: float,
        pool: Sequence[Charger],
        components: Sequence[ComponentScores],
        adapted_from: int | None = None,
    ) -> OfferingTable:
        return refine_rows(
            pool,
            components,
            self.config.weights,
            self.config.k,
            segment_index=segment_index,
            origin=origin,
            generated_at_h=generated_at_h,
            radius_km=self.config.radius_km,
            eta_h=eta_h,
            pad=True,
            adapted_from=adapted_from,
        )


# -- the table re-scorers, one entry at a time ------------------------------


def widen_table_rows(table: OfferingTable, factor: float, weights: Weights) -> OfferingTable:
    """Brownout widening: every interval widened by ``factor`` and
    clamped, re-scored, entry order kept."""
    rows = []
    for entry in table.entries:
        sustainable = entry.sustainable.widened(factor).clamp(0.0, 1.0)
        availability = entry.availability.widened(factor).clamp(0.0, 1.0)
        derouting = entry.derouting.widened(factor).clamp(0.0, 1.0)
        score = sc_score(
            ComponentScores(entry.charger_id, sustainable, availability, derouting), weights
        )
        rows.append((score, entry.charger, sustainable, availability, derouting, entry.eta_h))
    return build_table(
        table.segment_index,
        table.origin,
        table.generated_at_h,
        table.radius_km,
        rows,
        adapted_from=table.adapted_from,
    )


def widen_table_for_epoch_rows(
    table: OfferingTable, ratio_lo: float, ratio_hi: float, weights: Weights
) -> OfferingTable:
    """Epoch widening: ``D`` scaled by the ratio bracket (the vacuous
    ``[0, inf]`` bracket for an adapted table), a non-finite upper end
    saturated to 1, clamped, re-scored, entry order kept."""
    if table.adapted_from is not None and (ratio_lo, ratio_hi) != (1.0, 1.0):
        ratio_lo, ratio_hi = 0.0, math.inf
    rows = []
    for entry in table.entries:
        lo = entry.derouting.lo * ratio_lo
        hi = entry.derouting.hi * ratio_hi
        if math.isinf(hi) or math.isnan(hi):
            hi = 1.0
        derouting = Interval(lo, hi).clamp(0.0, 1.0)
        score = sc_score(
            ComponentScores(entry.charger_id, entry.sustainable, entry.availability, derouting),
            weights,
        )
        rows.append(
            (score, entry.charger, entry.sustainable, entry.availability, derouting, entry.eta_h)
        )
    return build_table(
        table.segment_index,
        table.origin,
        table.generated_at_h,
        table.radius_km,
        rows,
        adapted_from=table.adapted_from,
    )


def tariff_rows(
    wide: OfferingTable,
    segment: TripSegment,
    eta_h: float,
    cost: Interval,
    weights: ExtendedWeights,
    k: int,
) -> OfferingTable:
    """``TariffAwareRanker``'s re-ranking of its inner table under the
    four-term score, summed left to right."""
    rescored = []
    by_id = {}
    for entry in wide:
        sc_min = (
            entry.sustainable.lo * weights.sustainable
            + entry.availability.lo * weights.availability
            + (1.0 - entry.derouting.lo) * weights.derouting
            + (1.0 - cost.lo) * weights.cost
        )
        sc_max = (
            entry.sustainable.hi * weights.sustainable
            + entry.availability.hi * weights.availability
            + (1.0 - entry.derouting.hi) * weights.derouting
            + (1.0 - cost.hi) * weights.cost
        )
        rescored.append(ScScore(entry.charger_id, sc_min, sc_max))
        by_id[entry.charger_id] = entry
    rows = []
    for score in intersect_top_k(rescored, k):
        entry = by_id[score.charger_id]
        rows.append(
            (score, entry.charger, entry.sustainable, entry.availability, entry.derouting, eta_h)
        )
    return build_table(
        segment.index,
        segment.midpoint,
        wide.generated_at_h,
        wide.radius_km,
        rows,
        adapted_from=wide.adapted_from,
    )


def balanced_rows(
    table: OfferingTable,
    segment: TripSegment,
    eta_h: float,
    balancer: ChargerLoadBalancer,
    weights: Weights,
    k: int,
) -> OfferingTable:
    """``BalancedEcoChargeRanker``'s re-ranking of its inner table with
    each availability damped by the crowding at the ETA slot."""
    by_id = {}
    scores = []
    for entry in table:
        availability = entry.availability
        queued = balancer.load(entry.charger_id, eta_h)
        if queued:
            factor = max(
                0.0, 1.0 - balancer.penalty_per_vehicle * queued / entry.charger.plugs
            )
            availability = Interval(availability.lo * factor, availability.hi * factor)
        comp = ComponentScores(
            entry.charger_id, entry.sustainable, availability, entry.derouting
        )
        scores.append(sc_score(comp, weights))
        by_id[entry.charger_id] = (entry.charger, comp)
    rows = []
    for score in intersect_top_k(scores, min(k, len(scores))):
        charger, comp = by_id[score.charger_id]
        rows.append(
            (score, charger, comp.sustainable, comp.availability, comp.derouting, eta_h)
        )
    return build_table(
        segment.index,
        segment.midpoint,
        table.generated_at_h,
        table.radius_km,
        rows,
        adapted_from=table.adapted_from,
    )


class ScalarRandomRanker:
    """``RandomRanker``: ``k`` shuffled chargers inside the radius, each
    with zero scores and the vacuous ``[0, 1]`` interval per component."""

    name = "scalar-random"

    def __init__(
        self, environment: ChargingEnvironment, k: int, radius_km: float, seed: int
    ) -> None:
        self._env = environment
        self.k = k
        self.radius_km = radius_km
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)

    def rank_segment(
        self,
        trip: Trip,
        segment: TripSegment,
        eta_h: float,
        now_h: float,
        next_segment: TripSegment | None = None,
    ) -> OfferingTable:
        registry = self._env.registry
        pool = registry.within_radius(segment.midpoint, self.radius_km)
        if not pool:
            pool = registry.nearest(segment.midpoint, k=self.k)
        picks = list(pool)
        self._rng.shuffle(picks)
        unknown = Interval(0.0, 1.0)
        rows = [
            (ScScore(charger.charger_id, 0.0, 0.0), charger, unknown, unknown, unknown, eta_h)
            for charger in picks[: self.k]
        ]
        return build_table(segment.index, segment.midpoint, now_h, self.radius_km, rows)
