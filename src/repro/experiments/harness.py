"""Experiment harness: repetition management and method comparison.

Reproduces the paper's measurement protocol: for every query point (trip
segment), each method produces an Offering Table while its CPU time is
measured; selections are graded against ground truth, with Brute Force
defining 100 % SC; means and standard deviations are taken over ~10
repetitions (Section V-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core.baselines import BruteForceRanker, QuadtreeRanker, RandomRanker
from ..core.ecocharge import EcoChargeConfig, EcoChargeRanker
from ..core.environment import ChargingEnvironment
from ..core.offering import OfferingTable
from ..core.ranking import SegmentRanker
from ..core.scoring import Weights
from ..network.path import Trip
from ..trajectories.datasets import Workload, load_workload
from .metrics import (
    MeanStd,
    Stopwatch,
    component_contributions,
    oracle_truths_for_tables,
    sc_percent,
    true_sc_of_selection,
)


@dataclass(frozen=True, slots=True)
class HarnessConfig:
    """Scale knobs for an experiment run.

    Defaults are sized for interactive runs; the committed EXPERIMENTS.md
    numbers use ``repetitions=10`` to match the paper's protocol.
    """

    trips_per_dataset: int = 4
    repetitions: int = 3
    k: int = 5
    segment_km: float = 4.0
    dataset_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trips_per_dataset < 1:
            raise ValueError("trips_per_dataset must be positive")
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")
        if self.k < 1:
            raise ValueError("k must be positive")


@dataclass
class MethodResult:
    """Aggregated outcome of one method on one workload."""

    method: str
    dataset: str
    ft_ms: MeanStd
    sc_pct: MeanStd
    contributions: tuple[float, float, float] = (0.0, 0.0, 0.0)
    extra: dict[str, float] = field(default_factory=dict)


RankerFactory = Callable[[ChargingEnvironment], SegmentRanker]


def default_rankers(
    k: int, weights: Weights, radius_km: float = 50.0, range_km: float = 5.0
) -> dict[str, RankerFactory]:
    """The paper's four methods (Figure 6), ready to instantiate."""
    return {
        "brute-force": lambda env: BruteForceRanker(env, k=k, weights=weights),
        "index-quadtree": lambda env: QuadtreeRanker(env, k=k, weights=weights),
        "random": lambda env: RandomRanker(env, k=k, radius_km=radius_km),
        "ecocharge": lambda env: EcoChargeRanker(
            env,
            EcoChargeConfig(
                k=k, radius_km=radius_km, range_km=range_km, weights=weights
            ),
        ),
    }


def ecocharge_factory(
    k: int, weights: Weights, radius_km: float, range_km: float
) -> RankerFactory:
    """An EcoCharge variant for the R-opt / Q-opt sweeps."""
    return lambda env: EcoChargeRanker(
        env,
        EcoChargeConfig(k=k, radius_km=radius_km, range_km=range_km, weights=weights),
    )


@dataclass
class _TripObservation:
    """Raw per-trip measurements before aggregation."""

    ft_ms: list[float] = field(default_factory=list)
    true_sc: list[float] = field(default_factory=list)
    contributions: list[tuple[float, float, float]] = field(default_factory=list)


def compare_methods(
    workload: Workload,
    factories: dict[str, RankerFactory],
    config: HarnessConfig,
    grading_weights: Weights | None = None,
    reference: str = "brute-force",
) -> list[MethodResult]:
    """Run every method over the workload's trips and grade them.

    ``grading_weights`` is the weight vector used for the ground-truth SC
    (the ablation grades every configuration with equal weights);
    ``reference`` names the method whose SC defines 100 % — it must be one
    of the factories.  Per repetition and per trip, each segment yields
    one timed ranking call per method.
    """
    if reference not in factories:
        raise ValueError(f"reference method {reference!r} not among factories")
    grading = grading_weights if grading_weights is not None else Weights.equal()
    environment = workload.environment
    trips = _select_trips(workload, config)

    observations: dict[str, _TripObservation] = {
        name: _TripObservation() for name in factories
    }

    for __ in range(config.repetitions):
        rankers = {name: factory(environment) for name, factory in factories.items()}
        for trip in trips:
            _observe_trip(environment, trip, rankers, config, grading, observations, reference)

    results = []
    for name in factories:
        obs = observations[name]
        ref_obs = observations[reference]
        pct = [
            sc_percent(sc, ref)
            for sc, ref in zip(obs.true_sc, ref_obs.true_sc)
            if ref > 0
        ]
        contributions = _mean_contributions(obs.contributions)
        results.append(
            MethodResult(
                method=name,
                dataset=workload.name,
                ft_ms=MeanStd.of(obs.ft_ms),
                sc_pct=MeanStd.of(pct),
                contributions=contributions,
            )
        )
    return results


def _select_trips(workload: Workload, config: HarnessConfig) -> list[Trip]:
    import numpy as np

    trips = workload.trips
    if len(trips) <= config.trips_per_dataset:
        return list(trips)
    rng = np.random.default_rng(config.seed)
    picks = sorted(rng.choice(len(trips), size=config.trips_per_dataset, replace=False))
    return [trips[i] for i in picks]


def _observe_trip(
    environment: ChargingEnvironment,
    trip: Trip,
    rankers: dict[str, SegmentRanker],
    config: HarnessConfig,
    grading: Weights,
    observations: dict[str, _TripObservation],
    reference: str,
) -> None:
    segments = trip.segments(config.segment_km)
    etas = environment.eta.segment_etas(trip, segment_km=config.segment_km)
    for ranker in rankers.values():
        ranker.reset()

    for i, segment in enumerate(segments):
        next_segment = segments[i + 1] if i + 1 < len(segments) else None
        eta_h = etas[i].expected_h
        tables: dict[str, OfferingTable] = {}
        for name, ranker in rankers.items():
            watch = Stopwatch()
            with watch.lap():
                table = ranker.rank_segment(
                    trip, segment, eta_h=eta_h, now_h=trip.departure_time_h,
                    next_segment=next_segment,
                )
            tables[name] = table
            observations[name].ft_ms.append(watch.laps_ms[0])

        truths = oracle_truths_for_tables(
            environment, segment, tables.values(), eta_h, next_segment
        )
        for name, table in tables.items():
            obs = observations[name]
            obs.true_sc.append(
                true_sc_of_selection(truths, table.charger_ids(), grading)
            )
            obs.contributions.append(
                component_contributions(truths, table.charger_ids())
            )


def _mean_contributions(
    rows: Sequence[tuple[float, float, float]],
) -> tuple[float, float, float]:
    if not rows:
        return (0.0, 0.0, 0.0)
    n = len(rows)
    return (
        sum(r[0] for r in rows) / n,
        sum(r[1] for r in rows) / n,
        sum(r[2] for r in rows) / n,
    )


def load_workloads(
    names: Sequence[str], config: HarnessConfig
) -> dict[str, Workload]:
    """Materialise the requested datasets at the configured scale."""
    return {
        name: load_workload(name, scale=config.dataset_scale, environment_seed=config.seed)
        for name in names
    }
