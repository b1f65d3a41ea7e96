"""Performance trajectory — Dijkstra vs contraction-hierarchy serving.

A routing-dominated serving workload (continuous EcoCharge ranking over
several trips sharing one :class:`~repro.network.distance_engine.DistanceEngine`)
is priced under both engine backends and the speedup is recorded to
``BENCH_perf.json`` at the working directory, together with a bounded
history of previous runs so the trajectory of the number across commits
stays visible.

The two backends must agree *bitwise* on every delivered offering-table
interval (the :mod:`~repro.network.distance_engine` quantisation
contract); any disagreement aborts the run with a non-zero exit, so the
benchmark doubles as an end-to-end equivalence check (the CI
``perf-smoke`` job runs it at a reduced scale).

Timing protocol: the CH topology is preprocessed once per scenario
(metric-independent, reported as ``preprocess_s``); each repetition then
serves every trip cold (fresh engine caches, all customisations paid)
and again warm (same engine, caches hot).  The headline ``speedup`` is
cold Dijkstra time over cold CH time on the best scenario — the
steady-state serving comparison, with preprocessing reported alongside.

The warm ratio is a first-class headline too: ``speedup_warm`` (the
*worst* scenario's warm ratio — a floor, not a best case) is recorded in
the bounded history next to the cold number, and the run exits non-zero
when any scenario's warm ratio falls below :data:`WARM_FLOOR` — CH must
never lose the warm path again (the regression this guards against was
``speedup_warm = 0.069``).  Engine statistics are reported *per phase*:
cold counters are snapshotted after the cold pass and the warm pass
reports deltas, so warm-path cache behaviour is visible instead of being
averaged into a meaningless cold+warm aggregate (the old 0.5 hit rate).

``--profile`` re-serves each scenario's warm pass once more under a live
span tracer (untimed, after measurement) and prints the top self-time
spans per scenario — the same view that located the warm-path repair.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..observability.clock import SYSTEM_CLOCK, Clock, iso_utc
from ..observability.recorder import NOOP_TELEMETRY, Telemetry

from ..chargers.plugshare import CatalogSpec, generate_catalog
from ..core.ecocharge import EcoChargeConfig, EcoChargeRanker
from ..core.environment import ChargingEnvironment
from ..core.ranking import run_over_trip
from ..network.builders import build_grid_network, build_radial_network
from ..network.contraction import ContractionHierarchy
from ..network.distance_engine import BACKENDS, DistanceEngine, EngineStats
from ..network.graph import RoadNetwork
from ..network.path import Trip
from .harness import HarnessConfig

#: Most recent runs kept in the persistent report.
HISTORY_LIMIT = 20

REPORT_FULL = "BENCH_perf.json"
REPORT_SMOKE = "BENCH_perf_smoke.json"

#: Minimum acceptable warm ratio (Dijkstra warm over CH warm) on every
#: full-scale scenario: warm CH serving must not be slower than warm
#: Dijkstra.  The smoke variant keeps a looser floor — its workload is a
#: 10x10 grid served in ~1 ms, where timer noise swamps the ratio — but
#: still catches an order-of-magnitude warm-path collapse.
WARM_FLOOR = 1.0
WARM_FLOOR_SMOKE = 0.33

#: Spans printed per scenario under ``--profile``.
PROFILE_TOP_K = 8


@dataclass(frozen=True, slots=True)
class PerfScenario:
    """One network + charger + trip workload shape."""

    name: str
    build: Callable[[], RoadNetwork]
    charger_count: int
    trip_count: int
    segment_km: float = 3.0
    radius_km: float = 60.0
    k: int = 5


def _grid(cols: int, rows: int) -> Callable[[], RoadNetwork]:
    return lambda: build_grid_network(cols, rows, block_km=1.0, speed_kmh=50.0)


def _radial(rings: int, spokes: int) -> Callable[[], RoadNetwork]:
    return lambda: build_radial_network(
        rings=rings, spokes=spokes, ring_gap_km=1.0, speed_kmh=50.0
    )


def full_scenarios() -> list[PerfScenario]:
    """The committed-report workloads, headline first."""
    return [
        PerfScenario("grid30-sparse", _grid(30, 30), charger_count=6, trip_count=6),
        PerfScenario("grid30-dense", _grid(30, 30), charger_count=12, trip_count=4),
        PerfScenario("radial16x48", _radial(16, 48), charger_count=8, trip_count=4),
    ]


def smoke_scenarios() -> list[PerfScenario]:
    """Tiny variants for CI: exercises both backends end to end."""
    return [
        PerfScenario("grid10-smoke", _grid(10, 10), charger_count=4, trip_count=2),
    ]


def _trips(network: RoadNetwork, count: int, segment_km: float) -> list[Trip]:
    """Deterministic far-apart origin/destination pairs across the network."""
    nodes = sorted(network.node_ids())
    n = len(nodes)
    pairs = [
        (nodes[0], nodes[-1]),
        (nodes[n // 4], nodes[3 * n // 4]),
        (nodes[n // 2], nodes[-1]),
        (nodes[0], nodes[2 * n // 3]),
        (nodes[n // 3], nodes[-1]),
        (nodes[n // 5], nodes[4 * n // 5]),
    ]
    trips = []
    for i, (src, dst) in enumerate(pairs[:count]):
        trips.append(Trip.route(network, src, dst, departure_time_h=8.0 + 0.35 * i))
    return trips


def _serve(
    environment: ChargingEnvironment,
    trips: list[Trip],
    scenario: PerfScenario,
) -> int:
    """One pass of the serving workload; returns segments ranked."""
    config = EcoChargeConfig(
        k=scenario.k,
        radius_km=scenario.radius_km,
        range_km=1.0,
        segment_km=scenario.segment_km,
    )
    ranker = EcoChargeRanker(environment, config)
    segments = 0
    for trip in trips:
        run_over_trip(ranker, environment, trip, segment_km=scenario.segment_km)
        segments += len(trip.segments(scenario.segment_km))
    return segments


def _phase_stats(counters: dict[str, float]) -> dict[str, float]:
    """Derived rates for one phase's counter deltas (mirrors
    :meth:`EngineStats.as_dict`, but over a single phase)."""
    out = dict(counters)
    hits, misses = counters["cache_hits"], counters["cache_misses"]
    out["hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    pair_hits, pair_misses = counters["pair_hits"], counters["pair_misses"]
    out["pair_hit_rate"] = (
        pair_hits / (pair_hits + pair_misses) if pair_hits + pair_misses else 0.0
    )
    return out


def _measure_backend(
    scenario: PerfScenario,
    backend: str,
    repetitions: int,
    seed: int,
    hierarchy: ContractionHierarchy | None,
    clock: Clock = SYSTEM_CLOCK,
    profile: bool = False,
) -> dict:
    """Min-over-repetitions cold and warm serving times for one backend.

    Engine statistics are split per phase: the cold counters are
    snapshotted after the cold pass and the warm pass reports *deltas*,
    so each phase's hit rate reflects that phase alone.  (Reading the
    counters once after both passes — the old protocol — averaged a
    0%-hit cold pass with a ~100%-hit warm pass into a meaningless 0.5.)
    """
    network = scenario.build()
    registry = generate_catalog(
        network, CatalogSpec(charger_count=scenario.charger_count, seed=7)
    )
    trips = _trips(network, scenario.trip_count, scenario.segment_km)
    cold_s = math.inf
    warm_s = math.inf
    segments = 0
    cold_stats: dict[str, float] = {}
    warm_stats: dict[str, float] = {}
    engine = None
    environment = None
    for __ in range(max(1, repetitions)):
        engine = DistanceEngine(network, backend=backend, hierarchy=hierarchy)
        environment = ChargingEnvironment(network, registry, seed=seed, engine=engine)
        start = clock.monotonic()
        segments = _serve(environment, trips, scenario)
        cold_s = min(cold_s, clock.monotonic() - start)
        cold_counters = {
            name: getattr(engine.stats, name) for name in EngineStats.COUNTER_FIELDS
        }
        start = clock.monotonic()
        _serve(environment, trips, scenario)
        warm_s = min(warm_s, clock.monotonic() - start)
        warm_counters = {
            name: getattr(engine.stats, name) - cold_counters[name]
            for name in EngineStats.COUNTER_FIELDS
        }
        cold_stats = _phase_stats(cold_counters)
        warm_stats = _phase_stats(warm_counters)
    result = {
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "segments": segments,
        "engine_stats": {"cold": cold_stats, "warm": warm_stats},
    }
    if profile and environment is not None:
        # One extra warm pass, untimed, under a live tracer — profiling
        # overhead must not contaminate the measured numbers above.
        telemetry = Telemetry.live(max_traces=256)
        environment.set_telemetry(telemetry)
        _serve(environment, trips, scenario)
        result["hot_spans"] = telemetry.tracer.hot_spans(PROFILE_TOP_K)
        environment.set_telemetry(NOOP_TELEMETRY)
    return result


def _check_backends_agree(scenario: PerfScenario, seed: int) -> None:
    """Abort (exit 1) unless both backends produce identical intervals."""
    network = scenario.build()
    registry = generate_catalog(
        network, CatalogSpec(charger_count=scenario.charger_count, seed=7)
    )
    trip = _trips(network, 1, scenario.segment_km)[0]
    segments = trip.segments(scenario.segment_km)
    probes = [segments[0], segments[len(segments) // 2]]
    estimates = {}
    for backend in BACKENDS:
        environment = ChargingEnvironment(network, registry, seed=seed, engine=backend)
        rows = []
        for i, segment in enumerate(probes):
            costs = environment.derouting.batch_estimate(
                segment,
                registry.all(),
                time_h=trip.departure_time_h + 0.2 * (i + 1),
                now_h=trip.departure_time_h,
            )
            rows.append(
                (
                    costs.charger_ids.tolist(),
                    costs.hours.lo.tolist(),
                    costs.hours.hi.tolist(),
                    costs.normalised.lo.tolist(),
                    costs.normalised.hi.tolist(),
                )
            )
        estimates[backend] = rows
    if estimates["dijkstra"] != estimates["ch"]:
        raise SystemExit(
            f"perf: backend mismatch on scenario {scenario.name!r} — "
            "'ch' and 'dijkstra' derouting intervals differ"
        )


def run_scenario(
    scenario: PerfScenario,
    repetitions: int,
    seed: int,
    clock: Clock = SYSTEM_CLOCK,
    profile: bool = False,
) -> dict:
    """Measure one scenario under every backend and cross-check them."""
    _check_backends_agree(scenario, seed)
    network = scenario.build()
    start = clock.monotonic()
    hierarchy = ContractionHierarchy.build(network)
    preprocess_s = clock.monotonic() - start
    ch_stats = hierarchy.stats
    backends = {
        "dijkstra": _measure_backend(
            scenario, "dijkstra", repetitions, seed, None, clock=clock, profile=profile
        ),
        "ch": _measure_backend(
            scenario, "ch", repetitions, seed, hierarchy, clock=clock, profile=profile
        ),
    }
    backends["ch"]["preprocess_s"] = round(preprocess_s, 4)
    dijkstra_cold = backends["dijkstra"]["cold_s"]
    ch_cold = backends["ch"]["cold_s"]
    return {
        "name": scenario.name,
        "nodes": network.node_count,
        "edges": network.edge_count,
        "chargers": scenario.charger_count,
        "trips": scenario.trip_count,
        "ch_shortcut_arcs": ch_stats.shortcut_arcs,
        "ch_triangles": ch_stats.triangles,
        "backends": backends,
        "speedup_cold": round(dijkstra_cold / ch_cold, 3) if ch_cold > 0 else None,
        "speedup_warm": (
            round(backends["dijkstra"]["warm_s"] / backends["ch"]["warm_s"], 3)
            if backends["ch"]["warm_s"] > 0
            else None
        ),
        "backends_agree": True,
    }


def _merge_history(
    path: Path,
    headline: float | None,
    warm: float | None = None,
    clock: Clock = SYSTEM_CLOCK,
) -> list[dict]:
    """Previous runs' headline numbers, oldest dropped past the limit.

    Each entry records both headlines — ``speedup`` (cold, best
    scenario) and ``speedup_warm`` (warm, *worst* scenario) — so the
    warm trajectory is as visible across commits as the cold one.
    Entries are stamped from the injected clock — both as raw epoch
    seconds (``at``) and as an ISO-8601 UTC string (``at_iso``) so the
    committed history is human-readable and the stamping is testable
    with a :class:`~repro.observability.clock.SimulatedClock`.
    """
    history: list[dict] = []
    if path.exists():
        try:
            previous = json.loads(path.read_text())
        except (OSError, ValueError):
            previous = {}
        history = [h for h in previous.get("history", []) if isinstance(h, dict)]
    now_s = clock.now()
    history.append(
        {"at": now_s, "at_iso": iso_utc(now_s), "speedup": headline, "speedup_warm": warm}
    )
    return history[-HISTORY_LIMIT:]


def run_perf(config: HarnessConfig | None = None, clock: Clock = SYSTEM_CLOCK) -> dict:
    """Run the benchmark suite and write the persistent JSON report.

    Raises :class:`SystemExit` (non-zero) when any scenario's warm ratio
    falls below the floor — after writing the report, so the offending
    numbers are on disk for diagnosis.
    """
    config = config if config is not None else HarnessConfig()
    smoke = config.dataset_scale < 1.0
    scenarios = smoke_scenarios() if smoke else full_scenarios()
    rows = [
        run_scenario(
            scenario,
            repetitions=config.repetitions,
            seed=config.seed,
            clock=clock,
            profile=config.profile,
        )
        for scenario in scenarios
    ]
    speedups = [row["speedup_cold"] for row in rows if row["speedup_cold"]]
    headline = max(speedups) if speedups else None
    warms = [row["speedup_warm"] for row in rows if row["speedup_warm"]]
    headline_warm = min(warms) if warms else None
    floor = WARM_FLOOR_SMOKE if smoke else WARM_FLOOR
    path = Path.cwd() / (REPORT_SMOKE if smoke else REPORT_FULL)
    report = {
        "report": "perf",
        "smoke": smoke,
        "repetitions": config.repetitions,
        "speedup": headline,
        "speedup_warm": headline_warm,
        "warm_floor": floor,
        "scenarios": {row["name"]: row for row in rows},
        "history": _merge_history(path, headline, headline_warm, clock=clock),
    }
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    below = [
        (row["name"], row["speedup_warm"])
        for row in rows
        if row["speedup_warm"] is not None and row["speedup_warm"] < floor
    ]
    if below:
        detail = ", ".join(f"{name}: {ratio:.3f}x" for name, ratio in below)
        raise SystemExit(
            f"perf: warm speedup below the {floor:.2f}x floor — {detail} "
            f"(report written to {path.name})"
        )
    return report


def _format_report(report: dict) -> str:
    lines = [
        "Perf trajectory — engine backends on routing-dominated serving",
        f"  headline speedup (cold, best scenario): "
        f"{report['speedup']:.2f}x" if report["speedup"] else "  no speedup measured",
    ]
    if report.get("speedup_warm"):
        lines.append(
            f"  warm speedup (worst scenario): {report['speedup_warm']:.2f}x "
            f"(floor {report['warm_floor']:.2f}x)"
        )
    header = (
        f"  {'scenario':<16} {'nodes':>6} {'dijkstra':>10} {'ch':>10} "
        f"{'prep':>7} {'cold x':>7} {'warm x':>7}"
    )
    lines.append(header)
    for name, row in sorted(report["scenarios"].items()):
        dijkstra = row["backends"]["dijkstra"]
        ch = row["backends"]["ch"]
        lines.append(
            f"  {name:<16} {row['nodes']:>6} {dijkstra['cold_s']*1000:>8.0f}ms "
            f"{ch['cold_s']*1000:>8.0f}ms {ch['preprocess_s']*1000:>5.0f}ms "
            f"{row['speedup_cold']:>6.2f}x {row['speedup_warm']:>6.2f}x"
        )
    for name, row in sorted(report["scenarios"].items()):
        for backend in ("dijkstra", "ch"):
            spans = row["backends"][backend].get("hot_spans")
            if not spans:
                continue
            lines.append(f"  hot spans — {name} / {backend} (warm pass):")
            for span in spans:
                lines.append(
                    f"    {span['name']:<24} {span['count']:>6}x "
                    f"{span['self_time_s']*1000:>8.1f}ms self"
                )
    return "\n".join(lines)


def main(config: HarnessConfig | None = None) -> str:
    report = run_perf(config)
    text = _format_report(report)
    print(text)
    return text


if __name__ == "__main__":
    main()
