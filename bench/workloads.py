"""The four benchmark workloads, driven through public entry points only.

Every workload runs in a process of its own and follows one protocol:

1. **Inputs** are generated first and never timed.  The road network and
   charger catalog are fixed per workload; trips, departure times,
   arrival gaps, tenants, priorities and incident batches are drawn from
   ``--seed``.  Warm-up trips come from a fixed seed of their own, so
   set-up does the same work for every ``--seed``.
2. **Set-up** (``setup_s``) is the program's own: environment and engine
   construction, ``ensure_hierarchy()`` for CH, scheduler and gateway
   construction, and the warm-up trips.  It runs :data:`SETUP_REPEATS`
   times on fresh objects and the median is reported; the last copy is
   the one measured.
3. The **timed phase** runs whole units of work (a trip, an incident
   cycle, an arrival phase) until ``--seconds`` of measured time have
   passed *and* the workload's sample minimum is met, so every reported
   percentile has at least ten samples beyond it.
4. **Output checks** run afterwards, untimed.

The gated timings are stated at the reference speed of
:mod:`bench.hostspeed`: its gauge is read between stretches of measured
work (and around each set-up), and each stretch is scaled by the host
speed read on either side of it.  The wall-clock values are printed
beside them as ``wall.*``.

With ``trace`` the timed phase runs twice, untraced and then traced with
layer probes installed (:mod:`bench.trace`), for half of ``--seconds``
each; the second run gives the per-layer metrics and the pair gives the
tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import random
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Generic, Iterator, Sequence, TypeVar

import numpy as np

import repro.core.ecocharge as ecocharge
import repro.server.scheduling.scheduler as scheduler_module
from repro.chargers.plugshare import CatalogSpec, generate_catalog
from repro.chargers.registry import ChargerRegistry
from repro.core.ecocharge import EcoChargeConfig, EcoChargeRanker
from repro.core.environment import ChargingEnvironment
from repro.core.offering import OfferingTable
from repro.core.ranking import RankingRun, run_over_trip
from repro.durability.codecs import OfferingTableCodec, canonical_dumps
from repro.experiments.metrics import oracle_truths_for_tables
from repro.network.builders import NetworkSpec, build_city_network
from repro.network.distance_engine import EngineStats
from repro.network.epochs import GraphEpochManager, Incident, IncidentStream
from repro.network.graph import RoadNetwork
from repro.network.path import Trip, TripSegment
from repro.observability.clock import SYSTEM_CLOCK
from repro.observability.tracing import trip_correlation_id
from repro.resilience.environment import FaultTolerantEnvironment
from repro.server.scheduling import (
    Outcome,
    Priority,
    RankResponse,
    SchedulerConfig,
    ShardedScheduler,
)
from repro.simulation.load import LoadProfile
from repro.trajectories.brinkhoff import generate_trip
from repro.trajectories.datasets import PROFILES

from . import stats
from .hostspeed import SETUP_READINGS, ReferenceClock, SpeedGauge, speed
from .trace import Probes, Tracer, layer_metrics, unattributed_frac

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The end-to-end metrics every untraced run reports (BENCHMARK.json).
GATED = ("setup_s", "peak_rss_mb", "throughput_per_s")

#: Seed of the warm-up trips (the same for every ``--seed``).
WARMUP_SEED = 1_000_003

#: Seed of the commuter workload's population (the same for every
#: ``--seed``, which draws its incidents): with the commuters drawn per
#: seed, the median table was that of whichever commuter's segment fell
#: in the middle, and it moved by a quarter between seeds.
COMMUTER_SEED = 1_000_033

#: Warm-up trips of a closed-loop set-up: one trip builds every lazy
#: structure (spatial index, search scratch, first customisation).
WARMUP_TRIPS = 1

#: The commuter workload's incident cycle: a batch of this many
#: incidents after every ROUNDS_PER_BATCH rounds of the commuters, and
#: every NOOP_EVERY-th batch empty (a no-op epoch bump).
INCIDENTS_PER_BATCH = 3
ROUNDS_PER_BATCH = 2
NOOP_EVERY = 4

#: The serving workload's load mix: tenants drawn uniformly, and the
#: tighter goodput limit reported next to the deadline one.
TENANTS = 4
GOODPUT_LIMIT_S = 2.0

#: The nominal client's pause between an answer and its next request,
#: and its most requests per second: half the tenants' combined
#: admission rate, so a faster program never runs it into the rate
#: limiter, not even right after the overload has emptied the buckets.
THINK_S = 0.01
NOMINAL_MAX_RPS = 16.0

#: Tail percentile of the nominal phase in the report.
NOMINAL_TAIL_Q = 0.8

#: Shares of ``--seconds`` given to the serving phases; the nominal
#: share is split in two halves around the overload.  Both gated
#: serving metrics come from the nominal phase, so it gets the larger
#: share; the overload phase feeds report lines and the trace, and its
#: share still gives p90 the hundred requests it needs.
NOMINAL_SHARE = 0.65
OVERLOAD_SHARE = 0.25

#: Computed tables graded against the oracle per run.
SOUNDNESS_TABLES = 20

#: Trips re-ranked cold on the other backend per run.
AGREEMENT_TRIPS = 2

#: Served responses compared with a cold recompute (serve-gateway).
RECOMPUTE_RESPONSES = 10

#: A run whose load generator ran later than this is invalid.
MAX_LAG_S = 0.25

#: How often the load thread looks for answers.
POLL_S = 0.005

#: No timed phase may run longer than this, whatever its sample minimum.
MAX_PHASE_S = 90.0

#: Departure window of generated trips (daylight, as in GeneratorSpec).
DEPARTURE_H = (9.5, 13.5)

Program = TypeVar("Program")


@dataclass
class Result:
    """Everything one workload run measured and checked."""

    #: The result line's metrics: end-to-end, or per-layer when tracing.
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Every printed measurement: (name, value, unit, samples).
    report: list[tuple[str, Any, str, int]] = field(default_factory=list)
    #: Output checks: (name, passed, detail).
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def gated(self) -> dict[str, tuple[float, str]]:
        """The end-to-end metrics among the report lines."""
        return {name: (value, unit) for name, value, unit, _ in self.report if name in GATED}

    def note(self, name: str, value: Any, unit: str, samples: int = 1) -> None:
        self.report.append((name, value, unit, samples))

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append((name, bool(passed), detail))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def draw_trip(
    network: RoadNetwork,
    rng: np.random.Generator,
    km: tuple[float, float],
    margin_km: float = 0.0,
) -> Trip:
    """A :func:`generate_trip` trip of at least ``km[0]``, cut to its
    longest prefix within ``km[1]`` (a prefix of a shortest path is one),
    starting at least ``margin_km`` inside the network's bounding box.

    Bounding the length keeps the work per trip alike across seeds; the
    margin keeps a trip's radius-``R`` pool from being cut by the edge
    of the map.
    """
    box = network.bounds()
    while True:
        departure_h = float(rng.uniform(*DEPARTURE_H))
        trip = generate_trip(network, rng, km[0], departure_h)
        start = network.node(trip.source).point
        if (
            box.min_x + margin_km <= start.x <= box.max_x - margin_km
            and box.min_y + margin_km <= start.y <= box.max_y - margin_km
        ):
            break
    if trip.length_km <= km[1]:
        return trip
    nodes = [trip.node_ids[0]]
    length = 0.0
    for a, b in zip(trip.node_ids, trip.node_ids[1:]):
        length += network.edge(a, b).length_km
        if length > km[1]:
            break
        nodes.append(b)
    return Trip(network, tuple(nodes), departure_h)


def fresh_registry(catalog: ChargerRegistry) -> ChargerRegistry:
    """An unindexed copy of the catalog: each set-up builds its own
    spatial index, as a freshly started program would."""
    return ChargerRegistry(catalog.all(), catalog.bounds)


@dataclass
class SetUp(Generic[Program]):
    """The measured program and what building it took."""

    program: Program
    #: Wall seconds of each build.
    times: list[float]
    #: Host speed around each build (readings just before and after).
    speeds: list[float]

    @property
    def seconds(self) -> float:
        """Median build time at the reference speed."""
        return statistics.median(t * s for t, s in zip(self.times, self.speeds))


def set_up(
    build: Callable[[ChargerRegistry], Program],
    catalog: ChargerRegistry,
    repeats: int,
    gauge: SpeedGauge,
) -> SetUp[Program]:
    """Build the program ``repeats`` times on fresh objects, timing each
    build; the last copy is returned for measurement."""
    program: Program | None = None
    times: list[float] = []
    speeds: list[float] = []
    before = gauge.burst(SETUP_READINGS)
    for _ in range(repeats):
        program = None
        gc.collect()
        registry = fresh_registry(catalog)
        started = time.perf_counter()
        program = build(registry)
        times.append(time.perf_counter() - started)
        after = gauge.burst(SETUP_READINGS)
        speeds.append(speed(before + after))
        before = after
    if program is None:
        raise ValueError("set-up needs at least one repeat")
    return SetUp(program, times, speeds)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def encode_table(table: OfferingTable) -> str:
    return canonical_dumps(OfferingTableCodec.encode(table))


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedLoop:
    """One client calling ``run_over_trip`` back to back."""

    name: str
    network: NetworkSpec
    catalog: CatalogSpec
    backend: str
    radius_km: float
    segment_km: float
    trip_km: tuple[float, float]
    #: Tail percentile in the report.
    tail_q: float
    #: Leading tables hashed into ``tables_digest``.
    digest_tables: int
    #: The paper's Q: how far the vehicle may move before a cached
    #: solution must be recomputed.
    range_km: float = 5.0
    #: Commuter trips replayed round-robin (0: every trip is fresh).
    commuters: int = 0
    #: Fresh trips start at least this far inside the map.
    margin_km: float = 0.0

    def config(self, backend: str | None = None) -> EcoChargeConfig:
        return EcoChargeConfig(
            radius_km=self.radius_km,
            range_km=self.range_km,
            segment_km=self.segment_km,
            engine=backend or self.backend,
        )

    @property
    def min_tables(self) -> int:
        return max(stats.min_samples_for(self.tail_q), self.digest_tables)

    @property
    def cycle_units(self) -> int:
        """Units a run ends on a multiple of: a whole incident cycle on
        the commuter workload, so every run serves the same mix of
        recomputed and memo-served rounds."""
        return NOOP_EVERY if self.commuters else 1

    def units(self, network: RoadNetwork, seed: int) -> Iterator[list[Trip | tuple]]:
        """The timed work, in units that are always run whole.

        Fresh-trip workloads yield one new trip per unit.  The commuter
        workload yields one incident batch per unit, followed by
        :data:`ROUNDS_PER_BATCH` rounds of the commuters; every
        :data:`NOOP_EVERY`-th batch is empty.  A tuple is an incident
        batch.  The commuters are the workload's fixed population, drawn
        from :data:`COMMUTER_SEED`; ``seed`` draws the incidents.
        """
        rng = np.random.default_rng(seed)
        if not self.commuters:
            while True:
                yield [draw_trip(network, rng, self.trip_km, self.margin_km)]
        population = np.random.default_rng(COMMUTER_SEED)
        commuters = [draw_trip(network, population, self.trip_km) for _ in range(self.commuters)]
        stream = IncidentStream(network, seed=seed)
        for batch in itertools.count(1):
            noop = batch % NOOP_EVERY == 0
            unit: list[Trip | tuple] = [() if noop else stream.next_batch(INCIDENTS_PER_BATCH)]
            yield unit + commuters * ROUNDS_PER_BATCH


class TimedRanker:
    """Bench-side :class:`~repro.core.ranking.SegmentRanker` adapter.

    Times each ``rank_segment`` and forwards ``reset``,
    ``checkpoint_state`` and ``restore_state`` unchanged, so
    ``run_over_trip`` keeps its per-segment rollback.
    """

    def __init__(self, inner: EcoChargeRanker) -> None:
        self.inner = inner
        self.name = inner.name
        self.samples: list[float] = []
        #: Calls of the current measurement, for the soundness check:
        #: (segment, next_segment, eta_h, table).
        self.calls: list[tuple[TripSegment, TripSegment | None, float, OfferingTable]] = []
        self.keep_calls = 0

    def rank_segment(
        self,
        trip: Trip,
        segment: TripSegment,
        eta_h: float,
        now_h: float,
        next_segment: TripSegment | None = None,
    ) -> OfferingTable:
        started = time.perf_counter()
        table = self.inner.rank_segment(trip, segment, eta_h, now_h, next_segment)
        self.samples.append(time.perf_counter() - started)
        if len(self.calls) < self.keep_calls:
            self.calls.append((segment, next_segment, eta_h, table))
        return table

    def reset(self) -> None:
        self.inner.reset()

    def checkpoint_state(self) -> Any:
        return self.inner.checkpoint_state()

    def restore_state(self, state: Any) -> None:
        self.inner.restore_state(state)


class Client:
    """The program a closed-loop workload measures."""

    def __init__(
        self,
        spec: ClosedLoop,
        network: RoadNetwork,
        registry: ChargerRegistry,
        warmups: Sequence[Trip],
    ) -> None:
        self.spec = spec
        self.env = ChargingEnvironment(network, registry, seed=0, engine=spec.backend)
        if spec.backend == "ch":
            self.env.engine.ensure_hierarchy()
        self.manager: GraphEpochManager | None = None
        if spec.commuters:
            self.manager = GraphEpochManager(network)
            self.env.set_epochs(self.manager)
        self.ranker = TimedRanker(EcoChargeRanker(self.env, spec.config()))
        #: Incident batches applied so far, oldest first.
        self.batches: list[tuple[Incident, ...]] = []
        for trip in warmups:
            self.serve_trip(trip)

    def serve_trip(self, trip: Trip) -> RankingRun:
        return run_over_trip(self.ranker, self.env, trip, segment_km=self.spec.segment_km)

    def apply(self, batch: tuple[Incident, ...]) -> None:
        if self.manager is None:
            raise RuntimeError(f"{self.spec.name} has no live graph to apply incidents to")
        self.manager.apply(batch)
        self.batches.append(batch)

    def counters(self) -> dict[str, float]:
        engine = self.env.engine.stats
        out = {name: float(getattr(engine, name)) for name in EngineStats.COUNTER_FIELDS}
        out["weight_epochs"] = float(
            self.manager.stats.weight_epochs if self.manager is not None else 0
        )
        return out

    def probe(self, probes: Probes, pools: "PoolCounter") -> None:
        probes.wrap(self, "serve_trip", "core.trip", trace_id=trip_correlation_id)
        probe_core(probes)
        probe_environment(probes, self.env, pools)
        if self.manager is not None:
            probes.wrap(self.manager, "apply", "network.epochs.apply")


@dataclass
class Measurement:
    """One timed phase of a closed-loop workload."""

    #: The measured work, in wall seconds and at the reference speed.
    clock: ReferenceClock
    units: int = 0
    trips: int = 0
    tables: int = 0
    adapted: int = 0
    failed: int = 0
    samples: list[float] = field(default_factory=list)
    #: The first few trips and their tables (backend agreement).
    first_runs: list[RankingRun] = field(default_factory=list)
    #: (batches applied when computed, segment, next, eta, table).
    computed: list[tuple[int, TripSegment, TripSegment | None, float, OfferingTable]] = field(
        default_factory=list
    )
    digest: str = ""
    digested: int = 0

    @property
    def elapsed_s(self) -> float:
        return self.clock.wall_s

    @property
    def throughput(self) -> float:
        """Tables per second at the reference speed."""
        return self.tables / self.clock.reference_s


def measure_closed(
    client: Client, units: Iterator[list[Trip | tuple]], seconds: float, gauge: SpeedGauge
) -> Measurement:
    """Run whole units until ``seconds`` of measured time have passed and
    the workload's sample minimum is met, reading the host speed gauge
    between steps."""
    spec = client.spec
    ranker = client.ranker
    ranker.samples = []
    m = Measurement(ReferenceClock(gauge))
    digest = hashlib.blake2s()
    wall_start = time.perf_counter()
    while m.elapsed_s < seconds or m.tables < spec.min_tables or m.units % spec.cycle_units:
        if time.perf_counter() - wall_start > MAX_PHASE_S:
            break
        m.units += 1
        for step in next(units):
            if not isinstance(step, Trip):
                started = time.perf_counter()
                client.apply(step)
                m.clock.add(time.perf_counter() - started)
                continue
            ranker.calls = []
            ranker.keep_calls = SOUNDNESS_TABLES - len(m.computed)
            started = time.perf_counter()
            run = client.serve_trip(step)
            m.clock.add(time.perf_counter() - started)
            m.trips += 1
            m.tables += len(run.tables)
            m.adapted += run.adapted_count
            m.failed += len(run.failed_segments)
            if len(m.first_runs) < 2 * AGREEMENT_TRIPS:
                m.first_runs.append(run)
            for segment, next_segment, eta_h, table in ranker.calls:
                if not table.is_adapted and len(m.computed) < SOUNDNESS_TABLES:
                    m.computed.append(
                        (len(client.batches), segment, next_segment, eta_h, table)
                    )
            for table in run.tables:
                if m.digested < spec.digest_tables:
                    digest.update(encode_table(table).encode("ascii"))
                    m.digested += 1
    m.clock.settle()
    m.samples = ranker.samples
    m.digest = digest.hexdigest()
    return m


def note_gated(result: Result, setup: SetUp[Any], work: int, clock: ReferenceClock) -> None:
    """The gated metrics, timings at the reference speed, each followed
    by its wall-clock value, then the host speed that scaled them.
    ``work`` is the count of answers the measured time produced."""
    result.note("setup_s", setup.seconds, "s", len(setup.times))
    result.note("wall.setup_s", statistics.median(setup.times), "s", len(setup.times))
    result.note("peak_rss_mb", peak_rss_mb(), "MB")
    result.note("throughput_per_s", work / clock.reference_s, "1/s", work)
    result.note("wall.throughput_per_s", work / clock.wall_s, "1/s", work)
    result.note("host.speed", clock.speed, "ref", len(clock.readings))


def run_closed(
    spec: ClosedLoop, seed: int, seconds: float, trace: bool, out_dir: Path | None
) -> Result:
    network = build_city_network(spec.network)
    catalog = generate_catalog(network, spec.catalog)
    warm_rng = np.random.default_rng(WARMUP_SEED)
    warmups = [
        draw_trip(network, warm_rng, spec.trip_km, spec.margin_km) for _ in range(WARMUP_TRIPS)
    ]
    units = spec.units(network, seed)

    gauge = SpeedGauge()
    setup = set_up(
        lambda registry: Client(spec, network, registry, warmups),
        catalog,
        1 if trace else SETUP_REPEATS,
        gauge,
    )
    client = setup.program
    phase_s = seconds / 2 if trace else seconds

    result = Result()
    m = measure_closed(client, units, phase_s, gauge)
    result.attempted = m.tables + m.failed
    result.failed = m.failed
    note_gated(result, setup, m.tables, m.clock)
    for q in (0.5, spec.tail_q):
        ms = _percentile_or_none(m.samples, q)
        result.note(
            f"table_p{q * 100:g}_ms", None if ms is None else 1000.0 * ms, "ms", len(m.samples)
        )
    result.note("trips_per_s", m.trips / m.elapsed_s, "1/s", m.trips)
    result.note("adapted_frac", m.adapted / max(1, m.tables), "frac", m.tables)
    result.note("fail_frac", m.failed / max(1, result.attempted), "frac", result.attempted)
    if client.manager is not None:
        result.note("epochs_applied", len(client.batches), "count")
    result.note("tables_digest", m.digest, "blake2s", m.digested)
    if trace:
        result.metrics = trace_closed(client, units, phase_s, gauge, m, spec, out_dir, seed)
    else:
        result.metrics = result.gated()

    result.check(
        "sample-minimum",
        m.tables >= spec.min_tables,
        f"{m.tables} tables timed, {spec.min_tables} needed",
    )
    check_soundness(result, network, catalog, m.computed, client.batches)
    check_agreement(result, spec, network, catalog, client, m)
    return result


def trace_closed(
    client: Client,
    units: Iterator[list[Trip | tuple]],
    seconds: float,
    gauge: SpeedGauge,
    untraced: Measurement,
    spec: ClosedLoop,
    out_dir: Path | None,
    seed: int,
) -> dict[str, tuple[float, str]]:
    tracer = Tracer()
    probes = Probes(tracer)
    pools = PoolCounter()
    client.probe(probes, pools)
    before = client.counters()
    try:
        traced = measure_closed(client, units, seconds, gauge)
    finally:
        probes.remove()
    after = client.counters()
    ops = traced.tables + traced.failed
    counters = engine_deltas(before, after, ops)
    counters["network.epochs.weight_changes"] = after["weight_epochs"] - before["weight_epochs"]
    counters["spatial.filter.pool_mean"] = pools.mean
    counters["trace.overhead_frac"] = 1.0 - traced.throughput / untraced.throughput
    if out_dir is not None:
        tracer.write(
            out_dir / f"{spec.name}.trace.json",
            {"workload": spec.name, "seed": seed, "ops": ops, "elapsed_s": traced.elapsed_s},
        )
    return layer_metrics(tracer.totals(), ops, counters, unattributed_frac(tracer))


def check_soundness(
    result: Result,
    network: RoadNetwork,
    catalog: ChargerRegistry,
    computed: Sequence[tuple[int, TripSegment, TripSegment | None, float, OfferingTable]],
    batches: Sequence[tuple[Incident, ...]],
) -> None:
    """Every L/A/D interval of the first computed tables contains the
    oracle value, graded on the live-graph epoch each table was built on
    (the oracle replays the same incident batches up to that epoch)."""
    oracle = ChargingEnvironment(network, fresh_registry(catalog), seed=0)
    manager = GraphEpochManager(network)
    oracle.set_epochs(manager)
    replayed = 0
    intervals = 0
    unsound = 0
    for applied, segment, next_segment, eta_h, table in computed:
        while replayed < applied:
            manager.apply(batches[replayed])
            replayed += 1
        truths = oracle_truths_for_tables(oracle, segment, [table], eta_h, next_segment)
        for entry in table.entries:
            truth = truths[entry.charger_id]
            for interval, value in (
                (entry.sustainable, truth.sustainable),
                (entry.availability, truth.availability),
                (entry.derouting, truth.derouting),
            ):
                intervals += 1
                unsound += int(value not in interval)
    result.check(
        "soundness",
        unsound == 0 and len(computed) > 0,
        f"{intervals - unsound}/{intervals} intervals of {len(computed)} computed "
        "tables contain the oracle value",
    )


def check_agreement(
    result: Result,
    spec: ClosedLoop,
    network: RoadNetwork,
    catalog: ChargerRegistry,
    client: Client,
    m: Measurement,
) -> None:
    """Trips re-ranked cold on the other backend give bitwise-equal tables.

    Fresh trips compare the timed tables of the shortest of the first
    trips; the commuter workload re-ranks on its final epoch, warm on the
    measured client against cold on the other backend.
    """
    other = "dijkstra" if spec.backend == "ch" else "ch"
    cold = ChargingEnvironment(network, fresh_registry(catalog), seed=0, engine=other)
    if client.manager is not None:
        cold.set_epochs(client.manager)
    ranker = EcoChargeRanker(cold, spec.config(other))
    runs = sorted(m.first_runs, key=lambda run: len(run.tables))[:AGREEMENT_TRIPS]
    mismatches = 0
    tables = 0
    for run in runs:
        expected = client.serve_trip(run.trip).tables if client.manager else run.tables
        again = run_over_trip(ranker, cold, run.trip, segment_km=spec.segment_km).tables
        tables += len(expected)
        if [encode_table(t) for t in expected] != [encode_table(t) for t in again]:
            mismatches += 1
    result.check(
        "backend-agreement",
        mismatches == 0 and len(runs) == AGREEMENT_TRIPS,
        f"{len(runs) - mismatches}/{len(runs)} trips ({tables} tables) bitwise equal "
        f"on {spec.backend} and cold {other}",
    )


# ---------------------------------------------------------------------------
# probes shared by both loop kinds
# ---------------------------------------------------------------------------


class PoolCounter:
    """Candidate-pool sizes seen at the spatial filter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls = 0
        self.total = 0

    def __call__(self, start_s: float, pool: Sequence[Any], *args: Any, **kwargs: Any) -> None:
        with self._lock:
            self.calls += 1
            self.total += len(pool)

    @property
    def mean(self) -> float:
        return self.total / self.calls if self.calls else 0.0


def probe_core(probes: Probes) -> None:
    """Class- and module-level probes of the ranking core."""
    probes.wrap(
        EcoChargeRanker,
        "rank_segment",
        "core.segment",
        rename=lambda table: "core.adapt" if table.is_adapted else "core.compute",
    )
    probes.wrap(ecocharge.ComponentArrays, "from_scores", "core.scoring")
    probes.wrap(ecocharge, "sc_score_batch", "core.scoring")
    probes.wrap(ecocharge, "intersect_top_k_batch", "core.scoring")
    probes.wrap(ecocharge, "build_table_from_arrays", "core.table")


def probe_environment(probes: Probes, env: ChargingEnvironment, pools: PoolCounter) -> None:
    """Instance probes of one environment and the layers it owns."""
    probes.wrap(env, "score_pool", "core.pool")
    probes.wrap(env.registry, "within_radius", "spatial.filter", observe=pools)
    probes.wrap(env.sustainable, "estimate", "estimation.sustainable", aggregate=True)
    probes.wrap(env.availability, "estimate", "estimation.availability", aggregate=True)
    probes.wrap(env.derouting, "batch_estimate", "estimation.derouting")
    probes.wrap(env.eta, "segment_etas", "estimation.eta")
    for attr in ("one_to_many", "many_to_one", "many_to_many"):
        probes.wrap(env.engine, attr, "network.engine")
    probes.wrap(env.engine, "prepare", "network.prepare")


def engine_deltas(
    before: dict[str, float], after: dict[str, float], ops: int
) -> dict[str, float]:
    """Engine counter deltas over a traced phase, as per-op counts and
    hit rates."""
    d = {name: after[name] - before[name] for name in EngineStats.COUNTER_FIELDS}

    def rate(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    per_op = max(1, ops)
    return {
        "network.searches": d["searches"] / per_op,
        "network.hit_rate": rate(d["cache_hits"], d["cache_misses"]),
        "network.pair_hit_rate": rate(d["pair_hits"], d["pair_misses"]),
        "network.customisations": d["customisations"] / per_op,
        "network.customisation_hit_rate": rate(d["customisation_hits"], d["customisations"]),
        "network.evictions": d["evictions"] / per_op,
        "network.epoch_invalidations": d["epoch_invalidations"] / per_op,
    }


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Serving:
    """The threaded ``ShardedScheduler``, each shard on the Mode-2 gateway
    path, driven from one load thread in two phases.

    ``nominal``: one client sends each request a think time after the
    previous answer arrived, and the scheduler runs it on the client's
    thread (its deterministic mode), so no request waits behind another
    or for the interpreter lock -- the serving stack's own latency, which
    on a shared two-core host the threaded handoff makes too noisy to
    gate.  ``overload``: Poisson arrivals well above capacity against the
    threaded shard workers, so admission, the bounded queues and brownout
    decide what is served.
    """

    name: str
    network: NetworkSpec
    catalog: CatalogSpec
    radius_km: float
    segment_km: float
    trip_km: tuple[float, float]
    scheduler: SchedulerConfig
    overload_rate: float
    #: Most warm-up requests; warm-up stops once the caches are full.
    warmup_trips: int = 300
    #: Requests start at least this far inside the map.
    margin_km: float = 0.0

    def config(self) -> EcoChargeConfig:
        return EcoChargeConfig(radius_km=self.radius_km, segment_km=self.segment_km)


class Server:
    """The program the serving workload measures."""

    def __init__(
        self,
        spec: Serving,
        network: RoadNetwork,
        registry: ChargerRegistry,
        warmups: Sequence[Trip],
        require_full: bool,
    ) -> None:
        self.spec = spec
        self.scheduler = ShardedScheduler(
            lambda: FaultTolerantEnvironment.build(
                ChargingEnvironment(network, registry, seed=0)
            ),
            spec.scheduler,
            spec.config(),
            clock=SYSTEM_CLOCK,
        )
        # Warm-up runs on this thread (deterministic mode) until every
        # shard's gateway cache is at capacity.
        self.warmed = 0
        for i, trip in enumerate(warmups):
            if self.caches_full():
                break
            self.scheduler.submit(f"warmup-{i}", trip)
            self.scheduler.drain()
            self.warmed += 1
        self.scheduler.drain_responses()
        self.filled = self.caches_full() or not require_full

    def caches_full(self) -> bool:
        return all(
            len(shard.environment.gateway.cache) >= shard.environment.gateway.cache.max_entries
            for shard in self.scheduler.shards
        )

    def counters(self) -> dict[str, float]:
        out: dict[str, float] = {name: 0.0 for name in EngineStats.COUNTER_FIELDS}
        ladder = {"cache_hits": 0, "live": 0, "retried": 0, "stale_served": 0, "fallbacks": 0}
        evictions = 0
        for shard in self.scheduler.shards:
            env = shard.environment
            for name in EngineStats.COUNTER_FIELDS:
                out[name] += getattr(env.engine.stats, name)
            for health in env.gateway.health.endpoints.values():
                for name in ladder:
                    ladder[name] += getattr(health, name)
            evictions += env.gateway.cache.stats.evictions + shard.responses.stats.evictions
        out.update({f"ladder.{name}": float(v) for name, v in ladder.items()})
        out["cache_evictions"] = float(evictions)
        out.update({f"sched.{k}": float(v) for k, v in self.scheduler.stats.as_dict().items()})
        return out

    def probe(self, probes: Probes, pools: PoolCounter, waits: list[float]) -> None:
        scheduler = self.scheduler

        def record_wait(start_s: float, result: Any, shard: Any, request: Any) -> None:
            waits.append(start_s - request.submitted_s)

        # The scheduler has no public per-request hook: its request loop
        # body is the one private name wrapped, as the request root.
        probes.wrap(
            scheduler,
            "_run_request",
            "server.request",
            trace_id=lambda shard, request: trip_correlation_id(request.trip),
            observe=record_wait,
        )
        probes.wrap(scheduler_module, "run_over_trip", "core.trip")
        probes.wrap(scheduler.admission, "try_admit", "server.admission", aggregate=True)
        probe_core(probes)
        for shard in scheduler.shards:
            env = shard.environment
            probe_environment(probes, env, pools)
            gateway = env.gateway
            for attr in ("window_attenuation", "availability", "traffic_snapshot"):
                probes.wrap(gateway, attr, "resilience.gateway", aggregate=True)
            for cache in (gateway.cache, shard.responses):
                probes.wrap(cache, "lookup", "server.cache.lookup", aggregate=True)
                probes.wrap(cache, "lookup_stale", "server.cache.lookup", aggregate=True)
                probes.wrap(cache, "put", "server.cache.put", aggregate=True)


@dataclass
class Phase:
    """One load phase: every request and how it ended."""

    name: str
    #: First due time; from it until the last answer is the phase span.
    start_s: float = 0.0
    span_s: float = 0.0
    #: When each answer arrived, in request order.
    finished: list[float] = field(default_factory=list)
    #: Latency from due time per request, in request order (inf when
    #: not served).
    latencies: list[float] = field(default_factory=list)
    #: How late the load thread submitted each request.
    lags: list[float] = field(default_factory=list)
    responses: list[RankResponse] = field(default_factory=list)

    @property
    def requests(self) -> int:
        return len(self.latencies)

    @property
    def unserved(self) -> int:
        return sum(1 for latency in self.latencies if math.isinf(latency))

    def goodput(self, limit_s: float) -> float:
        """Requests served within ``limit_s`` of their due time, per
        second of the phase (first due time to last answer)."""
        return sum(1 for latency in self.latencies if latency <= limit_s) / self.span_s

    def settle(self, due_by_id: dict[int, float]) -> None:
        """Time every collected response from its request's due time."""
        self.responses.sort(key=lambda response: response.request.request_id)
        self.finished = [r.request.submitted_s + r.latency_s for r in self.responses]
        self.start_s = min(due_by_id.values())
        self.span_s = max(self.finished) - self.start_s
        for response in self.responses:
            request = response.request
            self.lags.append(request.submitted_s - due_by_id[request.request_id])
            self.latencies.append(
                stats.latency_from_due(
                    due_by_id[request.request_id],
                    request.submitted_s,
                    response.latency_s,
                    response.outcome.is_served,
                )
            )


def _request_mix(rng: random.Random) -> tuple[str, Priority]:
    """Tenant and priority of one request (the LoadProfile default mix)."""
    profile = LoadProfile()
    draw = rng.random()
    if draw < profile.background_fraction:
        priority = Priority.BACKGROUND
    elif draw < profile.background_fraction + profile.refresh_fraction:
        priority = Priority.REFRESH
    else:
        priority = Priority.INTERACTIVE
    return f"tenant-{rng.randrange(TENANTS)}", priority


def _collect(scheduler: ShardedScheduler, phase: Phase, count: int) -> None:
    """Wait until ``count`` answers have arrived (bounded).

    Polls every :data:`POLL_S`: each wake-up takes the interpreter lock
    from a busy shard worker, so a finer poll would slow the workers it
    is waiting for.  Latency is the scheduler's own submit-to-answer
    time, so the poll interval never adds to it.
    """
    give_up = time.perf_counter() + MAX_PHASE_S
    while len(phase.responses) < count and time.perf_counter() < give_up:
        phase.responses.extend(scheduler.drain_responses())
        if len(phase.responses) < count:
            time.sleep(POLL_S)


def run_one_client(
    scheduler: ShardedScheduler,
    phase: Phase,
    due_by_id: dict[int, float],
    trips: Iterator[Trip],
    seconds: float,
    min_requests: int,
    rng: random.Random,
    clock: ReferenceClock,
) -> None:
    """One client on the scheduler's deterministic mode: each request is
    due :data:`THINK_S` after the previous answer (and at most
    :data:`NOMINAL_MAX_RPS` per second) and runs on this thread.
    Adds to ``phase`` for ``seconds`` and until ``due_by_id`` holds at
    least ``min_requests``.  Each request's time goes to ``clock``, whose
    gauge is read in the think time."""
    started = time.perf_counter()
    due = -math.inf
    while time.perf_counter() - started < seconds or len(due_by_id) < min_requests:
        if time.perf_counter() - started > MAX_PHASE_S:
            break
        tenant, priority = _request_mix(rng)
        trip = next(trips)
        due = max(time.perf_counter() + THINK_S, due + 1.0 / NOMINAL_MAX_RPS)
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        due = time.perf_counter()
        request = scheduler.submit(tenant, trip, priority)
        due_by_id[request.request_id] = due
        scheduler.drain()
        phase.responses.extend(scheduler.drain_responses())
        clock.add(time.perf_counter() - due)


def run_poisson(
    scheduler: ShardedScheduler,
    trips: Iterator[Trip],
    seconds: float,
    rate: float,
    rng: random.Random,
) -> Phase:
    """Poisson arrivals of ``rate`` for ``seconds``, each request timed
    from its due time; then wait until every one has been answered."""
    arrivals = []
    offset = rng.expovariate(rate)
    while offset < seconds:
        arrivals.append((offset, next(trips), *_request_mix(rng)))
        offset += rng.expovariate(rate)
    phase = Phase("overload")
    due_by_id: dict[int, float] = {}
    start = time.perf_counter()
    for offset, trip, tenant, priority in arrivals:
        due = start + offset
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        request = scheduler.submit(tenant, trip, priority)
        due_by_id[request.request_id] = due
    _collect(scheduler, phase, len(due_by_id))
    phase.settle(due_by_id)
    return phase


@dataclass
class LoadRun:
    nominal: Phase
    overload: Phase
    #: The nominal client's time in requests.
    clock: ReferenceClock

    @property
    def phases(self) -> tuple[Phase, Phase]:
        return (self.nominal, self.overload)

    @property
    def throughput(self) -> float:
        """Nominal requests per second at the reference speed."""
        return self.nominal.requests / self.clock.reference_s


def measure_serving(
    server: Server,
    trips: Iterator[Trip],
    seconds: float,
    rng: random.Random,
    gauge: SpeedGauge,
) -> LoadRun:
    """The nominal client runs in two halves, before and after the
    overload, so its samples span the whole run rather than one stretch
    of host contention.  The gauge is read only by the nominal client:
    under overload it would take the interpreter from the shard workers."""
    spec = server.spec
    scheduler = server.scheduler
    nominal = Phase("nominal")
    due_by_id: dict[int, float] = {}
    clock = ReferenceClock(gauge)
    minimum = stats.min_samples_for(NOMINAL_TAIL_Q)

    def one_client(min_requests: int) -> None:
        run_one_client(
            scheduler,
            nominal,
            due_by_id,
            trips,
            NOMINAL_SHARE * seconds / 2,
            min_requests,
            rng,
            clock,
        )
        clock.settle()

    one_client(minimum // 2)
    scheduler.start()
    try:
        overload = run_poisson(
            scheduler, trips, OVERLOAD_SHARE * seconds, spec.overload_rate, rng
        )
    finally:
        scheduler.stop(drain=True)
    one_client(minimum)
    nominal.settle(due_by_id)
    return LoadRun(nominal, overload, clock)


def run_serving(
    spec: Serving,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path | None,
    require_full: bool = True,
) -> Result:
    network = build_city_network(spec.network)
    catalog = generate_catalog(network, spec.catalog)
    warm_rng = np.random.default_rng(WARMUP_SEED)
    warmups = [
        draw_trip(network, warm_rng, spec.trip_km, spec.margin_km)
        for _ in range(spec.warmup_trips)
    ]
    trip_rng = np.random.default_rng(seed)

    def fresh_trips() -> Iterator[Trip]:
        while True:
            yield draw_trip(network, trip_rng, spec.trip_km, spec.margin_km)

    trips = fresh_trips()
    load_rng = random.Random(seed)

    gauge = SpeedGauge()
    setup = set_up(
        lambda registry: Server(spec, network, registry, warmups, require_full),
        catalog,
        1 if trace else SETUP_REPEATS,
        gauge,
    )
    server = setup.program
    phase_s = seconds / 2 if trace else seconds

    result = Result()
    load = measure_serving(server, trips, phase_s, load_rng, gauge)
    nominal, overload = load.nominal, load.overload
    deadline_s = spec.scheduler.deadline_budget_s
    lag_max = max(overload.lags)
    result.attempted = nominal.requests + overload.requests
    result.failed = sum(
        1
        for phase in load.phases
        for response in phase.responses
        if response.outcome is Outcome.FAILED
    )
    note_gated(result, setup, nominal.requests, load.clock)
    result.note("setup.warmup_requests", server.warmed, "count")
    result.note("overload.answered_rps", overload.goodput(deadline_s), "1/s", overload.requests)
    for q in (0.5, NOMINAL_TAIL_Q):
        result.note(
            f"nominal.p{q * 100:g}_s",
            _percentile_or_none(nominal.latencies, q),
            "s",
            nominal.requests,
        )
    result.note("nominal.fail_frac", nominal.unserved / nominal.requests, "frac", nominal.requests)
    result.note("overload.fail_frac", overload.unserved / overload.requests, "frac", overload.requests)
    result.note("overload.p50_s", _percentile_or_none(overload.latencies, 0.5), "s", overload.requests)
    result.note("overload.p90_s", _percentile_or_none(overload.latencies, 0.9), "s", overload.requests)
    result.note(
        f"overload.goodput_{GOODPUT_LIMIT_S:g}s_rps",
        overload.goodput(GOODPUT_LIMIT_S),
        "1/s",
        overload.requests,
    )
    result.note("loadgen.lag_max_s", lag_max, "s", overload.requests)
    if trace:
        result.metrics = trace_serving(
            server, trips, phase_s, load_rng, gauge, load, out_dir, seed
        )
    else:
        result.metrics = result.gated()

    result.check(
        "warm-caches",
        server.filled,
        f"gateway caches at capacity after {server.warmed} warm-up requests",
    )
    result.check(
        "loadgen-lag",
        lag_max <= MAX_LAG_S,
        f"load generator at most {lag_max * 1000:.1f} ms late ({MAX_LAG_S * 1000:.0f} ms allowed)",
    )
    result.check(
        "nominal-served",
        nominal.unserved == 0,
        f"{nominal.requests - nominal.unserved}/{nominal.requests} nominal requests served",
    )
    result.check(
        "accounting",
        server.scheduler.accounting_ok(),
        "scheduler accounting: submitted == resolved + pending, one answer per request",
    )
    check_recompute(result, spec, network, catalog, load)
    return result


def _percentile_or_none(values: Sequence[float], q: float) -> float | None:
    """Percentile ``q``, or None where the sample cannot support it."""
    if len(values) < stats.min_samples_for(q):
        return None
    return stats.percentile(values, q)


def _tail_or_max(values: Sequence[float], q: float) -> float:
    """Percentile ``q``, or the largest value where the sample is too
    small to support it (smoke sizes)."""
    tail = _percentile_or_none(values, q)
    return max(values, default=0.0) if tail is None else tail


def trace_serving(
    server: Server,
    trips: Iterator[Trip],
    seconds: float,
    rng: random.Random,
    gauge: SpeedGauge,
    untraced: LoadRun,
    out_dir: Path | None,
    seed: int,
) -> dict[str, tuple[float, str]]:
    tracer = Tracer()
    probes = Probes(tracer)
    pools = PoolCounter()
    waits: list[float] = []
    server.probe(probes, pools, waits)
    before = server.counters()
    try:
        traced = measure_serving(server, trips, seconds, rng, gauge)
    finally:
        probes.remove()
    after = server.counters()
    ops = traced.nominal.requests + traced.overload.requests
    counters = engine_deltas(before, after, ops)
    delta = {name: after[name] - before[name] for name in after}
    ladder = {
        "live": delta["ladder.live"] + delta["ladder.retried"],
        "cached": delta["ladder.cache_hits"],
        "stale": delta["ladder.stale_served"],
        "fallback": delta["ladder.fallbacks"],
    }
    fetches = sum(ladder.values())
    for name, count in ladder.items():
        counters[f"resilience.ladder.{name}"] = count / ops
    counters["resilience.cache_hit_ratio"] = ladder["cached"] / fetches if fetches else 0.0
    counters["server.cache.evictions"] = delta["cache_evictions"] / ops
    submitted = max(1.0, delta["sched.submitted"])
    for name in (
        "completed",
        "served_stale",
        "sheds_deadline",
        "sheds_queue",
        "sheds_brownout",
        "rejected_rate",
        "rejected_capacity",
        "failed",
        "widened",
    ):
        counters[f"server.outcome.{name}"] = delta[f"sched.{name}"] / submitted
    counters["server.queue.wait_p50_ms"] = 1000.0 * _tail_or_max(waits, 0.5)
    counters["server.queue.wait_p90_ms"] = 1000.0 * _tail_or_max(waits, 0.9)
    counters["server.queue.peak_depth"] = float(max(server.scheduler.peak_depths()))
    counters["spatial.filter.pool_mean"] = pools.mean
    counters["trace.overhead_frac"] = 1.0 - traced.throughput / untraced.throughput
    if out_dir is not None:
        tracer.write(
            out_dir / f"{server.spec.name}.trace.json",
            {"workload": server.spec.name, "seed": seed, "ops": ops},
        )
    return layer_metrics(tracer.totals(), ops, counters, unattributed_frac(tracer))


def check_recompute(
    result: Result,
    spec: Serving,
    network: RoadNetwork,
    catalog: ChargerRegistry,
    load: LoadRun,
) -> None:
    """Served answers against a cold recompute on a plain environment:
    unwidened tables bitwise equal, widened tables containing it."""
    plain = ChargingEnvironment(network, fresh_registry(catalog), seed=0)
    ranker = EcoChargeRanker(plain, spec.config())
    completed = [
        response
        for phase in load.phases
        for response in phase.responses
        if response.outcome is Outcome.COMPLETED
    ][:RECOMPUTE_RESPONSES]
    bad = 0
    widened = 0
    for response in completed:
        fresh = run_over_trip(
            ranker, plain, response.request.trip, segment_km=spec.segment_km
        ).tables
        if response.widened:
            widened += 1
            bad += int(not _contains(response.tables, fresh))
        else:
            bad += int([encode_table(t) for t in response.tables] != [encode_table(t) for t in fresh])
    result.check(
        "recompute",
        bad == 0 and len(completed) > 0,
        f"{len(completed) - bad}/{len(completed)} served answers match a cold recompute "
        f"({widened} widened, checked for containment)",
    )


def _contains(widened: Sequence[OfferingTable], fresh: Sequence[OfferingTable]) -> bool:
    if len(widened) != len(fresh):
        return False
    for wide_table, fresh_table in zip(widened, fresh):
        if wide_table.charger_ids() != fresh_table.charger_ids():
            return False
        for wide, exact in zip(wide_table.entries, fresh_table.entries):
            for a, b in (
                (wide.sustainable, exact.sustainable),
                (wide.availability, exact.availability),
                (wide.derouting, exact.derouting),
            ):
                if a.hull(b) != a:
                    return False
    return True


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

_TDRIVE = PROFILES["tdrive"]
_CALIFORNIA = PROFILES["california"]
_OLDENBURG = PROFILES["oldenburg"]

WORKLOADS: dict[str, ClosedLoop | Serving] = {
    # Cold Algorithm 1 over pools of about the whole 800-charger catalog:
    # the L/A estimators, the pool loop, scoring and full truncated
    # Dijkstra searches on the critical path, with no reuse.  Q = 1 km
    # keeps every table computed (no segment is within Q of the last).
    "dense-pool": ClosedLoop(
        name="dense-pool",
        network=_TDRIVE.network,
        catalog=_TDRIVE.catalog,
        backend="dijkstra",
        radius_km=50.0,
        segment_km=6.0,
        trip_km=(12.0, 18.0),
        tail_q=0.8,
        digest_tables=40,
        range_km=1.0,
    ),
    # A 5,000-node city with small pools, 2 km segments and Q = 5 km:
    # where CH and the paper's dynamic cache (about 9 in 10 tables
    # adapted) should pay, and estimation and scoring should not move
    # it.  Trips stay under an hour, so each computes exactly one table
    # before its cache entry expires; the catalog has no hotspots and
    # trips start at least R inside the map, so pools are alike wherever
    # a trip goes (a start near the edge cut its pool and its cost by a
    # fifth, and the share of such starts moved the rate between seeds).
    "big-net-adapt": ClosedLoop(
        name="big-net-adapt",
        network=NetworkSpec(width_km=70.0, height_km=70.0, block_km=1.0),
        catalog=CatalogSpec(charger_count=1000, hotspots=0, seed=205),
        backend="ch",
        radius_km=10.0,
        segment_km=2.0,
        trip_km=(20.0, 26.0),
        tail_q=0.95,
        digest_tables=100,
        margin_km=10.0,
    ),
    # Commuters replayed while incident batches land: engine memos
    # serve repeats and are fenced after each weight change, the only
    # workload with the memo stack, epoch fencing and recustomisation on
    # the critical path.
    "commute-incidents": ClosedLoop(
        name="commute-incidents",
        network=_CALIFORNIA.network,
        catalog=replace(_CALIFORNIA.catalog, hotspot_share=0.0),
        backend="ch",
        radius_km=20.0,
        segment_km=6.0,
        trip_km=(25.0, 28.0),
        tail_q=0.95,
        digest_tables=100,
        range_km=1.0,
        commuters=12,
    ),
    # The serving tier: admission, bounded queues, brownout and the
    # Mode-2 resilience gateway of every shard, its caches at capacity.
    "serve-gateway": Serving(
        name="serve-gateway",
        network=_OLDENBURG.network,
        catalog=replace(_OLDENBURG.catalog, hotspot_share=0.0),
        radius_km=10.0,
        segment_km=6.0,
        trip_km=(4.0, 6.0),
        scheduler=SchedulerConfig(
            shards=2,
            queue_capacity=16,
            max_inflight=64,
            tenant_rate_per_s=8.0,
            tenant_burst=16.0,
            deadline_budget_s=5.0,
        ),
        overload_rate=32.0,
        margin_km=10.0,
    ),
}


def smoke(spec: ClosedLoop | Serving) -> ClosedLoop | Serving:
    """The same workload at tiny sizes (every check still on)."""
    small = NetworkSpec(width_km=12.0, height_km=12.0, block_km=1.5, seed=spec.network.seed)
    catalog = replace(spec.catalog, charger_count=40, hotspots=2)
    if isinstance(spec, Serving):
        return replace(
            spec,
            network=small,
            catalog=catalog,
            trip_km=(3.0, 5.0),
            overload_rate=80.0,
            warmup_trips=4,
            margin_km=0.0,
        )
    return replace(
        spec,
        network=small,
        catalog=catalog,
        trip_km=(6.0, 10.0),
        digest_tables=10,
        commuters=min(spec.commuters, 3),
        margin_km=0.0,
    )


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke_sizes: bool,
    out_dir: Path | None,
) -> Result:
    """Run one workload in this process."""
    spec = WORKLOADS[name]
    if smoke_sizes:
        spec = smoke(spec)
    if isinstance(spec, Serving):
        return run_serving(spec, seed, seconds, trace, out_dir, require_full=not smoke_sizes)
    return run_closed(spec, seed, seconds, trace, out_dir)
