"""One chaos runner and one checker for every fault axis.

A :class:`ChaosPlan` is a seeded combination of four fault axes:
upstream provider faults (:class:`~repro.resilience.FaultProfile`),
process crash points (:class:`~repro.resilience.CrashPoint`), a
live-graph incident storm (:class:`~repro.resilience.IncidentChaos`)
and overload (a load of arrival phases, its
:class:`~repro.resilience.OverloadChaos` events and scheduler config).
:func:`run_chaos` plays it against the serving stack and returns the
evidence; :func:`check` grades it and returns one violation string per
failure, each prefixed with its rule, so ``check(...) == []`` is the
whole correctness claim.

The run has two legs:

* **serving** — every trip goes through the
  :class:`~repro.server.scheduling.ShardedScheduler` in deterministic
  mode, each shard a :class:`~repro.resilience.FaultTolerantEnvironment`
  (the Mode-2 gateway stack).  Without a load, a wave submits every
  trip :data:`DUPLICATES` times after one incident batch lands.  With
  one, :func:`~repro.simulation.load.run_load` plays each phase as a
  wave, with one batch at each boundary between phases.
* **crash** — with crash points, every trip runs as a durable session
  that dies at each point and is resumed by a fresh server from its
  snapshot and journal tail.

The rules, and when they apply:

* ``oracle`` — every non-adapted served table contains the oracle
  component values at the epoch it was served under (always);
* ``epoch`` — an epoch-degraded table's derouting interval contains the
  fresh-epoch recompute's (incidents);
* ``fresh`` — a trip's first unwidened completed serve after a
  weight-changing bump is bitwise a cold recompute (incidents, no
  upstream faults);
* ``noop`` — a no-op bump leaves cold recomputes bitwise unchanged and
  invalidates no cache entry (incidents);
* ``served`` — every request is served (no load);
* ``books`` — the registry's outcome counts match the responses, and
  the scheduler's, every gateway's and every recovery's books reconcile
  exactly (always; under a load it grades shed and rejected requests);
* ``replay`` — resumed tables are bitwise the uninterrupted run's (crash,
  no upstream faults);
* ``backends`` — the final-epoch cold recompute equals the reference
  Dijkstra backend's bitwise (incidents, other backends).
"""

from __future__ import annotations

import tempfile
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..core.ecocharge import EcoChargeConfig
from ..core.environment import ChargingEnvironment
from ..core.offering import OfferingTable
from ..core.scoring import sc_exact
from ..durability import (
    CRASH_MID_APPEND,
    CRASH_MID_SEGMENT,
    CRASH_POST_SNAPSHOT,
    CRASH_SEGMENT_START,
    DurabilityConfig,
    OfferingTableCodec,
    RecoveryInfo,
    canonical_dumps,
)
from ..experiments.metrics import oracle_truths_for_tables
from ..intervals import Interval
from ..network.distance_engine import BACKENDS, DISTANCE_QUANTUM
from ..network.epochs import GraphEpochManager, Incident
from ..network.graph import RoadNetwork
from ..network.path import Trip
from ..observability.recorder import Telemetry
from ..resilience import (
    NO_FAULTS,
    CrashPoint,
    FaultInjector,
    FaultProfile,
    FaultTolerantEnvironment,
    IncidentChaos,
    OverloadChaos,
    SessionCrash,
)
from ..server.eis import EcoChargeInformationServer
from ..server.scheduling import Outcome, RankResponse, SchedulerConfig, ShardedScheduler
from ..server.sessions import DurableSessionService
from ..trajectories.datasets import Workload
from ..validation import require_finite
from .load import LoadProfile, run_load

#: Same-trip copies per wave: with a queue of 8 and serve-stale at half
#: full, the later copies are answered from the shard's response cache.
DUPLICATES = 6

#: Durable sessions snapshot every second segment, so crash points land
#: both before and after a snapshot.
SNAPSHOT_EVERY = 2

#: Containment tolerance: ten quanta of the engine's distance rounding.
CONTAINMENT_SLACK = 10 * DISTANCE_QUANTUM

#: The backend every other one must agree with bitwise.
REFERENCE_BACKEND = "dijkstra"

#: The durability tier's four named crash points.
CRASH_POINTS = (CRASH_SEGMENT_START, CRASH_MID_SEGMENT, CRASH_MID_APPEND, CRASH_POST_SNAPSHOT)

#: Wide enough that nothing is shed or rejected (the ``served`` rule).
SCHEDULER = SchedulerConfig(
    shards=2, queue_capacity=8, max_inflight=256, tenant_rate_per_s=1e6, tenant_burst=1e6,
    deadline_budget_s=3600.0, response_ttl_h=24.0, max_stale_h=24.0,
    serve_stale_at=0.5, widen_at=0.95, shed_refresh_at=0.99,
)


@dataclass(frozen=True, slots=True)
class ChaosPlan:
    """A seeded combination of fault axes over the first ``trips`` trips."""

    seed: int = 0
    trips: int = 2
    k: int = 3
    radius_km: float = 15.0
    backend: str = "dijkstra"
    faults: FaultProfile = NO_FAULTS
    crash_points: tuple[CrashPoint, ...] = ()
    incidents: IncidentChaos | None = None
    load: LoadProfile | None = None
    overload: OverloadChaos | None = None
    scheduler: SchedulerConfig = SCHEDULER

    def __post_init__(self) -> None:
        if self.trips < 1:
            raise ValueError("a chaos plan needs at least one trip")
        require_finite("radius_km", self.radius_km, above=0.0)
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if self.overload is not None and self.load is None:
            raise ValueError("overload chaos needs a load to act on")
        for phase in self.load.phases if self.load is not None else ():
            if phase.trips is not None and not set(phase.trips) <= set(range(self.trips)):
                raise ValueError("a phase may only draw from the plan's trips")

    def config(self) -> EcoChargeConfig:
        """The ranker configuration every leg serves with."""
        return EcoChargeConfig(k=self.k, radius_km=self.radius_km)

    def injector(self, *crash_plan: CrashPoint) -> FaultInjector:
        """A fresh injector of the plan's faults, storm and ``crash_plan``."""
        return FaultInjector(
            seed=self.seed, default=self.faults, crash_plan=crash_plan,
            overload=self.overload, incidents=self.incidents,
        )


@dataclass(frozen=True, slots=True)
class Wave:
    """The responses resolved after the incident ``batch`` landed
    (``()`` is a no-op bump, ``None`` no bump): every trip's copies, or
    one phase of a load.  ``invalidations`` counts the epoch-cache
    entries the shards dropped from the bump on."""

    batch: tuple[Incident, ...] | None
    responses: tuple[RankResponse, ...]
    invalidations: int


@dataclass(frozen=True, slots=True)
class Recovery:
    """One durable session planned to die at ``point``: ``info`` is its
    resume (None when the trip ended first) and ``tables`` what the
    session finally served."""

    trip: int
    point: CrashPoint
    info: RecoveryInfo | None
    accounting_ok: bool
    tables: tuple[OfferingTable, ...]


@dataclass(frozen=True, slots=True)
class ChaosRun:
    """The evidence :func:`check` grades."""

    plan: ChaosPlan
    trips: tuple[Trip, ...]
    #: The serving leg's scheduler, with its injector, epoch manager and
    #: telemetry.
    scheduler: ShardedScheduler
    waves: tuple[Wave, ...]
    recoveries: tuple[Recovery, ...] = ()

    @property
    def responses(self) -> list[RankResponse]:
        return [response for wave in self.waves for response in wave.responses]

    @property
    def gateways(self) -> list:
        return [shard.environment.gateway for shard in self.scheduler.shards]


def _environment(workload: Workload, backend: str = REFERENCE_BACKEND) -> ChargingEnvironment:
    """A cold environment over the workload's network, catalog and seed."""
    base = workload.environment
    return ChargingEnvironment(base.network, base.registry, seed=base.seed, engine=backend)


def run_chaos(
    workload: Workload,
    plan: ChaosPlan,
    telemetry: Telemetry | None = None,
    on_tick: Callable[[ShardedScheduler], bool] | None = None,
) -> ChaosRun:
    """Play ``plan`` on the serving leg and, with crash points, the crash
    leg (see the module docstring).  ``telemetry`` must run on a
    simulated clock; ``on_tick`` goes to :func:`run_load`."""
    if on_tick is not None and plan.load is None:
        raise ValueError("on_tick needs a plan with a load")
    network = workload.environment.network
    injector = plan.injector()
    telemetry = telemetry if telemetry is not None else Telemetry.simulated(tick_s=0.0)
    epochs = GraphEpochManager(network)

    def shard() -> FaultTolerantEnvironment:
        environment = FaultTolerantEnvironment.build(
            _environment(workload, plan.backend), injector=injector
        )
        # Deterministic mode is single-threaded, so the shared registry
        # stays single-writer.
        environment.set_telemetry(telemetry)
        return environment

    scheduler = ShardedScheduler(
        shard, plan.scheduler, plan.config(), clock=telemetry.clock,
        telemetry=telemetry, injector=injector, epochs=epochs,
    )
    trips = tuple(workload.trips[: plan.trips])
    if plan.load is not None:
        waves = _phase_waves(scheduler, trips, plan, network, on_tick)
    else:
        waves = _trip_waves(scheduler, trips, plan, network)
    recoveries = _crash_leg(workload, plan, trips) if plan.crash_points else ()
    return ChaosRun(plan, trips, scheduler, tuple(waves), recoveries)


def _trip_waves(
    scheduler: ShardedScheduler,
    trips: Sequence[Trip],
    plan: ChaosPlan,
    network: RoadNetwork,
) -> list[Wave]:
    """Every trip's copies per wave: one wave, or one per incident batch."""
    waves: list[Wave] = []
    while True:
        before = scheduler.epoch_cache_invalidations()
        batch = _land(scheduler, plan, network)
        if plan.incidents is not None and batch is None:
            break
        for i, trip in enumerate(trips):
            for _ in range(DUPLICATES):
                scheduler.submit(tenant=f"tenant-{i}", trip=trip)
            scheduler.drain()
        responses = tuple(scheduler.drain_responses())
        waves.append(Wave(batch, responses, scheduler.epoch_cache_invalidations() - before))
        if plan.incidents is None:
            break
    return waves


def _phase_waves(
    scheduler: ShardedScheduler,
    trips: Sequence[Trip],
    plan: ChaosPlan,
    network: RoadNetwork,
    on_tick: Callable[[ShardedScheduler], bool] | None,
) -> list[Wave]:
    """Play the plan's load: one wave per phase, and the plan's next
    incident batch at each boundary between phases."""
    waves: list[Wave] = []
    batch, before = None, 0

    def close(responses: Iterable[RankResponse]) -> None:
        waves.append(Wave(batch, tuple(responses), scheduler.epoch_cache_invalidations() - before))

    def on_phase(index: int) -> None:
        nonlocal batch, before
        if index:
            close(scheduler.drain_responses())
            before = scheduler.epoch_cache_invalidations()
            batch = _land(scheduler, plan, network)

    close(run_load(scheduler, trips, plan.load, plan.seed, on_phase, on_tick))
    return waves


def _land(
    scheduler: ShardedScheduler, plan: ChaosPlan, network: RoadNetwork
) -> tuple[Incident, ...] | None:
    """Apply the plan's next incident batch, if it has one left."""
    batch = scheduler.injector.next_incidents(network) if plan.incidents is not None else None
    if batch is not None:
        scheduler.epochs.apply(batch)
    return batch


def _crash_leg(workload: Workload, plan: ChaosPlan, trips: Sequence[Trip]) -> tuple[Recovery, ...]:
    environment = _environment(workload, plan.backend)
    config = plan.config()
    durability = DurabilityConfig(snapshot_every=SNAPSHOT_EVERY, fsync=False)
    recoveries: list[Recovery] = []
    with tempfile.TemporaryDirectory(prefix="chaos-") as root:
        for t, trip in enumerate(trips):
            for point in plan.crash_points:
                session_id = f"trip{t}-{point.point}-{point.at_occurrence}"
                server = EcoChargeInformationServer(environment, injector=plan.injector(point))
                service = DurableSessionService(server, root, durability)
                session = service.open(session_id, trip, config)
                info = None
                try:
                    run = session.run()
                except SessionCrash:
                    # The restarted process: a fresh server, no crash plan.
                    server = EcoChargeInformationServer(environment, injector=plan.injector())
                    service = DurableSessionService(server, root, durability)
                    session = service.resume(session_id)
                    info = session.recovery
                    run = session.run()
                ok = session.accounting_ok() and (info is None or info.accounting_ok)
                recoveries.append(Recovery(t, point, info, ok, tuple(run.tables)))
                service.close(session)
    return tuple(recoveries)


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------


def _encode(tables: Iterable[OfferingTable]) -> list[str]:
    """Canonical JSON with hex floats: equal strings mean bitwise equal."""
    return [canonical_dumps(OfferingTableCodec.encode(table)) for table in tables]


def _contained(
    oracle: ChargingEnvironment,
    trip: Trip,
    tables: Iterable[OfferingTable],
    config: EcoChargeConfig,
    tally: Counter,
) -> list[str]:
    """The ``oracle`` rule for one trip, one oracle pass per segment.

    Adapted tables reuse intervals computed for an earlier segment
    (Section IV-C's precision-for-reuse trade), so containment at *this*
    segment is not a claim they make.  ``tally`` counts the graded
    entries under ``oracle`` and sums their ground-truth SC under
    ``true_sc``.
    """
    by_segment: dict[int, list[OfferingTable]] = {}
    for table in tables:
        if not table.is_adapted:
            by_segment.setdefault(table.segment_index, []).append(table)
    segments = trip.segments(config.segment_km)
    etas = oracle.eta.segment_etas(trip, segment_km=config.segment_km)
    position = {segment.index: i for i, segment in enumerate(segments)}
    violations: list[str] = []
    for index, group in sorted(by_segment.items()):
        i = position[index]
        truths = oracle_truths_for_tables(
            oracle, segments[i], group, etas[i].expected_h,
            segments[i + 1] if i + 1 < len(segments) else None,
        )
        for entry in (entry for table in group for entry in table.entries):
            truth = truths[entry.charger_id]
            tally["oracle"] += 1
            tally["true_sc"] += sc_exact(
                truth.sustainable, truth.availability, truth.derouting, config.weights
            )
            missed = [
                f"{name} {getattr(truth, name)!r} outside {getattr(entry, name)}"
                for name in ("sustainable", "availability", "derouting")
                if not Interval.exact(getattr(truth, name)).within_bounds(
                    getattr(entry, name).lo, getattr(entry, name).hi, tol=CONTAINMENT_SLACK
                )
            ]
            if missed:
                violations.append(
                    f"oracle: segment {index} charger {entry.charger_id} at epoch "
                    f"{oracle.current_epoch()}: {'; '.join(missed)}"
                )
    return violations


def _epoch_contained(
    response: RankResponse, fresh: Sequence[OfferingTable], tally: Counter
) -> list[str]:
    """The ``epoch`` rule: widened derouting contains the fresh-epoch
    interval, for every charger present in both tables."""
    by_segment = {table.segment_index: table for table in fresh}
    violations: list[str] = []
    for table in response.tables:
        baseline = by_segment.get(table.segment_index)
        for entry in table.entries if baseline is not None else ():
            truth = baseline.get(entry.charger_id)
            if truth is None:
                continue
            tally["epoch"] += 1
            widened = entry.derouting
            if not truth.derouting.within_bounds(widened.lo, widened.hi, tol=CONTAINMENT_SLACK):
                violations.append(
                    f"epoch: segment {table.segment_index} charger {entry.charger_id}: "
                    f"{widened} misses the fresh {truth.derouting}"
                )
    return violations


def check(workload: Workload, run: ChaosRun, tally: Counter | None = None) -> list[str]:
    """Every violation of the module docstring's rules in ``run``.

    ``tally``, when given, counts the checks made per rule (``oracle``
    and ``epoch`` per table entry, the others per comparison or ledger)
    and sums the graded entries' ground-truth SC under ``true_sc``, so a
    report can show what was proven and at what quality.
    """
    tally = tally if tally is not None else Counter()
    plan, trips = run.plan, run.trips
    config = plan.config()
    faulty = plan.faults != NO_FAULTS
    # Replay the run's epoch history on a manager of our own, so every
    # wave is graded at the epoch it was served under.
    epochs = GraphEpochManager(workload.environment.network)
    oracle = _environment(workload)
    oracle.set_epochs(epochs)
    memo: dict[tuple[int, int], tuple[OfferingTable, ...]] = {}

    def cold(trip: Trip, backend: str = plan.backend) -> tuple[OfferingTable, ...]:
        """A recompute on the live graph with every cache cold: a reused
        environment would answer from its own dynamic cache."""
        environment = _environment(workload, backend)
        environment.set_epochs(epochs)
        return tuple(EcoChargeInformationServer(environment).rank_trip(trip, config).tables)

    def fresh(i: int) -> tuple[OfferingTable, ...]:
        # The fresh truth depends on exactly the weights version.
        key = (epochs.weights_version, i)
        if key not in memo:
            memo[key] = cold(trips[i])
        return memo[key]

    index = {id(trip): i for i, trip in enumerate(trips)}
    violations: list[str] = []
    outcomes: Counter = Counter()
    # The crash leg ran on the static graph, so it is graded before the
    # replay moves the epoch: the uninterrupted run is a cold recompute.
    for recovery in run.recoveries:
        i, where = recovery.trip, f"trip {recovery.trip} at {recovery.point.point}"
        violations += [
            f"{v} ({where})" for v in _contained(oracle, trips[i], recovery.tables, config, tally)
        ]
        if not recovery.accounting_ok:
            violations.append(f"books: {where}: recovery accounting does not reconcile")
        if recovery.info is not None and not faulty:
            tally["replay"] += 1
            if _encode(recovery.tables) != _encode(fresh(i)):
                violations.append(f"replay: {where}: resumed tables diverge")

    for wave in run.waves:
        fresh_due: set[int] = set()
        if wave.batch == ():
            tally["noop"] += 1
            before = [_encode(cold(trip)) for trip in trips]
            epochs.apply(())
            if [_encode(cold(trip)) for trip in trips] != before:
                violations.append(f"noop: epoch {epochs.epoch} changed the tables")
            if wave.invalidations:
                violations.append(
                    f"noop: epoch {epochs.epoch} invalidated {wave.invalidations} cache entries"
                )
        elif wave.batch is not None and not epochs.apply(wave.batch).is_noop and not faulty:
            # The bump fences each shard's dynamic cache at first lookup,
            # so a trip's first unwidened completed serve is computed cold
            # on the live graph; later serves legitimately adapt.
            fresh_due = set(range(len(trips)))
        served: dict[int, list[OfferingTable]] = {}
        for response in wave.responses:
            outcomes[response.outcome.value] += 1
            i = index[id(response.request.trip)]
            served.setdefault(i, []).extend(response.tables)
            if not response.outcome.is_served:
                # Under a load, shedding is the contract: ``books`` grades it.
                if plan.load is None:
                    violations.append(f"served: trip {i} resolved {response.outcome.value}")
            elif response.epoch_degraded:
                violations += _epoch_contained(response, fresh(i), tally)
            elif i in fresh_due and not response.widened and response.outcome is Outcome.COMPLETED:
                fresh_due.discard(i)
                tally["fresh"] += 1
                if _encode(response.tables) != _encode(fresh(i)):
                    violations.append(f"fresh: trip {i} served stale tables at epoch {epochs.epoch}")
        # Graded with the oracle at the wave's epoch, one pass per trip.
        for i, tables in served.items():
            violations += _contained(oracle, trips[i], tables, config, tally)

    if plan.incidents is not None and plan.backend != REFERENCE_BACKEND:
        for i, trip in enumerate(trips):
            tally["backends"] += 1
            if _encode(fresh(i)) != _encode(cold(trip, REFERENCE_BACKEND)):
                violations.append(f"backends: trip {i} differs from {REFERENCE_BACKEND}")

    tally["books"] += 1
    registry = run.scheduler.telemetry.registry
    for outcome in Outcome:
        counted = registry.sample_value(
            "ecocharge_scheduler_requests_total", {"outcome": outcome.value}
        )
        if counted != outcomes[outcome.value]:
            violations.append(
                f"books: ecocharge_scheduler_requests_total{{outcome={outcome.value}}}: "
                f"counted={counted} responses={outcomes[outcome.value]}"
            )
    if not run.scheduler.accounting_ok():
        violations.append("books: scheduler accounting is not exact")
    for shard, gateway in enumerate(run.gateways):
        if not gateway.accounting_ok():
            violations.append(f"books: shard {shard} gateway does not reconcile")
    return violations
