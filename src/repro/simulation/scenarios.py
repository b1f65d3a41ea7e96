"""The paper's three motivating scenarios, as runnable simulations.

Section I motivates renewable hoarding with: (i) electric taxis idling
between fares, (ii) parents waiting during children's activities, and
(iii) shoppers parked for an errand.  Each builder configures a
:class:`~repro.simulation.fleet.FleetSimulation` with that scenario's
fingerprint — idle-window length, battery state, time of day, and fleet
size — over any workload, so the scenarios can be compared on equal
ground.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from ..chargers.charger import Vehicle
from ..core.ecocharge import EcoChargeConfig
from ..network.path import Trip
from ..resilience.faults import OutageWindow
from ..trajectories.datasets import Workload
from .fleet import FleetReport, FleetSimulation, SimulationConfig


@dataclass(frozen=True, slots=True)
class Scenario:
    """A named hoarding scenario: how vehicles behave and when."""

    name: str
    description: str
    idle_duration_h: float
    departure_h: float
    initial_soc: float
    fleet_size: int
    charge_below_soc: float

    def build(self, workload: Workload, ecocharge: EcoChargeConfig | None = None) -> FleetSimulation:
        """A fleet simulation realising this scenario on ``workload``.

        Trips are re-timed to the scenario's departure window (spread a
        few minutes apart) and the fleet gets scenario-specific batteries.
        """
        ecocharge = ecocharge if ecocharge is not None else EcoChargeConfig(
            k=3, radius_km=20.0
        )
        config = SimulationConfig(
            idle_duration_h=self.idle_duration_h,
            charge_below_soc=self.charge_below_soc,
            ecocharge=ecocharge,
        )
        base_trips = workload.trips[: self.fleet_size]
        trips = [
            Trip(trip.network, trip.node_ids, self.departure_h + 0.05 * i)
            for i, trip in enumerate(base_trips)
        ]
        vehicles = [
            Vehicle(vehicle_id=i, state_of_charge=self.initial_soc)
            for i in range(len(trips))
        ]
        return FleetSimulation(workload.environment, trips, config, vehicles)


#: Scenario (i): taxis idle ~45 min between fare clusters, keep batteries
#: topped up opportunistically all day.
TAXI_IDLE = Scenario(
    name="taxi-idle",
    description="Electric taxis hoarding between fares (paper scenario i)",
    idle_duration_h=0.75,
    departure_h=11.0,
    initial_soc=0.45,
    fleet_size=6,
    charge_below_soc=0.6,
)

#: Scenario (ii): the after-school wait is a fixed ~1.5 h window in the
#: afternoon; batteries are half full after the day's errands.
WAITING_PARENT = Scenario(
    name="waiting-parent",
    description="Parents waiting during after-school activities (scenario ii)",
    idle_duration_h=1.5,
    departure_h=15.0,
    initial_soc=0.5,
    fleet_size=4,
    charge_below_soc=0.6,
)

#: Scenario (iii): a ~1 h shopping errand around midday — the solar peak,
#: which is exactly why hoarding there is attractive.
SHOPPING_TRIP = Scenario(
    name="shopping-trip",
    description="Charging during a midday shopping errand (scenario iii)",
    idle_duration_h=1.0,
    departure_h=12.5,
    initial_soc=0.45,
    fleet_size=4,
    charge_below_soc=0.55,
)

SCENARIOS: dict[str, Scenario] = {
    s.name: s for s in (TAXI_IDLE, WAITING_PARENT, SHOPPING_TRIP)
}


def run_scenario(
    scenario: Scenario,
    workload: Workload,
    ecocharge: EcoChargeConfig | None = None,
) -> FleetReport:
    """Build and run one scenario end to end."""
    return scenario.build(workload, ecocharge).run()


def scenario_comparison(
    workload: Workload,
    scenarios: dict[str, Scenario] | None = None,
) -> dict[str, FleetReport]:
    """Run every scenario on the same workload for side-by-side stats."""
    scenarios = scenarios if scenarios is not None else SCENARIOS
    return {name: run_scenario(s, workload) for name, s in scenarios.items()}


# ---------------------------------------------------------------------------
# Chaos scenario: the serving stack under provider faults
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ChaosSpec:
    """A fault-injection scenario for the EIS serving stack.

    ``error_rate`` is the per-call transient failure probability of every
    upstream endpoint; the weather endpoint additionally suffers a hard
    outage window (forecasts are the component most exposed to provider
    downtime in practice).  The point of the scenario is the paper's
    serving story under stress: every trip must still receive a complete
    CkNN-EC answer — with honestly wider intervals — and zero unhandled
    exceptions.
    """

    name: str = "provider-chaos"
    description: str = "EIS serving a fleet through faulty providers"
    error_rate: float = 0.25
    latency_spike_rate: float = 0.05
    weather_outage: "OutageWindow | None" = None
    seed: int = 0
    fleet_size: int = 3
    k: int = 3
    radius_km: float = 15.0


@dataclass(frozen=True, slots=True)
class ChaosReport:
    """What happened when the fleet was served through faults."""

    scenario: str
    trips_ranked: int
    tables_produced: int
    failed_segments: int
    snapshots_served: int
    degraded_snapshots: int
    faults_injected: int
    degraded_served: int
    breaker_openings: dict[str, int]
    accounting_ok: bool

    @property
    def completed_cleanly(self) -> bool:
        """Every segment of every trip got an Offering Table."""
        return self.failed_segments == 0


def run_chaos(workload: Workload, spec: ChaosSpec | None = None) -> ChaosReport:
    """Serve a fleet centrally (Mode 2) while providers misbehave.

    Each trip gets a full :func:`~repro.core.ranking.run_over_trip` pass
    plus one region snapshot per produced table, so all four endpoints
    (weather, busy, traffic, catalog) see traffic under the configured
    fault regime.  The report reconciles health counters against
    ``ApiUsage`` — every upstream call is accounted for.
    """
    from ..resilience import FaultInjector, FaultProfile
    from ..server.eis import EcoChargeInformationServer

    spec = spec if spec is not None else ChaosSpec()
    profile = FaultProfile(
        error_rate=spec.error_rate, latency_spike_rate=spec.latency_spike_rate
    )
    profiles = {}
    if spec.weather_outage is not None:
        profiles["weather"] = replace(profile, outages=(spec.weather_outage,))
    injector = FaultInjector(seed=spec.seed, profiles=profiles, default=profile)
    server = EcoChargeInformationServer(workload.environment, injector=injector)
    config = EcoChargeConfig(k=spec.k, radius_km=spec.radius_km)

    trips = workload.trips[: spec.fleet_size]
    tables = 0
    failed = 0
    snapshots = 0
    degraded_snapshots = 0
    for trip in trips:
        run = server.rank_trip(trip, config)
        tables += len(run.tables)
        failed += len(run.failed_segments)
        for table in run.tables:
            snapshot = server.region_snapshot(
                table.origin,
                spec.radius_km,
                eta_h=table.generated_at_h,
                now_h=trip.departure_time_h,
            )
            snapshots += 1
            if snapshot.is_degraded:
                degraded_snapshots += 1
    return ChaosReport(
        scenario=spec.name,
        trips_ranked=len(trips),
        tables_produced=tables,
        failed_segments=failed,
        snapshots_served=snapshots,
        degraded_snapshots=degraded_snapshots,
        faults_injected=server.gateway.injector.total_injected,
        degraded_served=server.health.total_degraded,
        breaker_openings={
            name: endpoint.breaker.times_opened
            for name, endpoint in sorted(server.gateway.endpoints.items())
        },
        accounting_ok=server.gateway.accounting_ok(),
    )


# ---------------------------------------------------------------------------
# Crash chaos: the durability tier under deterministic process death
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CrashChaosSpec:
    """A crash-injection scenario for durable continuous queries.

    For every trip and every named crash point, a durable session is
    opened and driven until the planned :class:`SessionCrash` fires; a
    *fresh* server (simulating the restarted process) then resumes the
    session from its snapshot + journal tail and finishes the trip.  The
    scenario's invariant is the durability tier's core guarantee: the
    recovered run's Offering Tables must be **bitwise identical** to an
    uninterrupted baseline, torn journal lines must be detected and
    discarded (never replayed), and journal/cache accounting must
    reconcile after recovery.
    """

    name: str = "crash-chaos"
    description: str = "Durable sessions surviving deterministic crashes"
    crash_points: tuple[str, ...] = (
        "segment-start",
        "mid-segment",
        "mid-journal-append",
        "post-snapshot",
    )
    at_occurrence: int = 2
    fleet_size: int = 2
    k: int = 3
    radius_km: float = 15.0
    snapshot_every: int = 2
    engine: str | None = None
    seed: int = 0


@dataclass(frozen=True, slots=True)
class CrashChaosReport:
    """What happened when durable sessions were killed and revived."""

    scenario: str
    trips: int
    sessions_crashed: int
    sessions_recovered: int
    crashes_not_reached: int
    snapshots_loaded: int
    records_replayed: int
    torn_lines_discarded: int
    replay_divergences: int
    accounting_failures: int

    @property
    def replay_identical(self) -> bool:
        """Every recovered run matched its uninterrupted baseline bitwise."""
        return self.replay_divergences == 0

    @property
    def completed_cleanly(self) -> bool:
        return self.replay_identical and self.accounting_failures == 0


def run_crash_chaos(
    workload: Workload,
    spec: CrashChaosSpec | None = None,
    root: "Path | str | None" = None,
) -> CrashChaosReport:
    """Kill durable sessions at every planned crash point; verify replay.

    Bitwise equality is checked on the *encoded* tables (canonical JSON
    with hex floats), so even a sign-of-zero difference between the
    recovered and the uninterrupted run counts as divergence.
    """
    import tempfile

    from ..core.ecocharge import EcoChargeConfig
    from ..durability import DurabilityConfig, OfferingTableCodec, canonical_dumps
    from ..resilience import CrashPoint, FaultInjector, SessionCrash
    from ..server.eis import EcoChargeInformationServer
    from ..server.sessions import DurableSessionService

    spec = spec if spec is not None else CrashChaosSpec()
    root = Path(root) if root is not None else Path(tempfile.mkdtemp(prefix="crash-chaos-"))
    config = EcoChargeConfig(k=spec.k, radius_km=spec.radius_km, engine=spec.engine)
    durability = DurabilityConfig(snapshot_every=spec.snapshot_every, fsync=False)
    trips = workload.trips[: spec.fleet_size]

    def encoded_tables(run) -> list[str]:
        return [canonical_dumps(OfferingTableCodec.encode(t)) for t in run.tables]

    # Uninterrupted baselines, one fault-free server per trip so cache
    # state never leaks between runs.
    baselines = []
    for trip in trips:
        server = EcoChargeInformationServer(workload.environment)
        baselines.append(encoded_tables(server.rank_trip(trip, config)))

    crashed = recovered = not_reached = 0
    snapshots_loaded = records_replayed = torn_discarded = 0
    divergences = accounting_failures = 0
    for trip_index, trip in enumerate(trips):
        for point in spec.crash_points:
            session_id = f"trip{trip_index}-{point}"
            injector = FaultInjector(
                seed=spec.seed,
                crash_plan=[CrashPoint(point, at_occurrence=spec.at_occurrence)],
            )
            server = EcoChargeInformationServer(workload.environment, injector=injector)
            service = DurableSessionService(server, root, durability)
            session = service.open(session_id, trip, config)
            try:
                session.run()
            except SessionCrash:
                crashed += 1
            else:
                # The trip was too short for this occurrence; still a
                # valid durable run, but nothing to recover.
                not_reached += 1
                service.close(session)
                continue
            # The restarted process: fresh server, no crash plan.
            server2 = EcoChargeInformationServer(workload.environment)
            service2 = DurableSessionService(server2, root, durability)
            resumed = service2.resume(session_id)
            info = resumed.recovery
            run = resumed.run()
            recovered += 1
            snapshots_loaded += int(info.snapshot_loaded)
            records_replayed += info.journal_records_replayed
            torn_discarded += info.torn_lines_discarded
            if encoded_tables(run) != baselines[trip_index]:
                divergences += 1
            if not (info.accounting_ok and resumed.accounting_ok()):
                accounting_failures += 1
            service2.close(resumed)
    return CrashChaosReport(
        scenario=spec.name,
        trips=len(trips),
        sessions_crashed=crashed,
        sessions_recovered=recovered,
        crashes_not_reached=not_reached,
        snapshots_loaded=snapshots_loaded,
        records_replayed=records_replayed,
        torn_lines_discarded=torn_discarded,
        replay_divergences=divergences,
        accounting_failures=accounting_failures,
    )


# ---------------------------------------------------------------------------
# Incident chaos: the serving tier riding live-graph epoch bumps
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class IncidentChaosSpec:
    """A seeded incident-storm scenario for the live-graph subsystem.

    A :class:`~repro.resilience.IncidentChaos` plan drives epoch bumps
    (congestion multipliers, closures, reopenings, and scheduled no-op
    bumps) into a :class:`~repro.network.epochs.GraphEpochManager` shared
    by every scheduler shard, while duplicate request waves push the
    shards past their serve-stale brownout threshold so cached answers
    from *previous* epochs get served through the epoch-degraded path.
    The run proves, per engine backend:

    * **interval soundness** — every epoch-degraded table's derouting
      interval contains the fresh-epoch recompute's interval;
    * **no stale serve labelled fresh** — every served table *not*
      flagged degraded/widened is bitwise identical to a fresh oracle
      recompute on the live graph;
    * **no-op bumps are free** — an epoch bump that changes no weight
      yields bitwise-identical tables and zero cache invalidations;
    * **backend agreement** — after the full storm, both backends produce
      bitwise-identical Offering Tables on the final epoch;
    * **exact accounting** — every submission resolves exactly once, and
      the responses delivered match the per-outcome counts the metrics
      registry reads from the scheduler's stats.
    """

    name: str = "incident-chaos"
    description: str = "Epoch-fenced serving through a seeded incident storm"
    batches: int = 6
    batch_size: int = 2
    noop_every: int = 3
    fleet_size: int = 2
    #: Same-trip copies per wave; sized to push the shard queue past the
    #: serve-stale threshold so old-epoch cache entries actually serve.
    duplicates: int = 6
    k: int = 3
    radius_km: float = 15.0
    backends: tuple[str, ...] = ("dijkstra", "ch")
    seed: int = 0
    #: Containment slack absorbing the engine's 1e-9 distance quantisation.
    containment_slack: float = 1e-8

    def __post_init__(self) -> None:
        if self.batches < 1:
            raise ValueError("batches must be positive")
        if self.fleet_size < 1:
            raise ValueError("fleet_size must be positive")
        if self.duplicates < 1:
            raise ValueError("duplicates must be positive")
        if not self.backends:
            raise ValueError("at least one backend is required")


@dataclass(frozen=True, slots=True)
class IncidentChaosReport:
    """What happened when the live graph moved under the serving tier."""

    scenario: str
    backends: tuple[str, ...]
    epochs_applied: int
    weight_epochs: int
    noop_epochs: int
    incidents_applied: int
    served: int
    epoch_degraded_served: int
    stale_epoch_rejections: int
    containment_checks: int
    containment_violations: int
    fresh_checks: int
    fresh_divergences: int
    noop_proofs: int
    noop_divergences: int
    noop_cache_invalidations: int
    backend_divergences: int
    reconciliation: tuple[str, ...]
    accounting_failures: int
    #: Slowest post-fence CH re-customization sweep observed across the
    #: storm (seconds; None when no backend ran a sweep).
    epoch_swap_s: float | None = None

    @property
    def sound(self) -> bool:
        """100% interval soundness and zero fresh-labelled stale serves."""
        return self.containment_violations == 0 and self.fresh_divergences == 0

    @property
    def completed_cleanly(self) -> bool:
        return (
            self.sound
            and self.noop_divergences == 0
            and self.noop_cache_invalidations == 0
            and self.backend_divergences == 0
            and self.accounting_failures == 0
            and not self.reconciliation
        )

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "backends": list(self.backends),
            "epochs_applied": self.epochs_applied,
            "weight_epochs": self.weight_epochs,
            "noop_epochs": self.noop_epochs,
            "incidents_applied": self.incidents_applied,
            "served": self.served,
            "epoch_degraded_served": self.epoch_degraded_served,
            "stale_epoch_rejections": self.stale_epoch_rejections,
            "containment_checks": self.containment_checks,
            "containment_violations": self.containment_violations,
            "fresh_checks": self.fresh_checks,
            "fresh_divergences": self.fresh_divergences,
            "noop_proofs": self.noop_proofs,
            "noop_divergences": self.noop_divergences,
            "noop_cache_invalidations": self.noop_cache_invalidations,
            "backend_divergences": self.backend_divergences,
            "reconciliation": list(self.reconciliation),
            "accounting_failures": self.accounting_failures,
            "epoch_swap_s": self.epoch_swap_s,
            "sound": self.sound,
            "completed_cleanly": self.completed_cleanly,
        }


def _drive_incident_storm(workload: Workload, spec: IncidentChaosSpec, backend: str) -> dict:
    """One backend's pass through the storm; see :class:`IncidentChaosSpec`.

    Returns the raw evidence: violation counters, epoch/scheduler stats,
    and the bitwise-encoded final-epoch tables for cross-backend
    comparison.  Fresh oracle recomputes always use a *new* environment
    (same construction seed, so deterministic) — a reused oracle would
    answer from its own dynamic cache and prove nothing.
    """
    from ..core.environment import ChargingEnvironment
    from ..durability import OfferingTableCodec, canonical_dumps
    from ..network.epochs import GraphEpochManager
    from ..observability.recorder import Telemetry
    from ..resilience import FaultInjector, IncidentChaos
    from ..server.eis import EcoChargeInformationServer
    from ..server.scheduling import Outcome, SchedulerConfig, ShardedScheduler
    from .load import outcome_drift

    network, registry, seed = workload.network, workload.registry, spec.seed
    config = EcoChargeConfig(k=spec.k, radius_km=spec.radius_km, engine=backend)
    manager = GraphEpochManager(network)
    telemetry = Telemetry.simulated(tick_s=0.0)
    injector = FaultInjector(
        seed=spec.seed,
        incidents=IncidentChaos(
            seed=spec.seed,
            batches=spec.batches,
            batch_size=spec.batch_size,
            noop_every=spec.noop_every,
        ),
    )
    def shard_environment() -> ChargingEnvironment:
        # Live telemetry on the shard environments so CH re-customization
        # sweeps report their latency (the epoch-swap measurement);
        # deterministic mode is single-threaded, so one shared registry
        # stays single-writer.
        env = ChargingEnvironment(network, registry, seed=seed)
        env.set_telemetry(telemetry)
        return env

    scheduler = ShardedScheduler(
        shard_environment,
        SchedulerConfig(
            shards=2,
            queue_capacity=8,
            max_inflight=256,
            tenant_rate_per_s=1e6,
            tenant_burst=1e6,
            deadline_budget_s=3600.0,
            response_ttl_h=24.0,
            max_stale_h=24.0,
            serve_stale_at=0.5,
            widen_at=0.95,
            shed_refresh_at=0.99,
        ),
        config,
        clock=telemetry.clock,
        telemetry=telemetry,
        injector=injector,
        epochs=manager,
    )
    trips = list(workload.trips[: spec.fleet_size])
    trip_index = {id(trip): i for i, trip in enumerate(trips)}

    def encode(tables) -> list[str]:
        return [canonical_dumps(OfferingTableCodec.encode(t)) for t in tables]

    def fresh_rank(trip) -> tuple:
        """Fresh-truth tables on the live graph: new environment, cold
        caches, current epoch."""
        env = ChargingEnvironment(network, registry, seed=seed)
        env.set_epochs(manager)
        return tuple(EcoChargeInformationServer(env).rank_trip(trip, config).tables)

    # Fresh tables memoised per (weights version, trip): sound because the
    # weights version is exactly what the fresh truth depends on.
    fresh_memo: dict[tuple[int, int], tuple] = {}

    def fresh(index: int) -> tuple:
        key = (manager.weights_version, index)
        if key not in fresh_memo:
            fresh_memo[key] = fresh_rank(trips[index])
        return fresh_memo[key]

    containment_checks = containment_violations = 0
    fresh_checks = fresh_divergences = 0
    noop_proofs = noop_divergences = noop_cache_invalidations = 0
    served = 0
    outcomes: dict[str, int] = {}
    slack = spec.containment_slack

    def check_containment(response) -> None:
        """Widened derouting must contain the fresh-epoch interval, per
        charger present in both tables (Lemma: widened ⊇ true)."""
        nonlocal containment_checks, containment_violations
        fresh_tables = {t.segment_index: t for t in fresh(trip_index[id(response.request.trip)])}
        for table in response.tables:
            baseline = fresh_tables.get(table.segment_index)
            if baseline is None:
                continue
            for entry in table.entries:
                truth = baseline.get(entry.charger_id)
                if truth is None:
                    continue
                containment_checks += 1
                widened = entry.derouting
                if not truth.derouting.within_bounds(widened.lo, widened.hi, tol=slack):
                    containment_violations += 1

    def check_fresh(response) -> None:
        """A serve not flagged widened/degraded claims to be the fresh
        truth — hold it to bitwise equality with a cold recompute."""
        nonlocal fresh_checks, fresh_divergences
        fresh_checks += 1
        if encode(response.tables) != encode(fresh(trip_index[id(response.request.trip)])):
            fresh_divergences += 1

    while True:
        batch = injector.next_incidents(network)
        if batch is None:
            break
        noop_round = len(batch) == 0
        drops_before = 0
        if noop_round:
            # Scheduled no-op bump: prove it costs nothing.  Fresh truth
            # is recomputed from scratch on both sides of the bump (the
            # memo is deliberately bypassed), and — because fencing is
            # lazy, at lookup time — the invalidation delta is measured
            # across the whole wave that serves *after* the bump.
            noop_proofs += 1
            before = [encode(fresh_rank(trip)) for trip in trips]
            drops_before = scheduler.epoch_cache_invalidations()
            transition = manager.apply(())
            after = [encode(fresh_rank(trip)) for trip in trips]
            if before != after:
                noop_divergences += 1
        else:
            transition = manager.apply(batch)
        # After a weight-changing bump the shard's dynamic cache is fenced
        # at first lookup, so the first unwidened COMPLETED serve per trip
        # is a cold compute on the live graph and must be bitwise-fresh.
        # Warm-path serves legitimately adapt from the trip cache (same
        # weights, not bitwise) and are exempt.
        fresh_eligible = set(range(len(trips))) if not transition.is_noop else set()
        for i, trip in enumerate(trips):
            for copy in range(spec.duplicates):
                scheduler.submit(tenant=f"tenant-{i}", trip=trip)
            scheduler.drain()
            for response in scheduler.drain_responses():
                outcome = response.outcome.value
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
                if not response.outcome.is_served:
                    continue
                served += 1
                if response.epoch_degraded:
                    check_containment(response)
                elif (
                    not response.widened
                    and response.outcome is Outcome.COMPLETED
                    and i in fresh_eligible
                ):
                    check_fresh(response)
                    fresh_eligible.discard(i)
        if noop_round:
            noop_cache_invalidations += (
                scheduler.epoch_cache_invalidations() - drops_before
            )

    problems = outcome_drift(telemetry.registry, outcomes)
    final_tables = [encode(fresh_rank(trip)) for trip in trips]
    # Epoch-swap latency: the slowest post-fence re-customization sweep
    # any shard engine paid (CH backend; None when no sweep ran).
    swap_samples = [
        shard.environment.engine.last_recustomize_s
        for shard in scheduler.shards
        if shard.environment.engine.last_recustomize_s is not None
    ]
    return {
        "backend": backend,
        "epoch_stats": manager.stats.as_dict(),
        "served": served,
        "epoch_degraded": scheduler.stats.epoch_degraded,
        "stale_epoch_rejections": scheduler.stats.stale_epoch_rejections,
        "containment_checks": containment_checks,
        "containment_violations": containment_violations,
        "fresh_checks": fresh_checks,
        "fresh_divergences": fresh_divergences,
        "noop_proofs": noop_proofs,
        "noop_divergences": noop_divergences,
        "noop_cache_invalidations": noop_cache_invalidations,
        "reconciliation": problems,
        "accounting_ok": scheduler.accounting_ok(),
        "final_tables": final_tables,
        "epoch_swap_s": max(swap_samples) if swap_samples else None,
    }


def run_incident_chaos(
    workload: Workload, spec: IncidentChaosSpec | None = None
) -> IncidentChaosReport:
    """Run the seeded incident storm on every backend and fold the proof.

    Each backend replays the *same* storm (the incident stream is seeded
    and the network is shared read-only — every backend gets its own
    epoch manager, so factor state never leaks between passes), which is
    what makes the final-epoch bitwise cross-backend comparison
    meaningful.
    """
    spec = spec if spec is not None else IncidentChaosSpec()
    runs = [_drive_incident_storm(workload, spec, backend) for backend in spec.backends]

    backend_divergences = 0
    reference = runs[0]
    for run in runs[1:]:
        if run["final_tables"] != reference["final_tables"]:
            backend_divergences += 1
        if run["epoch_stats"] != reference["epoch_stats"]:
            backend_divergences += 1

    problems: list[str] = []
    for run in runs:
        problems.extend(f"{run['backend']}: {p}" for p in run["reconciliation"])
    epoch_stats = reference["epoch_stats"]
    return IncidentChaosReport(
        scenario=spec.name,
        backends=spec.backends,
        epochs_applied=epoch_stats["epochs"],
        weight_epochs=epoch_stats["weight_epochs"],
        noop_epochs=epoch_stats["noop_epochs"],
        incidents_applied=epoch_stats["incidents_applied"],
        served=sum(run["served"] for run in runs),
        epoch_degraded_served=sum(run["epoch_degraded"] for run in runs),
        stale_epoch_rejections=sum(run["stale_epoch_rejections"] for run in runs),
        containment_checks=sum(run["containment_checks"] for run in runs),
        containment_violations=sum(run["containment_violations"] for run in runs),
        fresh_checks=sum(run["fresh_checks"] for run in runs),
        fresh_divergences=sum(run["fresh_divergences"] for run in runs),
        noop_proofs=sum(run["noop_proofs"] for run in runs),
        noop_divergences=sum(run["noop_divergences"] for run in runs),
        noop_cache_invalidations=sum(
            run["noop_cache_invalidations"] for run in runs
        ),
        backend_divergences=backend_divergences,
        reconciliation=tuple(problems),
        accounting_failures=sum(0 if run["accounting_ok"] else 1 for run in runs),
        epoch_swap_s=max(
            (run["epoch_swap_s"] for run in runs if run["epoch_swap_s"] is not None),
            default=None,
        ),
    )
