"""SLO storm drill — burn-rate alerting exercised end to end.

Replays a seeded overload + fault + incident storm against the sharded
scheduler on a ``SimulatedClock`` and grades the whole observability
chain built on top of it:

* the :class:`~repro.observability.WindowedAggregator` samples the
  registry once per simulated second;
* the :class:`~repro.observability.SLOEngine` evaluates the serving
  objectives (availability of served-fresh, p99-style latency buckets,
  zero unsound tables) with multi-window multi-burn-rate pairs scaled
  down from the SRE-workbook defaults so the storm measured in
  simulated *seconds* walks the same machinery as an hours-long page;
* the :class:`~repro.observability.AlertManager` walks each alert
  through pending → firing → resolved and the scheduler consumes the
  firing set as a brownout floor (``alert_driven_brownout=True``);
* the :class:`~repro.observability.TailSampler` decides trace
  retention, and the drill asserts every error / deadline-shed /
  degraded-serve trace survived the storm.

The storm has three phases — calm, storm (4x burst + a slow shard +
live-graph incidents), recovery over a fresh trip pool — and the run is
executed **twice**; the artifact is only written after the two payloads
canonicalise byte-identically.  A mid-storm *soundness drill* injects
three synthetic ``ecocharge_unsound_tables_total`` events (clearly
labelled in the payload) so the zero-budget objective demonstrably
pages and resolves; the *real* interval-soundness audit grades every
served non-adapted table against the oracle at the epoch it was served
under (:func:`~repro.simulation.chaos.oracle_violations`) and must find
zero violations.

Artifacts: ``OBS_slo.json`` (deterministic, no timestamps) and a
regenerated ``OBS_metrics.prom`` exposition that must round-trip
through :func:`~repro.observability.parse_prometheus`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from ..core.ecocharge import EcoChargeConfig
from ..core.environment import ChargingEnvironment
from ..network.epochs import GraphEpochManager, IncidentStream
from ..observability import (
    MUST_KEEP_REASONS,
    OVERFLOW_COUNTER,
    TENANT_LABEL_LIMIT,
    AlertManager,
    BurnWindowPair,
    SamplingPolicy,
    SLOEngine,
    TailSampler,
    Telemetry,
    WindowedAggregator,
    canonical_json,
    collect_exemplars,
    default_serving_slos,
    parse_prometheus,
    render_prometheus,
    retained_trace_ids,
    trip_correlation_id,
)
from ..observability.clock import SimulatedClock
from ..observability.sampling import REASON_ATTRIBUTE
from ..resilience import FaultInjector, OverloadChaos
from ..server.scheduling import (
    Outcome,
    Priority,
    SchedulerConfig,
    ShardedScheduler,
)
from ..simulation.chaos import oracle_violations
from ..simulation.load import outcome_drift
from ..trajectories.datasets import load_workload
from .harness import HarnessConfig

REPORT = "OBS_slo.json"
METRICS_EXPORT = "OBS_metrics.prom"
DATASET = "oldenburg"

#: Burn-window pairs scaled from hours to simulated seconds (the
#: SRE-workbook 1h/5m\@14.4 page and 6h/30m\@6 ticket shapes, compressed
#: ~300x so the 75 s drill spans several long windows).
DRILL_PAIRS = (
    BurnWindowPair(severity="page", long_s=12.0, short_s=4.0, threshold=6.0, for_s=2.0),
    BurnWindowPair(severity="ticket", long_s=36.0, short_s=12.0, threshold=3.0, for_s=6.0),
)

#: Evaluation ticks (1/s) at which the soundness drill injects one
#: synthetic unsound-table event each.
DRILL_TICKS = frozenset({22, 23, 24})

#: Number of distinct surge tenants the storm introduces on top of the
#: four steady fleet tenants — 12 total, so the ``tenant`` label guard
#: (limit 8) demonstrably trips and buckets the tail into ``__other__``.
SURGE_TENANTS = 8
FLEET_TENANTS = 4


@dataclass(frozen=True, slots=True)
class StormPhase:
    """One stretch of the drill's arrival process."""

    name: str
    duration_s: float
    #: Base Poisson arrival rate; the injector's burst window multiplies
    #: the storm phase up to its headline rate.
    arrival_rate_per_s: float
    #: Whether arrivals draw from the surge tenant pool and the
    #: storm-side trip pool.
    surge: bool


PHASES = (
    StormPhase("calm", duration_s=15.0, arrival_rate_per_s=2.0, surge=False),
    StormPhase("storm", duration_s=15.0, arrival_rate_per_s=4.0, surge=True),
    StormPhase("recovery", duration_s=45.0, arrival_rate_per_s=2.0, surge=False),
)

SERVICE_INTERVAL_S = 0.5
EVAL_INTERVAL_S = 1.0
#: Absolute simulated-time ceiling for the post-phase drain (queues must
#: empty and every fired alert must resolve well before this).
DRAIN_DEADLINE_S = 150.0


def _tenant_for(rng: random.Random, phase: StormPhase) -> str:
    if phase.surge and rng.random() < 0.75:
        return f"surge-{rng.randrange(SURGE_TENANTS):02d}"
    return f"fleet-{rng.randrange(FLEET_TENANTS):02d}"


def _priority_for(rng: random.Random) -> Priority:
    draw = rng.random()
    if draw < 0.1:
        return Priority.BACKGROUND
    if draw < 0.4:
        return Priority.REFRESH
    return Priority.INTERACTIVE


def _split_trips(trips) -> tuple[list, list]:
    """Calm/storm trips vs recovery trips.

    The recovery pool is disjoint from the storm pool so post-storm
    traffic misses the response cache: under the alert-driven brownout
    floor the tier computes *fresh* answers, the availability burn
    decays, and the alerts genuinely resolve instead of feeding back
    (stale serves count against served-fresh availability).
    """
    if len(trips) < 2:
        raise SystemExit("slo: the drill needs at least two workload trips")
    half = max(1, len(trips) // 2)
    return list(trips[:half]), list(trips[half:])


def _storm_scheduler(
    workload, telemetry: Telemetry, config: HarnessConfig
) -> tuple[ShardedScheduler, GraphEpochManager]:
    network, registry, seed = workload.network, workload.registry, config.seed

    def factory() -> ChargingEnvironment:
        return ChargingEnvironment(network, registry, seed=seed)

    epochs = GraphEpochManager(network)
    injector = FaultInjector(
        seed=config.seed,
        overload=OverloadChaos(
            burst_multiplier=4.0,
            burst_start_s=PHASES[0].duration_s,
            burst_duration_s=PHASES[1].duration_s,
            slow_shard=1,
            slow_delay_s=0.2,
        ),
    )
    scheduler = ShardedScheduler(
        factory,
        SchedulerConfig(
            shards=2,
            queue_capacity=8,
            deadline_budget_s=2.0,
            tenant_rate_per_s=8.0,
            tenant_burst=12.0,
            alert_driven_brownout=True,
        ),
        EcoChargeConfig(k=config.k, segment_km=6.0),
        clock=telemetry.clock,
        telemetry=telemetry,
        injector=injector,
        epochs=epochs,
    )
    return scheduler, epochs


def _run_storm(workload, config: HarnessConfig) -> dict:
    """One full drill on a fresh scheduler; returns the (deterministic)
    payload the artifact is built from."""
    sampler = TailSampler(SamplingPolicy(slow_k=3, slow_window_s=5.0, sample_rate=0.15))
    telemetry = Telemetry(
        SimulatedClock(0.0, 0.0), enabled=True, max_traces=48, sampler=sampler
    )
    clock = telemetry.clock
    scheduler, epochs = _storm_scheduler(workload, telemetry, config)
    windows = WindowedAggregator(telemetry.registry, clock, horizon_s=600.0)
    engine = SLOEngine(
        windows,
        default_serving_slos(
            availability_target=0.95,
            latency_threshold_s=1.0,
            latency_target=0.95,
            pairs=DRILL_PAIRS,
            soundness_pairs=(DRILL_PAIRS[0],),
        ),
    )
    alerts = AlertManager(clock, registry=telemetry.registry)
    storm_trips, recovery_trips = _split_trips(workload.trips)
    rng = random.Random(config.seed)
    incidents = IncidentStream(workload.network, seed=config.seed)
    # The oracle replays the drill's one epoch bump on a manager of its
    # own, so each served table is graded at the epoch it was served
    # under: everything resolved before storm onset at the first epoch,
    # everything after it at the second.
    oracle_epochs = GraphEpochManager(workload.network)
    oracle = ChargingEnvironment(workload.network, workload.registry, seed=config.seed)
    oracle.set_epochs(oracle_epochs)
    soundness: Counter = Counter()
    unsound: list[str] = []
    calm: list = []

    timeline: list[dict] = []
    floor_history: list[int] = []
    eval_tick = 0
    next_service_s = SERVICE_INTERVAL_S
    next_eval_s = EVAL_INTERVAL_S
    incidents_applied = 0

    def advance_to(target_s: float) -> None:
        delta = target_s - clock.monotonic()
        if delta > 0:
            clock.advance(delta)

    def evaluate_once() -> None:
        nonlocal eval_tick
        eval_tick += 1
        if eval_tick in DRILL_TICKS:
            telemetry.inc("ecocharge_unsound_tables_total")
        windows.sample()
        signals = engine.evaluate()
        alerts.update(signals)
        floor = scheduler.apply_alert_state(alerts)
        floor_history.append(int(floor))
        firing = sorted(name for name, _severity in alerts.firing())
        if not timeline or timeline[-1]["firing"] != firing or timeline[-1]["floor"] != int(floor):
            timeline.append(
                {
                    "tick": eval_tick,
                    "t": round(clock.monotonic(), 6),
                    "firing": firing,
                    "floor": int(floor),
                    "pending": scheduler.pending,
                }
            )

    def pump(now_s: float) -> None:
        """Fire every service/eval tick due at-or-before ``now_s`` in
        time order (service wins ties so the eval sees its results)."""
        nonlocal next_service_s, next_eval_s
        while min(next_service_s, next_eval_s) <= now_s:
            if next_service_s <= next_eval_s:
                advance_to(next_service_s)
                for shard_id in range(len(scheduler.shards)):
                    scheduler.run_one(shard_id)
                next_service_s += SERVICE_INTERVAL_S
            else:
                advance_to(next_eval_s)
                evaluate_once()
                next_eval_s += EVAL_INTERVAL_S

    phase_end_s = 0.0
    for phase in PHASES:
        phase_end_s += phase.duration_s
        if phase.name == "storm":
            # The live graph moves at storm onset: one incident batch
            # bumps the epoch so in-flight admission-epoch answers serve
            # epoch-degraded (widened) rather than silently stale.
            calm = scheduler.drain_responses()
            unsound += oracle_violations(oracle, calm, scheduler.ranker_config, soundness)
            batch = incidents.next_batch(3)
            epochs.apply(batch)
            oracle_epochs.apply(batch)
            incidents_applied += len(batch)
        trips = storm_trips if phase.surge else recovery_trips
        if phase.name == "calm":
            trips = storm_trips
        while True:
            now_s = clock.monotonic()
            if now_s >= phase_end_s:
                break
            rate = phase.arrival_rate_per_s
            if scheduler.injector is not None:
                rate *= scheduler.injector.burst_factor(now_s)
            gap_s = rng.expovariate(rate)
            if now_s + gap_s >= phase_end_s:
                pump(phase_end_s)
                advance_to(phase_end_s)
                break
            pump(now_s + gap_s)
            advance_to(now_s + gap_s)
            scheduler.submit(
                tenant=_tenant_for(rng, phase),
                trip=trips[rng.randrange(len(trips))],
                priority=_priority_for(rng),
            )

    # Drain the queues, then keep evaluating until every alert that
    # fired has resolved (bounded by the drain deadline).
    while scheduler.pending and clock.monotonic() < DRAIN_DEADLINE_S:
        pump(min(next_service_s, next_eval_s))
    while clock.monotonic() < DRAIN_DEADLINE_S and any(
        status.state in ("pending", "firing") for status in alerts.statuses()
    ):
        pump(min(next_service_s, next_eval_s))

    storm = scheduler.drain_responses()
    unsound += oracle_violations(oracle, storm, scheduler.ranker_config, soundness)
    return _grade(
        scheduler,
        telemetry,
        sampler,
        alerts,
        calm + storm,
        timeline,
        floor_history,
        incidents_applied,
        soundness,
        unsound,
    )


def _must_keep_correlation_ids(responses) -> set[str]:
    """Correlation IDs of every *executed* response the tail sampler is
    contractually required to retain (error, deadline shed at a
    checkpoint, or any degraded serve)."""
    ids: set[str] = set()
    for response in responses:
        executed_deadline = (
            response.outcome is Outcome.SHED_DEADLINE and response.detail != ""
        )
        degraded_serve = response.outcome.is_served and (
            response.outcome is Outcome.STALE
            or response.widened
            or response.epoch_degraded
            or response.brownout > 0
        )
        if response.outcome is Outcome.FAILED or executed_deadline or degraded_serve:
            ids.add(trip_correlation_id(response.request.trip))
    return ids


def _grade(
    scheduler: ShardedScheduler,
    telemetry: Telemetry,
    sampler: TailSampler,
    alerts: AlertManager,
    responses,
    timeline: list[dict],
    floor_history: list[int],
    incidents_applied: int,
    soundness: Counter,
    unsound: list[str],
) -> dict:
    registry = telemetry.registry
    problems: list[str] = []

    # -- accounting (same bar as the serving report) --------------------
    outcomes: dict[str, int] = {}
    for response in responses:
        outcomes[response.outcome.value] = outcomes.get(response.outcome.value, 0) + 1
    problems.extend(outcome_drift(registry, outcomes))
    if not scheduler.accounting_ok():
        problems.append("scheduler accounting not exact")

    # -- alert lifecycle ------------------------------------------------
    states = alerts.states()
    fired = sorted(
        status.name for status in alerts.statuses() if status.ever_fired
    )
    unresolved = sorted(
        status.name
        for status in alerts.statuses()
        if status.state in ("pending", "firing")
    )
    for required in (
        "serving-availability:page",
        "serving-availability:ticket",
        "serving-latency:page",
        "interval-soundness:page",
    ):
        if required not in fired:
            problems.append(f"alert {required} never fired during the storm")
    if unresolved:
        problems.append(f"alerts still active after recovery: {unresolved}")
    storm_start = PHASES[0].duration_s
    storm_end = storm_start + PHASES[1].duration_s
    fire_ts: dict[str, float] = {}
    for entry in alerts.transitions:
        if entry["to"] == "firing" and entry["alert"] not in fire_ts:
            fire_ts[entry["alert"]] = entry["t"]
    availability_fired_t = fire_ts.get("serving-availability:page")
    if availability_fired_t is None or not (
        storm_start <= availability_fired_t <= storm_end + DRILL_PAIRS[0].short_s
    ):
        problems.append(
            f"availability page fired at {availability_fired_t}, outside the storm"
        )
    resolve_ts = [
        entry["t"]
        for entry in alerts.transitions
        if entry["to"] == "resolved" and entry["alert"] == "serving-availability:page"
    ]
    if not resolve_ts or resolve_ts[0] <= storm_end:
        problems.append("availability page did not resolve after the storm")

    # -- alert-driven brownout floor ------------------------------------
    if max(floor_history, default=0) < 1:
        problems.append("firing pages never raised the brownout floor")
    if floor_history and floor_history[-1] != 0:
        problems.append("brownout floor did not return to NORMAL")

    # -- tail-sampling retention invariants -----------------------------
    retained = retained_trace_ids(telemetry.tracer.traces)
    must_ids = _must_keep_correlation_ids(responses)
    missing = sorted(must_ids - retained)
    if missing:
        problems.append(f"must-keep traces evicted or dropped: {missing[:5]}")
    ring_must_keep = sum(
        1
        for trace in telemetry.tracer.traces
        if trace.attributes.get(REASON_ATTRIBUTE) in MUST_KEEP_REASONS
    )
    if ring_must_keep != sampler.stats.must_keep_total():
        problems.append(
            f"must-keep accounting drifted: ring={ring_must_keep} "
            f"stats={sampler.stats.must_keep_total()}"
        )

    # -- exemplars ------------------------------------------------------
    exemplars = collect_exemplars(registry, retained)
    if not exemplars:
        problems.append("no histogram exemplar points at a retained trace")

    # -- tenant-label cardinality guard ---------------------------------
    family = registry.get("ecocharge_tenant_requests_total")
    admitted = sorted(family.admitted_values("tenant")) if family else []
    expected_admitted: list[str] = []
    expected_overflow = 0
    for response in responses:
        tenant = response.request.tenant
        if tenant in expected_admitted:
            continue
        if len(expected_admitted) < TENANT_LABEL_LIMIT:
            expected_admitted.append(tenant)
        else:
            expected_overflow += 1
    overflow = registry.sample_value(
        OVERFLOW_COUNTER,
        {"label": "tenant", "metric": "ecocharge_tenant_requests_total"},
    )
    if admitted != sorted(expected_admitted):
        problems.append(
            f"tenant guard admitted {admitted}, expected {sorted(expected_admitted)}"
        )
    if (overflow or 0.0) != float(expected_overflow):
        problems.append(
            f"tenant overflow counted {overflow}, expected {expected_overflow}"
        )
    tenant_total = 0.0
    if family is not None:
        for _key, child in family.children():
            tenant_total += child.value
    if tenant_total != float(len(responses)):
        problems.append(
            f"tenant family total {tenant_total} != responses {len(responses)}"
        )

    # -- interval-soundness audit (the real one) ------------------------
    problems.extend(unsound)
    drill_events = registry.sample_value("ecocharge_unsound_tables_total", {}) or 0.0
    if drill_events != float(len(DRILL_TICKS)):
        problems.append(
            f"soundness drill injected {drill_events}, expected {len(DRILL_TICKS)}"
        )

    retained_summary = [
        {
            "trace_id": trace.trace_id,
            "reason": trace.attributes.get(REASON_ATTRIBUTE, ""),
            "duration_s": round(trace.duration_s, 6),
        }
        for trace in telemetry.tracer.traces
    ]
    return {
        "alerts": {
            "fired": fired,
            "final_states": dict(sorted(states.items())),
            "transitions": [
                {**entry, "t": round(entry["t"], 6)} for entry in alerts.transitions
            ],
        },
        "timeline": timeline,
        "brownout_floor": {
            "peak": max(floor_history, default=0),
            "final": floor_history[-1] if floor_history else 0,
        },
        "outcomes": dict(sorted(outcomes.items())),
        "requests": len(responses),
        "incidents_applied": incidents_applied,
        "sampling": {
            **sampler.stats.as_dict(),
            "retained": retained_summary,
            "ring_size": len(telemetry.tracer.traces),
            "ring_bound": 48,
        },
        "exemplars": {
            "count": len(exemplars),
            "metrics": sorted({e["metric"] for e in exemplars}),
        },
        "cardinality": {
            "limit": TENANT_LABEL_LIMIT,
            "admitted": admitted,
            "overflow": int(overflow or 0),
        },
        "soundness": {
            "graded_tables": sum(
                not table.is_adapted for response in responses for table in response.tables
            ),
            "graded_entries": soundness["oracle"],
            "violations": len(unsound),
            "drill": {"ticks": sorted(DRILL_TICKS), "events": int(drill_events)},
        },
        "problems": problems,
        "_registry": registry,
    }


def run_slo(config: HarnessConfig | None = None) -> dict:
    """Run the drill twice, assert bit-determinism, write the artifacts."""
    config = config if config is not None else HarnessConfig()
    smoke = config.dataset_scale < 1.0
    workload = load_workload(
        DATASET,
        scale=min(config.dataset_scale, 0.5),
        environment_seed=config.seed,
    )
    first = _run_storm(workload, config)
    second = _run_storm(workload, config)
    registry = first.pop("_registry")
    second.pop("_registry")
    first_json = canonical_json(first)
    second_json = canonical_json(second)
    deterministic = first_json == second_json
    if not deterministic:
        raise SystemExit("slo: two same-seed storm runs produced different payloads")
    if first["problems"]:
        raise SystemExit("slo: " + "; ".join(first["problems"]))

    exposition = render_prometheus(registry)
    parsed = parse_prometheus(exposition)
    Path.cwd().joinpath(METRICS_EXPORT).write_text(exposition)

    report = {
        "report": "slo",
        "smoke": smoke,
        "dataset": DATASET,
        "phases": [
            {
                "name": phase.name,
                "duration_s": phase.duration_s,
                "arrival_rate_per_s": phase.arrival_rate_per_s,
            }
            for phase in PHASES
        ],
        "pairs": [
            {
                "severity": pair.severity,
                "long_s": pair.long_s,
                "short_s": pair.short_s,
                "threshold": pair.threshold,
                "for_s": pair.for_s,
            }
            for pair in DRILL_PAIRS
        ],
        "determinism": {"identical": deterministic},
        "exposition": {"families": len(parsed), "round_trip": True},
        **first,
    }
    Path.cwd().joinpath(REPORT).write_text(canonical_json(report) + "\n")
    return report


def _format_report(report: dict) -> str:
    alerts = report["alerts"]
    lines = [
        "SLO storm drill — burn-rate alerts over the sharded scheduler",
        f"  requests {report['requests']}, outcomes {report['outcomes']}",
        f"  fired: {', '.join(alerts['fired'])}",
        f"  transitions: {len(alerts['transitions'])}, "
        f"floor peak {report['brownout_floor']['peak']}, "
        f"final {report['brownout_floor']['final']}",
        f"  sampling: kept {report['sampling']['kept']}, "
        f"dropped {report['sampling']['dropped']}, "
        f"evicted {report['sampling']['evicted']}, "
        f"ring {report['sampling']['ring_size']}/{report['sampling']['ring_bound']}",
        f"  cardinality: admitted {len(report['cardinality']['admitted'])}"
        f"/{report['cardinality']['limit']}, "
        f"overflow {report['cardinality']['overflow']}",
        f"  soundness: {report['soundness']['graded_tables']} tables, "
        f"{report['soundness']['graded_entries']} entries graded against "
        f"the oracle, {report['soundness']['violations']} violations "
        f"(drill events {report['soundness']['drill']['events']})",
        f"  determinism: double-run identical = "
        f"{report['determinism']['identical']}",
    ]
    return "\n".join(lines)


def main(config: HarnessConfig | None = None) -> str:
    report = run_slo(config)
    text = _format_report(report)
    print(text)
    return text


if __name__ == "__main__":
    main()
