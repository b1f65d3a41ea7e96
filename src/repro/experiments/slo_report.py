"""SLO storm drill — burn-rate alerting exercised end to end.

The drill is one :class:`~repro.simulation.chaos.ChaosPlan` with an
overload axis: a calm → storm → recovery load (a 4x burst, a slow shard
and surge tenants in the storm, a fresh trip pool in recovery) with one
live-graph incident batch at storm onset, on a 2-shard scheduler with
``alert_driven_brownout`` on.  :func:`~repro.simulation.chaos.run_chaos`
plays it, and its per-tick callback grades the observability chain
built on top of the run:

* the :class:`~repro.observability.WindowedAggregator` samples the
  registry once per simulated second;
* the :class:`~repro.observability.SLOEngine` evaluates the serving
  objectives (availability of served-fresh, p99-style latency buckets,
  zero unsound tables) with multi-window multi-burn-rate pairs scaled
  down from the SRE-workbook defaults so the storm measured in
  simulated *seconds* walks the same machinery as an hours-long page;
* the :class:`~repro.observability.AlertManager` walks each alert
  through pending → firing → resolved and the scheduler consumes the
  firing set as a brownout floor;
* the :class:`~repro.observability.TailSampler` decides trace
  retention, and the drill asserts every error / deadline-shed /
  degraded-serve trace survived the storm.

:func:`~repro.simulation.chaos.check` grades the run itself: every
served, stale or widened table by oracle containment at the epoch it
was served under (``oracle``, ``epoch``, ``fresh``), and every shed or
rejected request by exact accounting (``books``).  A mid-storm
*soundness drill* injects three synthetic
``ecocharge_unsound_tables_total`` events (clearly labelled in the
payload) so the zero-budget objective demonstrably pages and resolves.

The drill runs **twice**; the artifact is only written after the two
payloads canonicalise byte-identically.  Artifacts: ``OBS_slo.json``
(deterministic, no timestamps) and a regenerated ``OBS_metrics.prom``
exposition that must round-trip through
:func:`~repro.observability.parse_prometheus`.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from ..core.ecocharge import EcoChargeConfig
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
from ..observability.sampling import REASON_ATTRIBUTE
from ..resilience import IncidentChaos, OverloadChaos
from ..server.scheduling import Outcome, SchedulerConfig, ShardedScheduler
from ..simulation.chaos import ChaosPlan, ChaosRun, check, run_chaos
from ..simulation.load import TENANTS, LoadProfile, Phase
from ..trajectories.datasets import Workload, load_workload
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

#: The storm's tenants: eight surge tenants on top of the fleet's four,
#: so the ``tenant`` label guard (limit 8) demonstrably trips and
#: buckets the tail into ``__other__``.
STORM_TENANTS = TENANTS + 8

PHASE_NAMES = ("calm", "storm", "recovery")
CALM_S, STORM_S, RECOVERY_S = 15.0, 15.0, 45.0

#: Bound of the tracer's trace ring.
RING_BOUND = 48

SCHEDULER = SchedulerConfig(
    shards=2,
    queue_capacity=8,
    deadline_budget_s=2.0,
    tenant_rate_per_s=8.0,
    tenant_burst=12.0,
    alert_driven_brownout=True,
)


def drill_plan(workload: Workload, config: HarnessConfig) -> ChaosPlan:
    """The drill as a chaos plan.

    The recovery phase draws from a trip pool disjoint from the storm's,
    so post-storm traffic misses the response cache: under the
    alert-driven brownout floor the tier computes *fresh* answers, the
    availability burn decays, and the alerts genuinely resolve instead
    of feeding back (stale serves count against served-fresh
    availability).
    """
    count = len(workload.trips)
    if count < 2:
        raise SystemExit("slo: the drill needs at least two workload trips")
    storm_trips, recovery_trips = range(count // 2), range(count // 2, count)
    return ChaosPlan(
        seed=config.seed,
        trips=count,
        k=config.k,
        radius_km=EcoChargeConfig().radius_km,
        # The live graph moves at storm onset: in-flight admission-epoch
        # answers serve epoch-degraded (widened) rather than silently stale.
        incidents=IncidentChaos(seed=config.seed, batches=1, batch_size=3, noop_every=0),
        load=LoadProfile(
            phases=(
                Phase(CALM_S, arrival_rate_per_s=2.0, trips=storm_trips),
                Phase(STORM_S, arrival_rate_per_s=4.0, tenants=STORM_TENANTS, trips=storm_trips),
                Phase(RECOVERY_S, arrival_rate_per_s=2.0, trips=recovery_trips),
            ),
            service_interval_s=0.5,
        ),
        overload=OverloadChaos(
            burst_multiplier=4.0,
            burst_start_s=CALM_S,
            burst_duration_s=STORM_S,
            slow_shard=1,
            slow_delay_s=0.2,
        ),
        scheduler=SCHEDULER,
    )


def _run_storm(workload: Workload, plan: ChaosPlan) -> tuple[dict, ChaosRun]:
    """One full drill on a fresh scheduler: the (deterministic) payload
    the artifact is built from, and the run."""
    sampler = TailSampler(SamplingPolicy(slow_k=3, slow_window_s=5.0, sample_rate=0.15))
    telemetry = Telemetry.simulated(tick_s=0.0, max_traces=RING_BOUND, sampler=sampler)
    clock = telemetry.clock
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
    timeline: list[dict] = []
    floor_history: list[int] = []

    def evaluate(scheduler: ShardedScheduler) -> bool:
        """One evaluation tick; True while an alert is pending or firing."""
        tick = len(floor_history) + 1
        if tick in DRILL_TICKS:
            telemetry.inc("ecocharge_unsound_tables_total")
        windows.sample()
        alerts.update(engine.evaluate())
        floor = int(scheduler.apply_alert_state(alerts))
        floor_history.append(floor)
        firing = sorted(name for name, _severity in alerts.firing())
        if not timeline or (timeline[-1]["firing"], timeline[-1]["floor"]) != (firing, floor):
            timeline.append(
                {
                    "tick": tick,
                    "t": round(clock.monotonic(), 6),
                    "firing": firing,
                    "floor": floor,
                    "pending": scheduler.pending,
                }
            )
        return any(status.state in ("pending", "firing") for status in alerts.statuses())

    run = run_chaos(workload, plan, telemetry=telemetry, on_tick=evaluate)
    return _grade(run, sampler, alerts, timeline, floor_history), run


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
    run: ChaosRun,
    sampler: TailSampler,
    alerts: AlertManager,
    timeline: list[dict],
    floor_history: list[int],
) -> dict:
    """The drill's own checks on the observability chain (the run itself
    is graded by :func:`~repro.simulation.chaos.check`)."""
    telemetry = run.scheduler.telemetry
    registry = telemetry.registry
    responses = run.responses
    problems: list[str] = []

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
    storm_start = CALM_S
    storm_end = storm_start + STORM_S
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

    # -- the soundness drill --------------------------------------------
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
        "outcomes": dict(sorted(Counter(r.outcome.value for r in responses).items())),
        "requests": len(responses),
        "incidents_applied": sum(len(wave.batch or ()) for wave in run.waves),
        "sampling": {
            **sampler.stats.as_dict(),
            "retained": retained_summary,
            "ring_size": len(telemetry.tracer.traces),
            "ring_bound": RING_BOUND,
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
            "drill": {"ticks": sorted(DRILL_TICKS), "events": int(drill_events)},
        },
        "problems": problems,
    }


def run_slo(config: HarnessConfig | None = None) -> dict:
    """Run the drill twice, assert bit-determinism, grade the run with
    the checker, and write the artifacts."""
    config = config if config is not None else HarnessConfig()
    smoke = config.dataset_scale < 1.0
    workload = load_workload(
        DATASET,
        scale=min(config.dataset_scale, 0.5),
        environment_seed=config.seed,
    )
    plan = drill_plan(workload, config)
    first, run = _run_storm(workload, plan)
    second, _ = _run_storm(workload, plan)
    if canonical_json(first) != canonical_json(second):
        raise SystemExit("slo: two same-seed storm runs produced different payloads")
    tally: Counter = Counter()
    violations = check(workload, run, tally)
    problems = first["problems"] + violations
    if problems:
        raise SystemExit("slo: " + "; ".join(problems))

    exposition = render_prometheus(run.scheduler.telemetry.registry)
    parsed = parse_prometheus(exposition)
    Path.cwd().joinpath(METRICS_EXPORT).write_text(exposition)

    first["soundness"] |= {"graded_entries": tally["oracle"], "violations": len(violations)}
    report = {
        "report": "slo",
        "smoke": smoke,
        "dataset": DATASET,
        "phases": [
            {
                "name": name,
                "duration_s": phase.duration_s,
                "arrival_rate_per_s": phase.arrival_rate_per_s,
            }
            for name, phase in zip(PHASE_NAMES, plan.load.phases)
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
        "checked": {rule: tally[rule] for rule in sorted(tally) if rule != "true_sc"},
        "determinism": {"identical": True},
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
        f"  checked: {report['checked']}",
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
