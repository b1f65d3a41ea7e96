"""Serving under overload — the concurrent-tier accounting check.

Drives the :class:`~repro.server.scheduling.ShardedScheduler` with the
:mod:`~repro.simulation.load` generator over a real workload's trips and
writes ``BENCH_serving.json`` (CI smoke: ``BENCH_serving_smoke.json``).

Two checks, both of which exit non-zero on inexact accounting:

* **Deterministic matrix** — load levels x fault scenarios on a
  ``SimulatedClock``.  Every cell reports p50/p99 latency, throughput,
  and the outcome composition (completed / stale / shed / rejected),
  and every cell must reconcile its accounting exactly: requests in ==
  responses out, stats == registry.  This is where the overload story
  is graded — under a 4x burst the tier sheds and degrades instead of
  queueing without bound.  Latencies and rates here are in *modelled*
  service ticks, not wall-clock time; wall-clock serving speed is
  measured by ``bench/`` (the ``serve-gateway`` workload).
* **Threaded liveness** — the same tier on real worker threads: every
  request must resolve and the accounting must stay exact under real
  races.  Only the accounting is reported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..core.ecocharge import EcoChargeConfig
from ..core.environment import ChargingEnvironment
from ..observability.clock import SYSTEM_CLOCK, Clock
from ..observability.recorder import Telemetry
from ..resilience import FaultInjector, OverloadChaos
from ..server.scheduling import SchedulerConfig, ShardedScheduler
from ..simulation.load import LoadProfile, run_load, run_load_threaded
from ..trajectories.datasets import load_workload
from .harness import HarnessConfig

REPORT_FULL = "BENCH_serving.json"
REPORT_SMOKE = "BENCH_serving_smoke.json"

DATASET = "oldenburg"


@dataclass(frozen=True, slots=True)
class LoadLevel:
    """One column of the matrix: how hard the tenants push."""

    name: str
    arrival_rate_per_s: float
    requests: int


@dataclass(frozen=True, slots=True)
class FaultScenario:
    """One row of the matrix: what the injector does to the tier."""

    name: str
    overload: OverloadChaos | None


def load_levels(smoke: bool) -> list[LoadLevel]:
    # The 4-shard tier's service capacity is one request per shard per
    # 0.15 s tick (~26.7/s): "overload" alone saturates it, and the 4x
    # burst window on top is the main chaos condition.
    if smoke:
        return [LoadLevel("overload", arrival_rate_per_s=48.0, requests=32)]
    return [
        LoadLevel("nominal", arrival_rate_per_s=4.0, requests=80),
        LoadLevel("overload", arrival_rate_per_s=48.0, requests=96),
    ]


def fault_scenarios(smoke: bool) -> list[FaultScenario]:
    burst = OverloadChaos(
        burst_multiplier=4.0, burst_start_s=0.2, burst_duration_s=6.0
    )
    chaos = OverloadChaos(
        burst_multiplier=4.0,
        burst_start_s=0.2,
        burst_duration_s=6.0,
        slow_shard=1,
        slow_delay_s=0.3,
        stuck_shard=2,
        stuck_after=3,
    )
    if smoke:
        return [FaultScenario("none", None), FaultScenario("burst", burst)]
    return [
        FaultScenario("none", None),
        FaultScenario("burst", burst),
        FaultScenario("chaos", chaos),
    ]


def _scheduler(
    workload,
    telemetry: Telemetry,
    injector: FaultInjector | None,
    config: HarnessConfig,
    scheduler_config: SchedulerConfig | None = None,
) -> ShardedScheduler:
    network, registry, seed = workload.network, workload.registry, config.seed

    def factory() -> ChargingEnvironment:
        return ChargingEnvironment(network, registry, seed=seed)

    return ShardedScheduler(
        factory,
        scheduler_config
        if scheduler_config is not None
        else SchedulerConfig(
            shards=4,
            queue_capacity=8,
            deadline_budget_s=3.0,
            tenant_rate_per_s=8.0,
            tenant_burst=12.0,
        ),
        EcoChargeConfig(k=config.k, segment_km=6.0),
        clock=telemetry.clock,
        telemetry=telemetry,
        injector=injector,
    )


def run_matrix(workload, config: HarnessConfig, smoke: bool) -> dict[str, dict]:
    """The deterministic load x fault grid (one fresh scheduler per cell)."""
    cells: dict[str, dict] = {}
    for level in load_levels(smoke):
        for fault in fault_scenarios(smoke):
            telemetry = Telemetry.simulated(tick_s=0.0)
            injector = (
                FaultInjector(seed=config.seed, overload=fault.overload)
                if fault.overload is not None
                else None
            )
            scheduler = _scheduler(
                workload, telemetry=telemetry, injector=injector, config=config
            )
            report = run_load(
                scheduler,
                workload.trips,
                LoadProfile(
                    requests=level.requests,
                    arrival_rate_per_s=level.arrival_rate_per_s,
                    seed=config.seed,
                ),
            )
            if report.reconciliation or not report.accounting_exact:
                raise SystemExit(
                    f"serving: cell {level.name}/{fault.name} failed to "
                    f"reconcile: {report.reconciliation}"
                )
            cells[f"{level.name}/{fault.name}"] = report.as_dict()
    return cells


def run_threaded_check(
    workload, config: HarnessConfig, smoke: bool, clock: Clock = SYSTEM_CLOCK
) -> dict:
    """Threaded liveness check: accounting only, no timing.

    Capacity knobs are opened wide so every request is admitted; what is
    asserted is that under real thread races every request resolves and
    the accounting stays exact.  Only the accounting fields are returned:
    wall-clock numbers from a GIL-bound thread pool would make the
    report nondeterministic, and ``bench/`` is where speed is measured.
    """
    requests = 12 if smoke else 32
    scheduler = _scheduler(
        workload,
        # A disabled recorder with its *own* registry (never the shared
        # no-op singleton) so threaded workers stay off the lock-free
        # metrics path entirely.
        telemetry=Telemetry(clock, enabled=False),
        injector=None,
        config=config,
        scheduler_config=SchedulerConfig(
            shards=4,
            queue_capacity=max(16, requests),
            max_inflight=4 * requests,
            deadline_budget_s=300.0,
            tenant_rate_per_s=10_000.0,
            tenant_burst=4.0 * requests,
        ),
    )
    report = run_load_threaded(
        scheduler, workload.trips, LoadProfile(requests=requests, seed=config.seed)
    )
    if not report.accounting_exact or report.reconciliation:
        raise SystemExit(
            f"serving: threaded run failed to reconcile: {report.reconciliation}"
        )
    summary = report.as_dict()
    return {
        key: summary[key]
        for key in (
            "requests", "outcomes", "served", "shed", "accounting_exact", "reconciliation"
        )
    }


def run_serving(
    config: HarnessConfig | None = None, clock: Clock = SYSTEM_CLOCK
) -> dict:
    """Run the matrix and the threaded check, and write the JSON report."""
    config = config if config is not None else HarnessConfig()
    smoke = config.dataset_scale < 1.0
    workload = load_workload(
        DATASET,
        scale=min(config.dataset_scale, 0.5),
        environment_seed=config.seed,
    )
    matrix = run_matrix(workload, config, smoke)
    threaded = run_threaded_check(workload, config, smoke, clock=clock)
    path = Path.cwd() / (REPORT_SMOKE if smoke else REPORT_FULL)
    report = {
        "report": "serving",
        "smoke": smoke,
        "dataset": DATASET,
        "matrix": matrix,
        "threaded": threaded,
    }
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def _format_report(report: dict) -> str:
    lines = [
        "Serving under overload — sharded scheduler, admission + brownout "
        "(modelled service ticks)",
        f"  {'cell':<20} {'p50':>8} {'p99':>8} {'served':>7} "
        f"{'stale':>6} {'shed':>5} {'widened':>8}",
    ]
    for name, cell in sorted(report["matrix"].items()):
        lines.append(
            f"  {name:<20} {cell['p50_latency_s']*1000:>6.0f}ms "
            f"{cell['p99_latency_s']*1000:>6.0f}ms {cell['served']:>7} "
            f"{cell['outcomes'].get('stale', 0):>6} {cell['shed']:>5} "
            f"{cell['widened']:>8}"
        )
    threaded = report["threaded"]
    lines.append(
        f"  threaded check      {threaded['served']}/{threaded['requests']} "
        f"served, accounting exact={threaded['accounting_exact']}"
    )
    return "\n".join(lines)


def main(config: HarnessConfig | None = None) -> str:
    report = run_serving(config)
    text = _format_report(report)
    print(text)
    return text


if __name__ == "__main__":
    main()
