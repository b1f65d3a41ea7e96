"""Serving under overload — chaos plans graded by the one checker.

Every cell of the load x fault matrix is a
:class:`~repro.simulation.chaos.ChaosPlan` with an overload axis: a
Poisson load (nominal 4/s, or a saturating 48/s) against no overload
chaos, a 4x burst window, or full chaos (burst + slow shard + stuck
worker), on a 4-shard scheduler with bounded queues.
:func:`~repro.simulation.chaos.check` grades each cell: shed and
rejected requests by exact accounting (``books``), and every served,
stale or widened table by oracle containment (``oracle``).

A threaded run rides along as a liveness check: every request must
resolve and the books must balance under real thread races.

Nothing here is timed: wall-clock serving speed is measured by
``bench/`` (the ``serve-gateway`` workload).  The driver writes no file
and exits non-zero on any violation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

from ..core.ecocharge import EcoChargeConfig
from ..core.environment import ChargingEnvironment
from ..observability.clock import SYSTEM_CLOCK, Clock
from ..observability.recorder import Telemetry
from ..resilience import OverloadChaos
from ..server.scheduling import SchedulerConfig, ShardedScheduler
from ..simulation.chaos import ChaosPlan, check, run_chaos
from ..simulation.load import LoadProfile, Phase, run_load_threaded
from ..trajectories.datasets import Workload, load_workload
from .harness import HarnessConfig

DATASET = "oldenburg"

#: One request per shard per 0.15 s service tick (~26.7/s): the 48/s
#: load alone saturates it, and the 4x burst window on top is the main
#: chaos condition.
SCHEDULER = SchedulerConfig(
    shards=4, queue_capacity=8, deadline_budget_s=3.0, tenant_rate_per_s=8.0, tenant_burst=12.0
)

BURST = OverloadChaos(burst_multiplier=4.0, burst_start_s=0.2, burst_duration_s=6.0)
CHAOS = replace(BURST, slow_shard=1, slow_delay_s=0.3, stuck_shard=2, stuck_after=3)


def plans(workload: Workload, config: HarnessConfig, smoke: bool) -> dict[str, ChaosPlan]:
    """The matrix's cells, by ``load/fault`` name."""
    loads = {"overload": Phase(duration_s=1.0 if smoke else 2.0, arrival_rate_per_s=48.0)}
    faults: dict[str, OverloadChaos | None] = {"none": None, "burst": BURST}
    if not smoke:
        loads = {"nominal": Phase(duration_s=20.0, arrival_rate_per_s=4.0), **loads}
        faults["chaos"] = CHAOS
    base = ChaosPlan(
        seed=config.seed,
        trips=len(workload.trips),
        k=config.k,
        radius_km=EcoChargeConfig().radius_km,
        scheduler=SCHEDULER,
    )
    return {
        f"{load}/{fault}": replace(base, load=LoadProfile(phases=(phase,)), overload=chaos)
        for load, phase in loads.items()
        for fault, chaos in faults.items()
    }


def run_threaded_check(
    workload: Workload, config: HarnessConfig, smoke: bool, clock: Clock = SYSTEM_CLOCK
) -> dict:
    """Threaded liveness check: accounting only, no timing.

    Capacity knobs are opened wide so every request is admitted; what is
    asserted is that under real thread races every request resolves and
    the accounting stays exact.
    """
    requests = 12 if smoke else 32

    def factory() -> ChargingEnvironment:
        return ChargingEnvironment(workload.network, workload.registry, seed=config.seed)

    scheduler = ShardedScheduler(
        factory,
        replace(
            SCHEDULER,
            queue_capacity=max(16, requests),
            max_inflight=4 * requests,
            deadline_budget_s=300.0,
            tenant_rate_per_s=10_000.0,
            tenant_burst=4.0 * requests,
        ),
        EcoChargeConfig(k=config.k),
        clock=clock,
        # A disabled recorder with its *own* registry (never the shared
        # no-op singleton) so threaded workers stay off the lock-free
        # metrics path entirely.
        telemetry=Telemetry(clock, enabled=False),
    )
    responses = run_load_threaded(scheduler, workload.trips, requests, seed=config.seed)
    return {
        "requests": scheduler.stats.submitted,
        "outcomes": dict(sorted(Counter(r.outcome.value for r in responses).items())),
        "served": sum(r.outcome.is_served for r in responses),
        "accounting_exact": scheduler.accounting_ok() and len(responses) == requests,
    }


def run_serving(config: HarnessConfig | None = None, clock: Clock = SYSTEM_CLOCK) -> dict:
    """Run and grade every cell, then the threaded check."""
    config = config if config is not None else HarnessConfig()
    smoke = config.dataset_scale < 1.0
    workload = load_workload(
        DATASET, scale=min(config.dataset_scale, 0.5), environment_seed=config.seed
    )
    cells: dict[str, dict] = {}
    for name, plan in plans(workload, config, smoke).items():
        run = run_chaos(workload, plan)
        tally: Counter = Counter()
        violations = check(workload, run, tally)
        cells[name] = {
            "requests": run.scheduler.stats.submitted,
            "outcomes": dict(sorted(Counter(r.outcome.value for r in run.responses).items())),
            "widened": run.scheduler.stats.widened,
            "oracle": tally["oracle"],
            "violations": violations,
        }
    return {
        "smoke": smoke,
        "dataset": DATASET,
        "cells": cells,
        "threaded": run_threaded_check(workload, config, smoke, clock=clock),
    }


def _format_report(report: dict) -> str:
    lines = [
        "Serving under overload — chaos plans on the sharded scheduler, graded by the checker",
        f"  {'cell':<17}{'requests':>9}{'completed':>10}{'stale':>6}{'shed':>5}"
        f"{'rejected':>9}{'widened':>8}{'oracle':>7}{'violations':>11}",
    ]
    for name, cell in report["cells"].items():
        outcomes = cell["outcomes"]
        shed = sum(count for key, count in outcomes.items() if key.startswith("shed-"))
        rejected = sum(count for key, count in outcomes.items() if key.startswith("rejected-"))
        lines.append(
            f"  {name:<17}{cell['requests']:>9}{outcomes.get('completed', 0):>10}"
            f"{outcomes.get('stale', 0):>6}{shed:>5}{rejected:>9}{cell['widened']:>8}"
            f"{cell['oracle']:>7}{len(cell['violations']):>11}"
        )
    threaded = report["threaded"]
    lines.append(
        f"  threaded check   {threaded['served']}/{threaded['requests']} served, "
        f"accounting exact={threaded['accounting_exact']}"
    )
    return "\n".join(lines)


def main(config: HarnessConfig | None = None) -> str:
    report = run_serving(config)
    text = _format_report(report)
    print(text)
    failures = [
        f"{name}: {v}" for name, cell in report["cells"].items() for v in cell["violations"]
    ]
    threaded = report["threaded"]
    if not threaded["accounting_exact"]:
        failures.append("threaded: books do not reconcile")
    if threaded["served"] != threaded["requests"]:
        failures.append(f"threaded: {threaded['served']}/{threaded['requests']} served")
    if failures:
        print("\nFAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        raise SystemExit(f"serving: {len(failures)} violation(s)")
    return text


if __name__ == "__main__":
    main()
