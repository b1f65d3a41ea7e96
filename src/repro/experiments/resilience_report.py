"""Ranking quality versus upstream fault rate (robustness experiment).

Not a figure in the paper, which assumes providers always answer; this
driver quantifies the serving story's missing half: as transient provider
failures climb from 0 % to 50 %, the serve-gateway stack (the sharded
scheduler over fault-tolerant shards) keeps answering every continuous
query through the degradation ladder, the delivered Offering Tables stay
*interval-sound* (the oracle component value lies inside every served
interval — the whole point of widening instead of guessing), and the
ground-truth SC of the selections decays gracefully instead of
collapsing.  One more row per dataset combines 30 % faults with an
incident storm.  Every row is a :class:`~repro.simulation.chaos.ChaosPlan`
graded by :func:`~repro.simulation.chaos.check`; any violation raises
``SystemExit`` so a CI job can gate on the driver.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

from ..core.ecocharge import EcoChargeConfig
from ..resilience import FaultProfile, IncidentChaos
from ..simulation.chaos import ChaosPlan, check, run_chaos
from ..trajectories.datasets import DATASET_ORDER
from .harness import HarnessConfig, load_workloads
from .metrics import sc_percent

#: Transient per-call failure probabilities swept by the experiment.
DEFAULT_ERROR_RATES: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.5)

#: The fault rate of the combined row (faults plus an incident storm).
COMBINED_ERROR_RATE = 0.3


def _plans(config: HarnessConfig) -> list[ChaosPlan]:
    base = ChaosPlan(
        seed=config.seed,
        trips=config.trips_per_dataset,
        k=config.k,
        radius_km=EcoChargeConfig().radius_km,
    )
    return [replace(base, faults=FaultProfile(error_rate=rate)) for rate in DEFAULT_ERROR_RATES] + [
        replace(
            base,
            faults=FaultProfile(error_rate=COMBINED_ERROR_RATE),
            incidents=IncidentChaos(seed=config.seed),
        )
    ]


def main(config: HarnessConfig | None = None) -> str:
    config = config if config is not None else HarnessConfig()
    workloads = load_workloads(DATASET_ORDER, config)
    lines = [
        "Resilience — ranking quality vs. upstream fault rate on the "
        "serve-gateway stack (graceful degradation under stress)",
        "=" * 100,
        (
            f"{'dataset':<12}{'fault %':>8}{'storm':>6}{'tables':>8}"
            f"{'degraded %':>12}{'breaker':>9}{'true SC':>9}{'SC vs clean %':>15}"
            f"{'sound %':>9}{'violations':>12}"
        ),
        "-" * 100,
    ]
    failures: list[str] = []
    for name in DATASET_ORDER:
        workload = workloads[name]
        clean_sc: float | None = None
        for plan in _plans(config):
            run = run_chaos(workload, plan)
            tally: Counter = Counter()
            violations = check(workload, run, tally)
            where = f"{name} at {plan.faults.error_rate * 100:.0f}% faults" + (
                " and a storm" if plan.incidents else ""
            )
            failures += [f"{where}: {v}" for v in violations]
            tables = {
                (id(r.request.trip), table.segment_index)
                for r in run.responses
                for table in r.tables
            }
            calls = sum(g.health.total_calls for g in run.gateways)
            degraded = sum(g.health.total_degraded for g in run.gateways)
            breaker = sum(
                endpoint.breaker.times_opened
                for g in run.gateways
                for endpoint in g.endpoints.values()
            )
            mean_sc = tally["true_sc"] / tally["oracle"] if tally["oracle"] else 0.0
            if clean_sc is None:
                clean_sc = mean_sc
            unsound = sum(v.startswith("oracle") for v in violations)
            sound = 1.0 - unsound / tally["oracle"] if tally["oracle"] else 1.0
            lines.append(
                f"{name:<12}{plan.faults.error_rate * 100:>7.0f}%"
                f"{'yes' if plan.incidents else '-':>6}{len(tables):>8}"
                f"{degraded / calls * 100 if calls else 0.0:>11.1f}%"
                f"{breaker:>9}{mean_sc:>9.3f}"
                f"{sc_percent(mean_sc, clean_sc):>14.1f}%{sound * 100:>8.1f}%"
                f"{len(violations):>12}"
            )
    lines.append("-" * 100)
    lines.append(
        "tables = distinct (trip, segment) tables served; true SC and sound % "
        "= oracle grading of every entry of every non-adapted served table "
        "at its epoch (adapted tables reuse earlier-segment intervals by "
        "design); the ladder widens intervals instead of guessing, so "
        "degraded answers stay correct — just less precise.  violations "
        "also counts unserved requests and unreconciled books."
    )
    text = "\n".join(lines)
    print(text)
    if failures:
        print("\nFAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        raise SystemExit(1)
    return text
