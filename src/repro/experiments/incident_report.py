"""Live-graph incidents experiment: epoch-fenced serving under storms.

Not a figure in the paper, which assumes a static road network; this
driver grades the live-graph subsystem's guarantees.  For every dataset
it runs the seeded incident-chaos scenario
(:func:`~repro.simulation.scenarios.run_incident_chaos`) on both
distance-engine backends and demands:

* 100% interval soundness — every epoch-degraded Offering Table's
  derouting interval contains the fresh-epoch recompute;
* zero fresh-labelled stale serves — every serve not flagged degraded
  is bitwise identical to a cold recompute on the live graph;
* free no-op bumps — bitwise-identical tables, zero cache invalidations;
* bitwise backend agreement on the final epoch;
* exact accounting: every submission resolved once, and the responses
  delivered equal the per-outcome counts the registry reads from the
  scheduler's stats.

It also wall-clock-times the **epoch swap** — the incremental CH
re-customization sweep after an incident fences the engine — and appends
the measurement to the ``BENCH_serving.json`` history, alongside the
serving benchmark's scaling headline.

The driver exits non-zero on any violation, which is what the
``incident-chaos`` CI job keys off.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from ..core.ecocharge import EcoChargeConfig
from ..core.environment import ChargingEnvironment
from ..network.epochs import GraphEpochManager, IncidentStream
from ..observability.clock import SYSTEM_CLOCK, Clock, iso_utc
from ..observability.recorder import Telemetry
from ..server.eis import EcoChargeInformationServer
from ..simulation.scenarios import IncidentChaosReport, IncidentChaosSpec, run_incident_chaos
from ..trajectories.datasets import DATASET_ORDER
from .harness import HarnessConfig, load_workloads
from .serving_report import HISTORY_LIMIT, REPORT_FULL


def measure_epoch_swap(
    workload, config: HarnessConfig, clock: Clock = SYSTEM_CLOCK
) -> float:
    """Mean wall-clock seconds of the post-incident re-customization sweep.

    Warm a CH customisation, land a real incident batch, and re-rank: the
    first customisation sweep after the fence is the epoch swap, and the
    engine reports its latency (``last_recustomize_s``).
    """
    samples: list[float] = []
    eco = EcoChargeConfig(k=config.k, engine="ch")
    trip = workload.trips[0]
    for rep in range(config.repetitions):
        telemetry = Telemetry(clock)
        environment = ChargingEnvironment(
            workload.network, workload.registry, seed=config.seed
        )
        environment.set_telemetry(telemetry)
        manager = GraphEpochManager(workload.network)
        environment.set_epochs(manager)
        server = EcoChargeInformationServer(environment)
        server.rank_trip(trip, eco)  # warm: builds + customises the CH
        stream = IncidentStream(workload.network, seed=config.seed + rep)
        manager.apply(stream.next_batch(3))
        server.rank_trip(trip, eco)  # fenced: incremental re-customization
        samples.append(environment.engine.last_recustomize_s or 0.0)
    return sum(samples) / len(samples)


def record_epoch_swap_history(
    epoch_swap_s: float, clock: Clock = SYSTEM_CLOCK, path: Path | None = None
) -> Path:
    """Append the epoch-swap measurement to ``BENCH_serving.json``'s history.

    The serving benchmark owns the file; this driver only merges one more
    history entry (same ``at``/``at_iso`` shape, capped at the same
    :data:`~repro.experiments.serving_report.HISTORY_LIMIT`), so trend
    tooling sees swap latency next to the scaling headline.
    """
    path = path if path is not None else Path.cwd() / REPORT_FULL
    report: dict = {}
    if path.exists():
        try:
            report = json.loads(path.read_text())
        except (OSError, ValueError):
            report = {}
    if not isinstance(report, dict):
        report = {}
    history = [h for h in report.get("history", []) if isinstance(h, dict)]
    now_s = clock.now()
    history.append(
        {"at": now_s, "at_iso": iso_utc(now_s), "epoch_swap_s": round(epoch_swap_s, 6)}
    )
    report["history"] = history[-HISTORY_LIMIT:]
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def run_incidents(
    config: HarnessConfig | None = None,
    datasets: Sequence[str] = DATASET_ORDER,
) -> list[tuple[str, IncidentChaosReport]]:
    """Incident-chaos every dataset (both backends inside each run)."""
    config = config if config is not None else HarnessConfig()
    workloads = load_workloads(datasets, config)
    rows: list[tuple[str, IncidentChaosReport]] = []
    for name in datasets:
        spec = IncidentChaosSpec(
            fleet_size=min(2, config.trips_per_dataset),
            k=config.k,
            seed=config.seed,
        )
        rows.append((name, run_incident_chaos(workloads[name], spec)))
    return rows


def main(config: HarnessConfig | None = None) -> str:
    config = config if config is not None else HarnessConfig()
    rows = run_incidents(config)
    lines = [
        "Live-graph incidents — epoch-fenced serving through seeded storms "
        "(both engine backends)",
        "=" * 100,
        (
            f"{'dataset':<12}{'epochs':>7}{'weight':>7}{'noop':>5}"
            f"{'incidents':>10}{'served':>7}{'degraded':>9}{'contain':>8}"
            f"{'fresh':>6}{'books':>7}{'sound':>7}{'clean':>7}"
        ),
        "-" * 100,
    ]
    violations = 0
    swap_s = measure_epoch_swap(load_workloads([DATASET_ORDER[0]], config)[DATASET_ORDER[0]], config)
    for name, report in rows:
        if not report.completed_cleanly:
            violations += 1
        lines.append(
            f"{name:<12}{report.epochs_applied:>7}{report.weight_epochs:>7}"
            f"{report.noop_epochs:>5}{report.incidents_applied:>10}"
            f"{report.served:>7}{report.epoch_degraded_served:>9}"
            f"{report.containment_checks - report.containment_violations:>4}"
            f"/{report.containment_checks:<3}"
            f"{report.fresh_checks - report.fresh_divergences:>3}"
            f"/{report.fresh_checks:<2}"
            f"{'ok' if report.accounting_failures == 0 and not report.reconciliation else 'NO':>7}"
            f"{'yes' if report.sound else 'NO':>7}"
            f"{'yes' if report.completed_cleanly else 'NO':>7}"
        )
    lines.append("-" * 100)
    path = record_epoch_swap_history(swap_s)
    lines.append(
        f"epoch swap (post-incident CH re-customization): {swap_s * 1e3:.1f} ms "
        f"mean over {config.repetitions} reps — appended to {path.name} history"
    )
    lines.append(
        "contain = epoch-degraded derouting intervals containing the "
        "fresh-epoch recompute; fresh = unwidened serves bitwise-equal to a "
        "cold recompute on the live graph; clean additionally demands free "
        "no-op bumps, bitwise backend agreement, and exact accounting."
    )
    text = "\n".join(lines)
    print(text)
    if violations:
        raise SystemExit(f"incidents: {violations} dataset(s) failed the storm proof")
    return text


if __name__ == "__main__":
    main()
