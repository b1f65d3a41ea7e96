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

The driver exits non-zero on any violation, which is what the
``incident-chaos`` CI job keys off.
"""

from __future__ import annotations

from typing import Sequence

from ..simulation.scenarios import IncidentChaosReport, IncidentChaosSpec, run_incident_chaos
from ..trajectories.datasets import DATASET_ORDER
from .harness import HarnessConfig, load_workloads


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
