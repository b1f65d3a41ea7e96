"""Live-graph incidents experiment: epoch-fenced serving under storms.

Not a figure in the paper, which assumes a static road network; this
driver grades the live-graph subsystem's guarantees.  For every dataset
it plays one seeded incident storm (:class:`~repro.resilience.IncidentChaos`)
through :func:`~repro.simulation.chaos.run_chaos` on both
distance-engine backends, and :func:`~repro.simulation.chaos.check`
demands:

* every served interval contains the oracle value at its epoch, and
  every epoch-degraded derouting interval contains the fresh-epoch
  recompute;
* zero fresh-labelled stale serves — a trip's first unwidened serve
  after a weight change is bitwise identical to a cold recompute;
* free no-op bumps — bitwise-identical tables, zero cache invalidations;
* bitwise backend agreement on the final epoch;
* exact accounting: every submission resolved once, and the responses
  delivered equal the per-outcome counts the registry reads from the
  scheduler's stats.

The driver exits non-zero on any violation, which is what the
``incident-chaos`` CI job keys off.
"""

from __future__ import annotations

from collections import Counter

from ..resilience import IncidentChaos
from ..simulation.chaos import ChaosPlan, check, run_chaos
from ..trajectories.datasets import DATASET_ORDER
from .harness import HarnessConfig, load_workloads

#: Both backends replay the same storm.
BACKENDS: tuple[str, ...] = ("dijkstra", "ch")


def main(config: HarnessConfig | None = None) -> str:
    config = config if config is not None else HarnessConfig()
    workloads = load_workloads(DATASET_ORDER, config)
    lines = [
        "Live-graph incidents — epoch-fenced serving through seeded storms "
        "(both engine backends)",
        "=" * 100,
        (
            f"{'dataset':<12}{'epochs':>7}{'weight':>7}{'noop':>5}"
            f"{'incidents':>10}{'served':>7}{'degraded':>9}{'contain':>8}"
            f"{'fresh':>6}{'oracle':>13}{'violations':>12}"
        ),
        "-" * 100,
    ]
    failures: list[str] = []
    for name in DATASET_ORDER:
        # Checks made and checks failed per rule, summed over both backends.
        made: Counter = Counter()
        failed: Counter = Counter()
        for backend in BACKENDS:
            plan = ChaosPlan(
                seed=config.seed,
                trips=min(2, config.trips_per_dataset),
                k=config.k,
                backend=backend,
                incidents=IncidentChaos(seed=config.seed, batches=6, batch_size=2, noop_every=3),
            )
            run = run_chaos(workloads[name], plan)
            for violation in check(workloads[name], run, made):
                failed[violation.split(":")[0]] += 1
                failures.append(f"{name}/{backend}: {violation}")
            made["served"] += sum(r.outcome.is_served for r in run.responses)
            made["degraded"] += run.scheduler.stats.epoch_degraded
        stats = run.scheduler.epochs.stats
        lines.append(
            f"{name:<12}{stats.epochs:>7}{stats.weight_epochs:>7}"
            f"{stats.noop_epochs:>5}{stats.incidents_applied:>10}"
            f"{made['served']:>7}{made['degraded']:>9}"
            f"{made['epoch'] - failed['epoch']:>4}/{made['epoch']:<3}"
            f"{made['fresh'] - failed['fresh']:>3}/{made['fresh']:<2}"
            f"{made['oracle'] - failed['oracle']:>6}/{made['oracle']:<6}"
            f"{sum(failed.values()):>12}"
        )
    lines.append("-" * 100)
    lines.append(
        "contain = epoch-degraded derouting intervals containing the "
        "fresh-epoch recompute; fresh = unwidened serves bitwise-equal to a "
        "cold recompute on the live graph; oracle = served entries whose "
        "intervals contain the oracle values at their epoch; violations "
        "also counts costly no-op bumps, backend disagreement and "
        "inexact accounting."
    )
    text = "\n".join(lines)
    print(text)
    if failures:
        print("\nFAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        raise SystemExit(f"incidents: {len(failures)} violation(s) of the storm proof")
    return text


if __name__ == "__main__":
    main()
