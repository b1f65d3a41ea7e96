"""Durability experiment: crash replay fidelity on both engines.

Not a figure in the paper, which assumes the serving process never dies;
this driver grades the durability tier's guarantee.  For every dataset
and both distance-engine backends it plays a chaos plan with every named
crash point (:func:`~repro.simulation.chaos.run_chaos`): each trip's
durable session is killed at each point and resumed by a fresh server
from its snapshot and journal tail.  :func:`~repro.simulation.chaos.check`
then demands that every resumed run is bitwise the uninterrupted one,
that torn journal lines were discarded rather than replayed, that the
journal's cache accounting reconciles, and that every served interval
contains the oracle value.

The driver exits non-zero on any violation, which is what the
``recovery-chaos`` CI job keys off.
"""

from __future__ import annotations

from ..resilience import CrashPoint
from ..simulation.chaos import CRASH_POINTS, ChaosPlan, check, run_chaos
from ..trajectories.datasets import DATASET_ORDER
from .harness import HarnessConfig, load_workloads

#: Both shortest-path backends must satisfy the replay guarantee.
ENGINES: tuple[str, ...] = ("dijkstra", "ch")


def main(config: HarnessConfig | None = None) -> str:
    config = config if config is not None else HarnessConfig()
    workloads = load_workloads(DATASET_ORDER, config)
    lines = [
        "Durability — crash-chaos replay fidelity (journal + snapshot resume)",
        "=" * 88,
        (
            f"{'dataset':<12}{'engine':>9}{'crashed':>9}{'recovered':>10}"
            f"{'torn':>6}{'snap':>6}{'replayed':>9}{'diverged':>9}{'violations':>12}"
        ),
        "-" * 88,
    ]
    failures: list[str] = []
    for name in DATASET_ORDER:
        for engine in ENGINES:
            plan = ChaosPlan(
                seed=config.seed,
                trips=min(2, config.trips_per_dataset),
                k=config.k,
                backend=engine,
                crash_points=tuple(CrashPoint(point, at_occurrence=2) for point in CRASH_POINTS),
            )
            run = run_chaos(workloads[name], plan)
            violations = check(workloads[name], run)
            failures += [f"{name}/{engine}: {v}" for v in violations]
            crashed = [r.info for r in run.recoveries if r.info is not None]
            lines.append(
                f"{name:<12}{engine:>9}{len(crashed):>9}"
                f"{len(crashed):>10}"
                f"{sum(info.torn_lines_discarded for info in crashed):>6}"
                f"{sum(info.snapshot_loaded for info in crashed):>6}"
                f"{sum(info.journal_records_replayed for info in crashed):>9}"
                f"{sum(v.startswith('replay') for v in violations):>9}"
                f"{len(violations):>12}"
            )
    lines.append("-" * 88)
    lines.append(
        "diverged = recovered runs whose Offering Tables were not bitwise "
        "identical to an uninterrupted baseline; torn = checksummed journal "
        "lines detected and discarded at recovery.  Resume restores a "
        "snapshot and replays the journal tail, so it only re-ranks the "
        "segments the crash actually lost."
    )
    text = "\n".join(lines)
    print(text)
    if failures:
        print("\nFAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        raise SystemExit(f"durability: {len(failures)} violation(s)")
    return text
