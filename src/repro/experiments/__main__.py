"""Command-line entry point: regenerate the paper's figures.

Usage::

    python -m repro.experiments figure6 [--trips N] [--reps N] [--scale F]
    python -m repro.experiments all --reps 10        # the full protocol
    ecocharge-experiments figure9                    # installed script
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from . import (
    durability_report,
    figure6,
    figure7,
    figure8,
    figure9,
    incident_report,
    modes_report,
    observability_report,
    resilience_report,
    serving_report,
    slo_report,
)
from .harness import HarnessConfig

_DRIVERS: dict[str, Callable[[HarnessConfig], str]] = {
    "durability": durability_report.main,
    "figure6": figure6.main,
    "figure7": figure7.main,
    "figure8": figure8.main,
    "figure9": figure9.main,
    "incidents": incident_report.main,
    "modes": modes_report.main,
    "observability": observability_report.main,
    "resilience": resilience_report.main,
    "serving": serving_report.main,
    "slo": slo_report.main,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate the EcoCharge paper's evaluation figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_DRIVERS) + ["all"],
        help="which figure to regenerate ('all' runs every one)",
    )
    parser.add_argument(
        "--trips", type=int, default=4, help="trips sampled per dataset (default 4)"
    )
    parser.add_argument(
        "--reps", type=int, default=3, help="repetitions; the paper uses ~10 (default 3)"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale factor for charger/trajectory counts (default 1.0)",
    )
    parser.add_argument("--k", type=int, default=5, help="top-k table size (default 5)")
    parser.add_argument("--seed", type=int, default=0, help="harness seed (default 0)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config = HarnessConfig(
        trips_per_dataset=args.trips,
        repetitions=args.reps,
        k=args.k,
        dataset_scale=args.scale,
        seed=args.seed,
    )
    names = sorted(_DRIVERS) if args.experiment == "all" else [args.experiment]
    for name in names:
        _DRIVERS[name](config)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
