"""Parent-versus-change comparison over paired runs.

Compare two run files (written by ``bench/run.py --repeat`` or by
``--collect`` below)::

    python -m bench.compare PARENT.json CHANGE.json

Collect alternating pairs from two checkouts, then compare them::

    python -m bench.compare --collect PARENT_DIR CHANGE_DIR --pairs 10 --out-dir DIR

One row per (workload, metric).  Runs are paired by seed, and a verdict
needs at least :data:`MIN_PAIRS` pairs:

* **gain** -- the change wins at least 9 in 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's own
  interquartile range; only claimable when the pairs alternated which
  side ran first;
* **regression** -- the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* **unresolved** -- the parent's spread (IQR over median) exceeds the
  bound, unless every change run beats every parent run;
* **no change** otherwise.

A workload whose ``tables_digest`` differs between the sides for the
same seed is flagged: the change altered the Offering Tables.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.run import ROOT, run_subprocess, write_run_file  # noqa: E402
from bench.stats import quartiles  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_metric_rules(path: Path = ROOT / "BENCHMARK.json") -> dict[str, dict[str, Any]]:
    """``better`` and ``bound`` of every end-to-end metric."""
    spec = json.loads(path.read_text())
    return {entry["name"]: entry for entry in spec["end_to_end"]}


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float, alternated: bool
) -> tuple[str, int]:
    """The rule's verdict for one (workload, metric) and the change's wins."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = len(parent)
    if pairs < MIN_PAIRS:
        return f"too few pairs ({pairs} < {MIN_PAIRS})", wins
    p_q1, p_median, p_q3 = quartiles(parent)
    _, c_median, _ = quartiles(change)
    gain = sign * (c_median - p_median)
    if gain < 0 and -gain > bound * abs(p_median):
        return "regression", wins
    if wins >= WIN_SHARE * pairs and gain > p_q3 - p_q1:
        return ("gain" if alternated else "gain, but pairs did not alternate"), wins
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if p_median and (p_q3 - p_q1) / abs(p_median) > bound and not every_run_better:
        return "unresolved (parent spread exceeds the bound)", wins
    return ("better in every run" if every_run_better else "no change"), wins


def _alternated(pairs: Sequence[tuple[dict[str, Any], dict[str, Any]]]) -> bool:
    """True when consecutive pairs swapped which side ran first."""
    firsts = [parent["started_at"] < change["started_at"] for parent, change in pairs]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def compare(parent_file: Path, change_file: Path) -> int:
    parent_runs = json.loads(parent_file.read_text())["runs"]
    change_runs = json.loads(change_file.read_text())["runs"]
    rules = load_metric_rules()
    worst = 0
    print(
        f"{'workload':<18} {'metric':<18} {'parent median [q1, q3]':>32} "
        f"{'change median [q1, q3]':>32} {'delta':>8} {'wins':>7}  verdict"
    )
    for workload in sorted(set(parent_runs) & set(change_runs)):
        by_seed = {record["seed"]: record for record in change_runs[workload]}
        pairs = [
            (record, by_seed[record["seed"]])
            for record in sorted(parent_runs[workload], key=lambda r: r["seed"])
            if record["seed"] in by_seed
        ]
        alternated = _alternated(pairs)
        for name, rule in rules.items():
            values = [
                (p["metrics"].get(name), c["metrics"].get(name)) for p, c in pairs
            ]
            values = [(p, c) for p, c in values if p is not None and c is not None]
            if not values:
                continue
            parent = [p for p, _ in values]
            change = [c for _, c in values]
            outcome, wins = verdict(parent, change, rule["better"], rule["bound"], alternated)
            if outcome == "regression":
                worst = 1
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            delta = (c_med - p_med) / p_med if p_med else 0.0
            print(
                f"{workload:<18} {name:<18} "
                f"{p_med:>12.5g} [{p_q1:.5g}, {p_q3:.5g}]".ljust(70)
                + f"{c_med:>12.5g} [{c_q1:.5g}, {c_q3:.5g}]".rjust(32)
                + f" {delta:>+8.1%} {wins:>3}/{len(values):<3}  {outcome}"
            )
        mismatched = [p["seed"] for p, c in pairs if p["digest"] != c["digest"]]
        if mismatched:
            worst = 1
            print(f"{workload:<18} DIGEST MISMATCH on seeds {mismatched}: the Offering Tables changed")
        failed = [r["seed"] for pair in pairs for r in pair if not r["correct"]]
        if failed:
            worst = 1
            print(f"{workload:<18} runs with failed output checks on seeds {sorted(set(failed))}")
    return worst


def collect(
    parent_dir: Path,
    change_dir: Path,
    pairs: int,
    seed: int,
    seconds: float,
    workloads: Sequence[str],
    out_dir: Path,
) -> tuple[Path, Path]:
    """Run ``pairs`` seeds on both checkouts, alternating which goes first."""
    runs: dict[str, dict[str, list[dict[str, Any]]]] = {"parent": {}, "change": {}}
    for workload in workloads:
        for i in range(pairs):
            sides = [("parent", parent_dir), ("change", change_dir)]
            if i % 2:
                sides.reverse()
            for side, root in sides:
                record = run_subprocess(root, workload, seed + i, seconds, echo=False)
                runs[side].setdefault(workload, []).append(record)
                print(f"{workload:<18} seed={seed + i:<4} {side:<7} exit={record['exit_code']}", flush=True)
    paths = (out_dir / "PARENT.json", out_dir / "CHANGE.json")
    for path, side in zip(paths, ("parent", "change")):
        write_run_file(path, runs[side], seconds, trace=False, smoke=False)
    return paths


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path, help="PARENT.json CHANGE.json")
    parser.add_argument("--collect", nargs=2, type=Path, metavar=("PARENT_DIR", "CHANGE_DIR"))
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workload", action="append", help="repeatable; default all")
    parser.add_argument("--out-dir", type=Path, default=Path("bench/out"))
    args = parser.parse_args(argv)
    if args.collect:
        from bench.run import DEFAULT_SECONDS, workload_names

        parent_file, change_file = collect(
            args.collect[0].resolve(),
            args.collect[1].resolve(),
            args.pairs,
            args.seed,
            args.seconds or DEFAULT_SECONDS,
            args.workload or workload_names(),
            args.out_dir,
        )
    elif len(args.files) == 2:
        parent_file, change_file = args.files
    else:
        parser.error("give PARENT.json CHANGE.json, or --collect PARENT_DIR CHANGE_DIR")
    return compare(parent_file, change_file)


if __name__ == "__main__":
    sys.exit(main())
