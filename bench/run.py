"""Wall-clock benchmark of the EcoCharge serving stack.

One workload, in this process (the form BENCHMARK.json's command takes)::

    python3 bench/run.py --workload dense-pool --seed 1 --seconds 14 --trace 0

Every workload, each in a process of its own::

    PYTHONPATH=src python -m bench.run [--seed S] [--seconds N] [--trace] [--smoke]

Repeated runs, seeds ``S .. S+N-1``, written to a run file that
``python -m bench.compare`` reads::

    python3 bench/run.py --repeat 5 [--workload W] --out runs.json

A run prints every measurement with its unit and sample count, then the
output checks, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace`` the per-layer ones.  It exits non-zero when
an output check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

#: Default measured seconds per run (BENCHMARK.json ``run_seconds``).
DEFAULT_SECONDS = 14.0
SMOKE_SECONDS = 1.0

#: Trace files land here (ignored by git).
OUT_DIR = BENCH_DIR / "out"

#: One workload run, build included, must end within this.
RUN_TIMEOUT_S = 175.0

#: One report line: name, value, unit, sample count.
_REPORT_LINE = re.compile(r"^  (\S+) +(\S+) +(\S+) +n=(\d+)$", re.MULTILINE)


def workload_names() -> tuple[str, ...]:
    from bench.workloads import WORKLOADS

    return tuple(WORKLOADS)


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}" if math.isfinite(value) else str(value)
    return "n/a" if value is None else str(value)


def run_here(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> int:
    """Run one workload in this process; print its report and result."""
    from bench import workloads

    print(
        f"bench {workload}  seed={seed}  seconds={seconds:g}  "
        f"trace={int(trace)}{'  smoke' if smoke else ''}",
        flush=True,
    )
    result = workloads.run(workload, seed, seconds, trace, smoke, OUT_DIR)
    for name, value, unit, samples in result.report:
        print(f"  {name:<38} {_format_value(value):>18} {unit:<14} n={samples}")
    for name, passed, detail in result.checks:
        print(f"  check {name:<20} {'ok' if passed else 'FAILED':<7} {detail}")
    if trace:
        print(f"  trace written to {OUT_DIR.relative_to(ROOT)}/{workload}.trace.json")
    metrics: dict[str, dict[str, Any]] = {}
    finite = True
    for name, (value, unit) in result.metrics.items():
        if not math.isfinite(value):
            finite = False
        metrics[name] = {"value": value if math.isfinite(value) else None, "unit": unit}
    correct = result.correct and finite
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result.attempted),
                "failed": int(result.failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def run_subprocess(
    root: Path,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    smoke: bool = False,
    echo: bool = True,
) -> dict[str, Any]:
    """Run one workload in a fresh process from the checkout at ``root``
    and return its record (result line, digest, start time)."""
    command = [
        sys.executable,
        str(root / "bench" / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        f"{seconds:g}",
        "--trace",
        str(int(trace)),
    ]
    if smoke:
        command.append("--smoke")
    started = time.time()
    try:
        done = subprocess.run(
            command,
            cwd=root,
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
        stdout, stderr, code = done.stdout, done.stderr, done.returncode
    except subprocess.TimeoutExpired as timeout:
        stdout = timeout.stdout or ""
        stderr = f"timed out after {RUN_TIMEOUT_S:g} s"
        stdout = stdout.decode() if isinstance(stdout, bytes) else stdout
        code = -1
    if echo:
        sys.stdout.write(stdout)
        if code != 0 and stderr:
            sys.stdout.write(stderr)
        sys.stdout.flush()
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except ValueError:
        result = {}
    report = {name: _parse_value(value) for name, value, _, _ in _REPORT_LINE.findall(stdout)}
    return {
        "workload": workload,
        "seed": seed,
        "started_at": started,
        "exit_code": code,
        "correct": bool(result.get("correct")) and code == 0,
        "attempted": result.get("attempted", 0),
        "failed": result.get("failed", 0),
        "metrics": {
            name: entry["value"] for name, entry in result.get("metrics", {}).items()
        },
        "units": {name: entry["unit"] for name, entry in result.get("metrics", {}).items()},
        "digest": report.get("tables_digest"),
        "report": report,
    }


def _parse_value(text: str) -> Any:
    try:
        return float(text)
    except ValueError:
        return None if text == "n/a" else text


def summarize(runs: dict[str, list[dict[str, Any]]]) -> dict[str, Any]:
    """Per (workload, metric): median, quartiles, range and spread."""
    from bench.stats import quartiles, spread

    summary: dict[str, Any] = {}
    for workload, records in runs.items():
        rows: dict[str, Any] = {}
        names = sorted({name for record in records for name in record["metrics"]})
        for name in names:
            values = [
                record["metrics"][name]
                for record in records
                if record["metrics"].get(name) is not None
            ]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            rows[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "min": min(values),
                "max": max(values),
                "iqr_over_median": spread(values),
                "range_over_median": (max(values) - min(values)) / median if median else 0.0,
                "runs": len(values),
            }
        summary[workload] = {
            "metrics": rows,
            "digests": {str(record["seed"]): record["digest"] for record in records},
            "all_correct": all(record["correct"] for record in records),
        }
    return summary


def calibrated_bounds(summary: dict[str, Any]) -> dict[str, float]:
    """A regression bound per metric from a calibration run file.

    Timings get max(10%, the worst workload's (max - min) / median);
    ``peak_rss_mb`` gets 5%.  Either way the bound is raised to three
    times the worst workload's IQR over median, so run-to-run spread
    stays within a third of it, and capped at 25%.
    """
    bounds: dict[str, float] = {}
    for row in summary.values():
        for name, s in row["metrics"].items():
            base = 0.05 if name == "peak_rss_mb" else max(0.10, s["range_over_median"])
            bound = min(0.25, max(base, 3.0 * s["iqr_over_median"]))
            bounds[name] = max(bounds.get(name, 0.0), bound)
    return bounds


def write_run_file(
    path: Path, runs: dict[str, list[dict[str, Any]]], seconds: float, trace: bool, smoke: bool
) -> dict[str, Any]:
    """Write every run record with its summary; the format
    ``bench.compare`` reads."""
    summary = summarize(runs)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "bounds": calibrated_bounds(summary),
        "summary": summary,
        "runs": runs,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return summary


def repeat(
    names: Sequence[str],
    count: int,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    out: Path,
) -> int:
    """``count`` runs of each workload, each in its own process."""
    runs: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    for name in names:
        for i in range(count):
            record = run_subprocess(ROOT, name, seed + i, seconds, trace, smoke, echo=False)
            runs[name].append(record)
            status = "ok" if record["correct"] else f"FAILED (exit {record['exit_code']})"
            print(f"{name:<18} seed={seed + i:<4} {status}", flush=True)
    summary = write_run_file(out, runs, seconds, trace, smoke)
    for name, row in summary.items():
        print(f"\n{name}")
        for metric, s in row["metrics"].items():
            print(
                f"  {metric:<34} median {s['median']:>12.6g}  "
                f"IQR/median {s['iqr_over_median']:>7.2%}  range/median {s['range_over_median']:>7.2%}"
            )
    print(f"\nwritten to {out}")
    return 0 if all(row["all_correct"] for row in summary.values()) else 1


def run_all(seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """Every workload, each in a process of its own, with one combined
    result line."""
    records = [run_subprocess(ROOT, name, seed, seconds, trace, smoke) for name in workload_names()]
    metrics = {
        f"{record['workload']}.{name}": {"value": value, "unit": record["units"][name]}
        for record in records
        for name, value in record["metrics"].items()
    }
    correct = all(record["correct"] for record in records)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(int(record["attempted"]) for record in records),
                "failed": sum(int(record["failed"]) for record in records),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds per run")
    parser.add_argument(
        "--trace",
        nargs="?",
        const=1,
        default=0,
        type=int,
        choices=(0, 1),
        help="report per-layer metrics from a traced run",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every check on")
    parser.add_argument("--repeat", type=int, default=0, help="runs per workload, seeds S..S+N-1")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "runs.json", help="run file of --repeat")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    if seconds <= 0:
        parser.error("--seconds must be positive")
    names = workload_names()
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
    trace = bool(args.trace)
    if args.repeat:
        chosen = (args.workload,) if args.workload else names
        return repeat(chosen, args.repeat, args.seed, seconds, trace, args.smoke, args.out)
    if args.workload is None:
        return run_all(args.seed, seconds, trace, args.smoke)
    return run_here(args.workload, args.seed, seconds, trace, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
