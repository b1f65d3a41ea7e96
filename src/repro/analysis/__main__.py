"""``repro-check`` — the command-line front end of :mod:`repro.analysis`.

Usage::

    python -m repro.analysis src/repro tests
    repro-check --select R1,R4 src/repro
    repro-check --format json --annotations src/repro
    repro-check --jobs auto --format sarif --output repro-check.sarif src/repro

Exit codes: 0 clean, 1 violations found, 2 usage/parse error.  A timing line goes to stderr so CI logs surface
analysis-engine slowdowns without touching the report on stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from .annotations import check_annotations
from .engine import AnalysisError, Analyzer
from .rules import ALL_RULES, select_rules
from .sarif import render_sarif


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description=(
            "Domain-aware static analysis for the EcoCharge reproduction: "
            "per-file rules R1, R2, R4-R10 and R15 plus whole-program "
            "passes R11-R14."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyse (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        default=None,
        help="comma-separated rule ids to run (e.g. R1,R11); default: all",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--jobs",
        metavar="N",
        default="1",
        help="worker processes; an integer or 'auto' (= CPU count). "
        "Findings are byte-identical to a serial run.",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the report to a file instead of stdout",
    )
    parser.add_argument(
        "--annotations",
        action="store_true",
        help="also run the strict-annotation (TYP) check on the same paths",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _resolve_jobs(raw: str) -> int:
    if raw.strip().lower() == "auto":
        return os.cpu_count() or 1
    return int(raw)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.name:<20} {rule.description}")
        return 0

    try:
        rule_ids = (
            [token.strip() for token in options.select.split(",") if token.strip()]
            if options.select
            else None
        )
        rules = select_rules(rule_ids)
        jobs = _resolve_jobs(options.jobs)
        if jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {jobs}")
    except (KeyError, ValueError) as exc:
        print(f"repro-check: {exc.args[0]}", file=sys.stderr)
        return 2

    # Timing goes through the sanctioned clock boundary (R10): analysis
    # and observability sit in the same foundation layer.
    from repro.observability.clock import SYSTEM_CLOCK

    started = SYSTEM_CLOCK.monotonic()
    paths = [Path(p) for p in options.paths]
    analyzer = Analyzer(rules)
    try:
        report = analyzer.check_paths(paths, jobs=jobs)
    except AnalysisError as exc:
        print(f"repro-check: {exc}", file=sys.stderr)
        return 2

    violations = list(report.violations)
    if options.annotations:
        violations.extend(check_annotations(paths))
        violations.sort(key=lambda v: (v.path, v.line, v.rule_id))
        report.violations = violations

    if options.format == "sarif":
        rendered = render_sarif(report, rules)
    elif options.format == "json":
        rendered = report.render_json()
    else:
        rendered = report.render_text()

    if options.output is not None:
        Path(options.output).write_text(rendered + "\n", encoding="utf-8")
    else:
        print(rendered)

    elapsed = SYSTEM_CLOCK.monotonic() - started
    print(
        f"repro-check: analysed {report.files_checked} file(s) with "
        f"{len(report.rules_run)} rule(s) in {elapsed:.2f}s [jobs={jobs}]",
        file=sys.stderr,
    )
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
