"""``repro.analysis`` — domain-aware static analysis + runtime contracts.

The machine-checked guardrails for the paper's invariants (see
``docs/static_analysis.md``):

* :mod:`repro.analysis.rules` — the fourteen ``repro-check`` rules:
  per-file AST rules R1, R2 and R4-R10 (interval comparisons, metric
  consistency, mutable defaults, cache expiry, exception hygiene,
  resilience/engine/journal/clock bypasses) and R15 (backpressure-bypass
  in the serving tier), plus the whole-program passes R11-R14.
* :mod:`repro.analysis.graph` / :mod:`repro.analysis.dataflow` — the
  project graph (imports, classes, function IR) and the fixpoint
  summary framework the whole-program passes run on.
* :mod:`repro.analysis.passes` — R11 determinism-taint, R12
  interval-escape, R13 shared-state-mutation, R14 layer-conformance.
* :mod:`repro.analysis.engine` — AST walking, suppression pragmas,
  the parallel ``--jobs`` driver, reporting.
* :mod:`repro.analysis.sarif` — SARIF 2.1.0 export for CI.
* :mod:`repro.analysis.annotations` — the offline strict-annotation gate
  (mypy's ``disallow_untyped_defs`` subset, always available).
* :mod:`repro.analysis.contracts` — ``@require``/``@ensure`` runtime
  contracts, enabled with ``REPRO_CONTRACTS=1``.

CLI: ``python -m repro.analysis src/repro tests`` or the ``repro-check``
console script.  This package is stdlib-only by design.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from .annotations import check_annotations
from .engine import AnalysisError, AnalysisReport, Analyzer, SourceFile, Violation
from .rules import ALL_RULES, RULES_BY_ID, select_rules

__all__ = [
    "ALL_RULES",
    "AnalysisError",
    "AnalysisReport",
    "Analyzer",
    "RULES_BY_ID",
    "SourceFile",
    "Violation",
    "check_annotations",
    "check_paths",
    "check_snippets",
    "check_source",
    "select_rules",
]


def check_paths(
    paths: Sequence[str | Path],
    rule_ids: Sequence[str] | None = None,
    jobs: int = 1,
) -> AnalysisReport:
    """Run ``repro-check`` over files/directories and return the report."""
    analyzer = Analyzer(select_rules(rule_ids))
    return analyzer.check_paths([Path(p) for p in paths], jobs=jobs)


def check_source(
    source: str, rel_path: str = "<snippet>.py", rule_ids: Sequence[str] | None = None
) -> list[Violation]:
    """Run ``repro-check`` over an in-memory snippet (fixture-test entry
    point).  ``rel_path`` controls which path-scoped rules apply."""
    analyzer = Analyzer(select_rules(rule_ids))
    return analyzer.check_source(source, rel_path=rel_path)


def check_snippets(
    snippets: Mapping[str, str], rule_ids: Sequence[str] | None = None
) -> list[Violation]:
    """Run ``repro-check`` over several in-memory files as one project —
    the entry point for cross-module fixtures (R11-R14)."""
    analyzer = Analyzer(select_rules(rule_ids))
    return analyzer.check_snippets(snippets)
