"""The tier-1 lint gate: ``repro-check`` + strict typing on the core.

There is no external CI in the offline environment, so the pytest suite
*is* the gate: these tests fail the build whenever a rule violation or an
annotation gap lands in the checked packages.

The typing gate is layered (see ``docs/static_analysis.md``):

* the offline strict-annotation subset always runs, and
* the full ``mypy --strict`` (configured by ``[tool.mypy]`` in
  ``pyproject.toml``) runs whenever mypy is importable — it is not part
  of the baked-in offline toolchain, so that test skips there.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import AnalysisReport, check_annotations, check_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

#: The strictly-typed surface: the packages [tool.mypy] names.
STRICT_TARGETS = (
    SRC / "intervals.py",
    SRC / "interval_array.py",
    SRC / "core",
    SRC / "spatial",
    SRC / "analysis",
    SRC / "observability",
)


# ``gate_report`` (tests/conftest.py) is the session's one analysis of
# the gated trees; test_analysis*.py read the same report.


def _violations_under(report: AnalysisReport, tree: str) -> str:
    return "\n".join(v.render() for v in report.violations if v.path.startswith(f"{tree}/"))


def test_repro_check_passes_on_src(gate_report: AnalysisReport) -> None:
    """Every rule, zero violations, across the whole library tree."""
    assert gate_report.rules_run == (
        "R1", "R2", "R4", "R5", "R6", "R7", "R8", "R9", "R10",
        "R11", "R12", "R13", "R14", "R15",
    )
    assert gate_report.files_checked > 200
    found = _violations_under(gate_report, "src")
    assert not found, "repro-check violations:\n" + found


@pytest.mark.parametrize("tree", ["tests", "benchmarks", "examples"])
def test_repro_check_passes_on_tests(gate_report: AnalysisReport, tree: str) -> None:
    """The tree outside the library: no example or ablation may bypass
    the engine or the clock either."""
    found = _violations_under(gate_report, tree)
    assert not found, "repro-check violations:\n" + found


def test_repro_check_cli_matches_library_verdict(tmp_path: Path) -> None:
    """`python -m repro.analysis` is the documented gate command; it must
    report exactly what the library API reports.  A small target keeps
    the subprocess cheap — the tree-wide verdict is checked above."""
    (tmp_path / "clean.py").write_text("def f(items=None):\n    return items\n")
    (tmp_path / "bad.py").write_text("def f(items=[]):\n    return items\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--format", "json", str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.strip() == check_paths([tmp_path]).render_json()


def test_strict_annotations_on_core_packages() -> None:
    """Offline ``disallow_untyped_defs`` subset of ``mypy --strict``."""
    violations = check_annotations(list(STRICT_TARGETS))
    rendered = "\n".join(v.render() for v in violations)
    assert not violations, f"strict-annotation gaps:\n{rendered}"


def test_mypy_strict_on_core_packages() -> None:
    """Full ``mypy --strict`` via the [tool.mypy] table, when available."""
    pytest.importorskip("mypy", reason="mypy not installed in this environment")
    from mypy import api as mypy_api

    stdout, stderr, status = mypy_api.run(
        ["--config-file", str(REPO_ROOT / "pyproject.toml"), *map(str, STRICT_TARGETS)]
    )
    assert status == 0, f"mypy --strict failed:\n{stdout}\n{stderr}"
