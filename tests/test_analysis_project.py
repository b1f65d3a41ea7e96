"""Whole-program passes (R11-R14), the parallel driver, SARIF export,
and the suppression regressions.

Every project rule gets at least one failing and one clean fixture (the
same fixture discipline ``tests/test_analysis.py`` applies to R1-R10),
plus the interprocedural cases the passes exist for: taint chained
through two call hops, helper-mediated interval escapes, and
cross-module layer violations.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import check_snippets, check_source
from repro.analysis.__main__ import main
from repro.analysis.engine import Analyzer
from repro.analysis.rules import ALL_RULES, select_rules
from repro.analysis.sarif import (
    SarifValidationError,
    render_sarif,
    sarif_log,
    validate_sarif,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def rule_ids(violations):
    return [v.rule_id for v in violations]


# ---------------------------------------------------------------------------
# R11 — determinism taint
# ---------------------------------------------------------------------------


class TestR11DeterminismTaint:
    PATH = "src/repro/durability/example.py"

    def test_clock_read_into_journal_append(self):
        snippet = (
            "import time\n"
            "def stamp(journal):\n"
            "    t = time.time()\n"
            "    journal.append(t)\n"
        )
        assert "R11" in rule_ids(check_source(snippet, self.PATH))

    def test_module_alias_clock_read(self):
        snippet = (
            "import time as wallclock\n"
            "def stamp(journal):\n"
            "    journal.append(wallclock.monotonic())\n"
        )
        assert "R11" in rule_ids(check_source(snippet, self.PATH))

    def test_from_import_clock_read(self):
        snippet = (
            "from time import monotonic\n"
            "def stamp(journal):\n"
            "    journal.append(monotonic())\n"
        )
        assert "R11" in rule_ids(check_source(snippet, self.PATH))

    def test_two_hop_interprocedural_taint(self):
        snippet = (
            "import time\n"
            "def _now():\n"
            "    return time.time()\n"
            "def _tag(offset):\n"
            "    return _now() + offset\n"
            "def write(journal):\n"
            "    journal.append(_tag(1.0))\n"
        )
        violations = [
            v for v in check_source(snippet, self.PATH) if v.rule_id == "R11"
        ]
        assert violations, "taint must survive two call hops"
        assert "via" in violations[0].message

    def test_unseeded_global_rng_into_snapshot(self):
        snippet = (
            "import random\n"
            "def snap(SessionSnapshot):\n"
            "    return SessionSnapshot(token=random.random())\n"
        )
        assert "R11" in rule_ids(check_source(snippet, self.PATH))

    def test_seeded_rng_is_clean(self):
        snippet = (
            "import random\n"
            "def snap(journal):\n"
            "    rng = random.Random(42)\n"
            "    journal.append(rng.random())\n"
        )
        assert rule_ids(check_source(snippet, self.PATH)) == []

    def test_unseeded_rng_object_is_tainted(self):
        snippet = (
            "import random\n"
            "def snap(journal):\n"
            "    rng = random.Random()\n"
            "    journal.append(rng.random())\n"
        )
        assert "R11" in rule_ids(check_source(snippet, self.PATH))

    def test_trace_id_keyword_sink(self):
        snippet = (
            "import time\n"
            "def make(span_cls):\n"
            "    return span_cls(trace_id=time.time())\n"
        )
        assert "R11" in rule_ids(check_source(snippet, self.PATH))

    def test_sorted_sanitizes_set_order(self):
        snippet = (
            "def dump(journal, chargers):\n"
            "    pending = set(chargers)\n"
            "    for charger in sorted(pending):\n"
            "        journal.append(charger)\n"
        )
        assert rule_ids(check_source(snippet, self.PATH)) == []

    def test_set_iteration_order_into_journal(self):
        snippet = (
            "def dump(journal, chargers):\n"
            "    pending = set(chargers)\n"
            "    for charger in pending:\n"
            "        journal.append(charger)\n"
        )
        assert "R11" in rule_ids(check_source(snippet, self.PATH))

    def test_test_files_are_exempt(self):
        snippet = (
            "import time\n"
            "def stamp(journal):\n"
            "    journal.append(time.time())\n"
        )
        assert rule_ids(check_source(snippet, "tests/test_example.py")) == []


# ---------------------------------------------------------------------------
# R12 — interval endpoint escape
# ---------------------------------------------------------------------------


class TestR12IntervalEscape:
    CORE = "src/repro/core/example.py"

    def test_public_return_of_raw_lo(self):
        snippet = "def lower(iv):\n    return iv.lo\n"
        assert "R12" in rule_ids(check_source(snippet, self.CORE))

    def test_width_binop_is_derived_quantity(self):
        snippet = "def width(iv):\n    return iv.hi - iv.lo\n"
        assert rule_ids(check_source(snippet, self.CORE)) == []

    def test_private_helper_is_not_a_boundary(self):
        snippet = "def _lower(iv):\n    return iv.lo\n"
        assert rule_ids(check_source(snippet, self.CORE)) == []

    def test_escape_through_private_helper(self):
        snippet = (
            "def _raw(iv):\n"
            "    return iv.lo\n"
            "def lower(iv):\n"
            "    return _raw(iv)\n"
        )
        violations = [
            v for v in check_source(snippet, self.CORE) if v.rule_id == "R12"
        ]
        assert violations, "endpoint must not escape via a private helper"
        assert violations[0].line == 4

    def test_min_preserves_endpoint_identity(self):
        snippet = (
            "def floor_of(a, b):\n"
            "    return min(a.lo, b.lo)\n"
        )
        assert "R12" in rule_ids(check_source(snippet, self.CORE))

    def test_outside_core_is_out_of_scope(self):
        snippet = "def lower(iv):\n    return iv.lo\n"
        assert rule_ids(check_source(snippet, "src/repro/server/example.py")) == []


# ---------------------------------------------------------------------------
# R13 — shared-state mutation
# ---------------------------------------------------------------------------


class TestR13SharedStateMutation:
    SERVER = "src/repro/server/example.py"

    def test_annotated_param_mutation_outside_owner(self):
        snippet = (
            "from repro.core.caching import CacheStats\n"
            "def bump(stats: CacheStats) -> None:\n"
            "    stats.hits += 1\n"
        )
        assert "R13" in rule_ids(check_source(snippet, self.SERVER))

    def test_mutation_inside_owner_module_is_sanctioned(self):
        snippet = (
            "from dataclasses import dataclass\n"
            "def bump(stats: CacheStats) -> None:\n"
            "    stats.hits += 1\n"
        )
        assert "R13" not in rule_ids(
            check_source(snippet, "src/repro/core/caching.py")
        )

    def test_method_call_is_the_sanctioned_api(self):
        snippet = (
            "from repro.resilience.health import EndpointHealth\n"
            "def bump(health: EndpointHealth) -> None:\n"
            "    health.record_call()\n"
        )
        assert rule_ids(check_source(snippet, self.SERVER)) == []

    def test_container_mutator_on_watched_attribute(self):
        snippet = (
            "from repro.observability.metrics import MetricsRegistry\n"
            "def reset(registry: MetricsRegistry) -> None:\n"
            "    registry.counters.clear()\n"
        )
        assert "R13" in rule_ids(check_source(snippet, self.SERVER))

    def test_ctor_inferred_type_mutation(self):
        snippet = (
            "from repro.resilience.health import EndpointHealth\n"
            "def make() -> EndpointHealth:\n"
            "    health = EndpointHealth(endpoint='weather')\n"
            "    health.calls += 1\n"
            "    return health\n"
        )
        assert "R13" in rule_ids(check_source(snippet, self.SERVER))

    def test_unwatched_types_are_ignored(self):
        snippet = (
            "def bump(counter) -> None:\n"
            "    counter.hits += 1\n"
        )
        assert rule_ids(check_source(snippet, self.SERVER)) == []


# ---------------------------------------------------------------------------
# R14 — layer conformance
# ---------------------------------------------------------------------------


class TestR14LayerConformance:
    def test_cross_module_upward_import(self):
        violations = check_snippets(
            {
                "src/repro/core/util.py": "from repro.server.app import serve\n",
                "src/repro/server/app.py": "def serve():\n    return None\n",
            }
        )
        r14 = [v for v in violations if v.rule_id == "R14"]
        assert r14 and r14[0].path == "src/repro/core/util.py"

    def test_downward_import_conforms(self):
        violations = check_snippets(
            {
                "src/repro/server/app.py": "from repro.core.offering import x\n",
                "src/repro/core/offering.py": "x = 1\n",
            }
        )
        assert [v for v in violations if v.rule_id == "R14"] == []

    def test_type_checking_import_is_exempt(self):
        snippet = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.server.app import serve\n"
        )
        violations = check_source(snippet, "src/repro/core/util.py")
        assert [v for v in violations if v.rule_id == "R14"] == []

    def test_deferred_function_scope_import_is_exempt(self):
        snippet = (
            "def late():\n"
            "    from repro.server.app import serve\n"
            "    return serve\n"
        )
        violations = check_source(snippet, "src/repro/core/util.py")
        assert [v for v in violations if v.rule_id == "R14"] == []

    def test_shared_error_module_is_importable_from_anywhere(self):
        snippet = "from repro.resilience.errors import UpstreamError\n"
        violations = check_source(snippet, "src/repro/core/util.py")
        assert [v for v in violations if v.rule_id == "R14"] == []

    def test_upward_import_names_both_layers(self):
        violations = check_source(
            "from repro.resilience.gateway import ResilienceGateway\n",
            "src/repro/network/routes.py",
        )
        r14 = [v for v in violations if v.rule_id == "R14"]
        assert r14 and "resilience" in r14[0].message


# ---------------------------------------------------------------------------
# Suppression regressions
# ---------------------------------------------------------------------------


class TestSuppressionRegressions:
    def test_disable_next_line(self):
        plain = (
            "class Candidate:\n"
            "    def scores(self, seen=[]):\n"
            "        return seen\n"
        )
        path = "src/repro/core/example.py"
        assert "R4" in rule_ids(check_source(plain, path))
        lines = plain.splitlines(keepends=True)
        flagged_line = check_source(plain, path)[0].line
        lines.insert(flagged_line - 1, "    # repro-check: disable-next-line=R4\n")
        assert rule_ids(check_source("".join(lines), path)) == []

    def test_disable_next_line_does_not_leak_to_later_lines(self):
        snippet = (
            "# repro-check: disable-next-line=R4\n"
            "def first(items=[]):\n"
            "    return items\n"
            "def second(extras=[]):\n"
            "    return extras\n"
        )
        violations = check_source(snippet, "src/repro/core/example.py")
        assert rule_ids(violations) == ["R4"]
        assert violations[0].line == 4

    def test_crlf_multi_rule_disable(self):
        body = "def f(a, b, items=[]): return a.lo < b.lo"
        pragma = "  # repro-check: disable=R1,R4"
        path = "src/repro/core/example.py"
        assert sorted(rule_ids(check_source(body + "\r\n", path))) == ["R1", "R4"]
        assert rule_ids(check_source(body + pragma + "\r\n", path)) == []

    def test_cr_only_line_endings(self):
        source = (
            "def f(items=[]):  # repro-check: disable=R4\r"
            "    return items\r"
        )
        assert rule_ids(check_source(source, "src/repro/core/example.py")) == []


# ---------------------------------------------------------------------------
# meta: the whole-program passes hold on the real tree
# ---------------------------------------------------------------------------


class TestRealTreeProjectRules:
    def test_project_rules_clean_on_src(self, gate_report):
        # The session's one gate analysis (conftest.py) ran R11-R14 over
        # src/repro together with the other trees.
        assert {"R11", "R12", "R13", "R14"} <= set(gate_report.rules_run)
        project = [
            v
            for v in gate_report.violations
            if v.rule_id in {"R11", "R12", "R13", "R14"} and v.path.startswith("src/repro/")
        ]
        assert project == []


# ---------------------------------------------------------------------------
# SARIF export
# ---------------------------------------------------------------------------


class TestSarif:
    def test_cli_sarif_is_structurally_valid(self, tmp_path, capsys):
        tree = tmp_path / "proj"
        tree.mkdir()
        (tree / "mod.py").write_text("def f(items=[]):\n    return items\n")
        out_path = tmp_path / "report.sarif"
        assert main(["--format", "sarif", "--output", str(out_path), str(tree)]) == 1
        document = json.loads(out_path.read_text(encoding="utf-8"))
        validate_sarif(document)
        assert document["version"] == "2.1.0"
        results = document["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["R4"]
        assert results[0]["locations"][0]["physicalLocation"]["region"]["startLine"] == 1

    def test_rule_catalogue_is_complete(self):
        report = Analyzer(ALL_RULES).check_paths([SRC / "intervals.py"])
        log = sarif_log(report, ALL_RULES)
        ids = [rule["id"] for rule in log["runs"][0]["tool"]["driver"]["rules"]]
        assert ids == [rule.rule_id for rule in ALL_RULES]
        validate_sarif(log)

    def test_validator_rejects_wrong_version(self):
        with pytest.raises(SarifValidationError):
            validate_sarif({"version": "2.0.0", "runs": []})

    def test_validator_rejects_unknown_rule_id(self):
        report = Analyzer(ALL_RULES).check_paths([SRC / "intervals.py"])
        log = sarif_log(report, ALL_RULES)
        log["runs"][0]["results"] = [
            {"ruleId": "R99", "message": {"text": "ghost"}, "locations": []}
        ]
        with pytest.raises(SarifValidationError):
            validate_sarif(log)

    def test_against_vendored_2_1_0_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            (SRC / "analysis" / "sarif_schema.json").read_text(encoding="utf-8")
        )
        tree = tmp_path / "proj"
        tree.mkdir()
        (tree / "mod.py").write_text("def f(items=[]):\n    return items\n")
        report = Analyzer(ALL_RULES).check_paths([tree])
        jsonschema.validate(
            json.loads(render_sarif(report, ALL_RULES)), schema
        )


# ---------------------------------------------------------------------------
# Parallel driver
# ---------------------------------------------------------------------------


class TestParallelDriver:
    TARGET = str(SRC / "analysis")

    def test_jobs_two_is_byte_identical_to_serial(self, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert main(["--format", "json", "--output", str(serial), self.TARGET]) == 0
        assert (
            main(
                ["--format", "json", "--jobs", "2", "--output", str(parallel), self.TARGET]
            )
            == 0
        )
        assert serial.read_bytes() == parallel.read_bytes()

    def test_jobs_auto_resolves(self, tmp_path):
        out = tmp_path / "auto.json"
        assert (
            main(
                ["--format", "json", "--jobs", "auto", "--output", str(out), self.TARGET]
            )
            == 0
        )

    def test_jobs_zero_is_usage_error(self):
        assert main(["--jobs", "0", self.TARGET]) == 2

    def test_jobs_garbage_is_usage_error(self):
        assert main(["--jobs", "lots", self.TARGET]) == 2


# ---------------------------------------------------------------------------
# Docs stay in sync with the rule catalogue
# ---------------------------------------------------------------------------


class TestDocSync:
    DOC = REPO_ROOT / "docs" / "static_analysis.md"

    def _doc_rows(self):
        rows = {}
        for line in self.DOC.read_text(encoding="utf-8").splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) >= 3 and cells[0].startswith("R") and cells[0][1:].isdigit():
                rows[cells[0]] = (cells[1].strip("`"), cells[2])
        return rows

    def test_every_rule_is_documented(self):
        rows = self._doc_rows()
        for rule in ALL_RULES:
            assert rule.rule_id in rows, f"{rule.rule_id} missing from {self.DOC}"

    def test_names_and_summaries_match_list_rules(self):
        rows = self._doc_rows()
        for rule in ALL_RULES:
            doc_name, doc_summary = rows[rule.rule_id]
            assert doc_name == rule.name, f"{rule.rule_id} name drifted in docs"
            assert doc_summary == rule.description, (
                f"{rule.rule_id} summary drifted: docs say {doc_summary!r}, "
                f"--list-rules says {rule.description!r}"
            )

    def test_docs_list_no_ghost_rules(self):
        known = {rule.rule_id for rule in ALL_RULES}
        assert set(self._doc_rows()) <= known
