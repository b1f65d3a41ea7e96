"""SARIF 2.1.0 export for ``repro-check``.

SARIF (Static Analysis Results Interchange Format) is what CI forges
ingest to annotate findings inline on pull requests.  This module
renders an :class:`~repro.analysis.engine.AnalysisReport` as a SARIF
``2.1.0`` log: one run, the full rule catalogue under
``tool.driver.rules``, and one ``result`` per violation with a
``physicalLocation``.

Validation: :func:`validate_sarif` structurally checks the documents we
emit against the required shape of the spec (the subset schema vendored
in ``sarif_schema.json`` mirrors the official 2.1.0 schema's required
properties; the full schema is not vendored wholesale).  The test suite
additionally runs the vendored schema through ``jsonschema`` when that
package is installed — it is never imported here, keeping
``repro.analysis`` stdlib-only.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from .engine import AnalysisReport, Violation

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

_TOOL_NAME = "repro-check"
_INFO_URI = "https://example.invalid/repro/docs/static_analysis.md"


def _rule_descriptor(rule: Any) -> dict[str, Any]:
    return {
        "id": rule.rule_id,
        "name": rule.name,
        "shortDescription": {"text": rule.description},
        "defaultConfiguration": {"level": "error"},
    }


def _result(violation: Violation) -> dict[str, Any]:
    return {
        "ruleId": violation.rule_id,
        "level": "error",
        "message": {"text": violation.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": violation.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {"startLine": max(violation.line, 1)},
                }
            }
        ],
    }


def sarif_log(report: AnalysisReport, rules: Sequence[Any]) -> dict[str, Any]:
    """The SARIF log as a JSON-ready dict."""
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "informationUri": _INFO_URI,
                        "version": "1.0.0",
                        "rules": [_rule_descriptor(rule) for rule in rules],
                    }
                },
                "columnKind": "unicodeCodePoints",
                "results": [_result(violation) for violation in report.violations],
            }
        ],
    }


def render_sarif(report: AnalysisReport, rules: Sequence[Any]) -> str:
    """The SARIF log serialised as stable, indented JSON."""
    return json.dumps(sarif_log(report, rules), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# structural validation (stdlib-only)
# ---------------------------------------------------------------------------


class SarifValidationError(ValueError):
    """The document does not satisfy the SARIF 2.1.0 required shape."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SarifValidationError(message)


def validate_sarif(document: Mapping[str, Any] | str) -> None:
    """Check required SARIF 2.1.0 structure; raises on the first defect.

    Covers the spec's required properties for ``sarifLog``, ``run``,
    ``tool``/``toolComponent``, ``reportingDescriptor``, ``result``, and
    the location objects we emit.
    """
    log: Any = json.loads(document) if isinstance(document, str) else document
    _require(isinstance(log, dict), "sarifLog must be an object")
    _require(log.get("version") == SARIF_VERSION, "version must be '2.1.0'")
    runs = log.get("runs")
    _require(isinstance(runs, list) and len(runs) >= 1, "runs must be a non-empty array")
    for run in runs:
        _require(isinstance(run, dict), "run must be an object")
        tool = run.get("tool")
        _require(isinstance(tool, dict), "run.tool is required")
        driver = tool.get("driver")
        _require(isinstance(driver, dict), "tool.driver is required")
        _require(
            isinstance(driver.get("name"), str) and driver["name"],
            "driver.name must be a non-empty string",
        )
        for rule in driver.get("rules", []):
            _require(isinstance(rule, dict), "reportingDescriptor must be an object")
            _require(
                isinstance(rule.get("id"), str) and rule["id"],
                "reportingDescriptor.id is required",
            )
        rule_ids = {rule["id"] for rule in driver.get("rules", [])}
        results = run.get("results", [])
        _require(isinstance(results, list), "run.results must be an array")
        for result in results:
            _require(isinstance(result, dict), "result must be an object")
            message = result.get("message")
            _require(
                isinstance(message, dict) and isinstance(message.get("text"), str),
                "result.message.text is required",
            )
            rule_id = result.get("ruleId")
            _require(isinstance(rule_id, str) and bool(rule_id), "result.ruleId is required")
            if rule_ids:
                _require(
                    rule_id in rule_ids,
                    f"result.ruleId '{rule_id}' missing from driver.rules",
                )
            for location in result.get("locations", []):
                physical = location.get("physicalLocation")
                _require(
                    isinstance(physical, dict),
                    "location.physicalLocation must be an object",
                )
                artifact = physical.get("artifactLocation")
                _require(
                    isinstance(artifact, dict) and isinstance(artifact.get("uri"), str),
                    "artifactLocation.uri is required",
                )
                region = physical.get("region")
                if region is not None:
                    _require(
                        isinstance(region.get("startLine"), int)
                        and region["startLine"] >= 1,
                        "region.startLine must be a positive integer",
                    )


__all__ = [
    "SARIF_SCHEMA_URI",
    "SARIF_VERSION",
    "SarifValidationError",
    "render_sarif",
    "sarif_log",
    "validate_sarif",
]
