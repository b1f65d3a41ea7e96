"""Observability report: one traced trip, accounting, both exporters.

``python -m repro.experiments observability`` runs a durable ranking
session with telemetry enabled and validates the whole pipeline
end-to-end:

1. a single trace tree spans all six serving tiers (server, gateway,
   ranker, engine, cache, journal) under one content-hashed trip
   correlation ID,
2. the independent counters agree: the gateway's health counters with
   ``ApiUsage``, and the session journal's cache events with the live
   ``CacheStats`` (the registry reads all of them in place),
3. the Prometheus exposition parses and the canonical-JSON snapshot
   round-trips byte-identically.

What telemetry costs in wall-clock time is measured by ``bench/``
(``trace.overhead_frac``), not here.

Artifacts are written next to the other persistent reports:
``OBS_metrics.prom`` and ``OBS_snapshot.json`` in the working
directory.  Any validation failure raises ``SystemExit`` so the CI
smoke job fails loudly.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any

from ..core.ecocharge import EcoChargeConfig
from ..observability import (
    Telemetry,
    json_round_trips,
    parse_prometheus,
    render_json,
    render_prometheus,
)
from ..observability.tracing import trip_correlation_id
from ..server.eis import EcoChargeInformationServer
from ..server.sessions import DurableSessionService
from ..trajectories.datasets import load_workload
from .harness import HarnessConfig

#: The tiers one fully-telemetered durable trip must touch.
REQUIRED_TIERS = frozenset(
    {"server", "gateway", "ranker", "engine", "cache", "journal"}
)

METRICS_ARTIFACT = "OBS_metrics.prom"
SNAPSHOT_ARTIFACT = "OBS_snapshot.json"

#: Dataset used for the report (small enough for the CI smoke job).
DATASET = "oldenburg"


def run_traced_trip(config: HarnessConfig) -> dict[str, Any]:
    """Run one durable session under simulated-clock telemetry.

    Returns everything the report needs: the telemetry recorder, the
    trace roots, the accounting verdicts, and both rendered exports.
    """
    workload = load_workload(
        DATASET, scale=config.dataset_scale, environment_seed=config.seed
    )
    telemetry = Telemetry.simulated(tick_s=0.0005)
    workload.environment.set_telemetry(telemetry)
    server = EcoChargeInformationServer(workload.environment)
    trip = workload.trips[0]
    eco = EcoChargeConfig(k=config.k, telemetry=True)
    # Open/run/close explicitly (rather than ``rank_trip_durably``) so the
    # session object — and with it the ranker's cache stats and the journal
    # accounting — stays in hand for the accounting check after sealing.
    with tempfile.TemporaryDirectory(prefix="observability-") as root:
        service = DurableSessionService(server, Path(root))
        with telemetry.span(
            "server.rank_trip_durably",
            tier="server",
            trace_id=trip_correlation_id(trip),
            session_id="obs-report",
        ):
            session = service.open("obs-report", trip, eco)
            try:
                run = session.run()
            finally:
                service.close(session)

    tracer = telemetry.tracer
    traces = list(tracer.traces)  # type: ignore[union-attr]
    trace_ids = sorted({root_span.trace_id for root_span in traces})
    tiers: set[str] = set()
    for root_span in traces:
        tiers |= root_span.tiers()

    mismatches = []
    if not server.gateway.accounting_ok():
        mismatches.append("gateway health counters disagree with ApiUsage")
    if not session.accounting_ok():
        mismatches.append("journaled cache events disagree with the live CacheStats")

    exposition = render_prometheus(telemetry.registry)
    snapshot = render_json(
        telemetry.registry,
        traces=traces,
        extra={"report": "observability", "dataset": DATASET},
    )
    return {
        "telemetry": telemetry,
        "tables": len(run.tables),
        "traces": traces,
        "trace_ids": trace_ids,
        "tiers": tiers,
        "mismatches": mismatches,
        "exposition": exposition,
        "snapshot": snapshot,
    }


def _format_report(result: dict[str, Any]) -> str:
    telemetry: Telemetry = result["telemetry"]
    lines = [
        "Observability — trace coverage, accounting, exporters",
        "=" * 72,
        f"  segments ranked: {result['tables']}",
        f"  traces recorded: {len(result['traces'])} "
        f"(ids: {', '.join(result['trace_ids'])})",
        f"  tiers covered: {', '.join(sorted(result['tiers']))}",
        f"  accounting: "
        + ("exact" if not result["mismatches"] else "MISMATCH"),
        "",
        "Trace tree (first trace):",
    ]
    tracer = telemetry.tracer
    if result["traces"]:
        lines.append(tracer.render_trace(result["traces"][0]))
    lines.append("Hot spans (self time):")
    for row in tracer.hot_spans(5):
        lines.append(
            f"  {row['name']:<24} {row['count']:>5}x  {row['self_time_s']*1000:>8.2f} ms"
        )
    lines += [
        "",
        f"Artifacts: {METRICS_ARTIFACT} "
        f"({len(parse_prometheus(result['exposition']))} families), "
        f"{SNAPSHOT_ARTIFACT} (canonical JSON)",
    ]
    return "\n".join(lines)


def main(config: HarnessConfig | None = None) -> str:
    config = config if config is not None else HarnessConfig()
    result = run_traced_trip(config)

    failures: list[str] = []
    missing = REQUIRED_TIERS - result["tiers"]
    if missing:
        failures.append(f"trace tree missing tiers: {sorted(missing)}")
    if len(result["trace_ids"]) != 1:
        failures.append(f"expected one trip correlation ID, got {result['trace_ids']}")
    failures.extend(result["mismatches"])
    try:
        parse_prometheus(result["exposition"])
    except ValueError as error:
        failures.append(f"Prometheus exposition invalid: {error}")
    if not json_round_trips(result["snapshot"]):
        failures.append("JSON snapshot is not canonical (round-trip failed)")

    Path.cwd().joinpath(METRICS_ARTIFACT).write_text(result["exposition"])
    Path.cwd().joinpath(SNAPSHOT_ARTIFACT).write_text(result["snapshot"] + "\n")

    report = _format_report(result)
    print(report)
    if failures:
        print("\nFAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        raise SystemExit(1)
    return report


if __name__ == "__main__":
    main()
