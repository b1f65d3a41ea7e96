"""Unified telemetry for the EcoCharge serving stack.

One substrate for what the five tiers previously accounted separately:

* :mod:`.clock` — the injected :class:`Clock` protocol (real +
  simulated); the only module allowed to call ``time.*`` directly
  (repro-check rule R10 enforces this);
* :mod:`.deadline` — request deadlines and cancellation tokens built on
  the injected clock, polled at checkpoints by every serving tier;
* :mod:`.metrics` — labelled counters/gauges/fixed-bucket histograms in
  a process-local :class:`MetricsRegistry`, whose families either count
  at the call sites or read a stats object in place;
* :mod:`.tracing` — deterministic span trees with trip correlation IDs
  and per-span self-time profiling;
* :mod:`.recorder` — the :class:`Telemetry` facade the instrumented
  tiers hold (or the shared :data:`NOOP_TELEMETRY` when disabled);
* :mod:`.export` — Prometheus text exposition and canonical-JSON
  snapshots, with validators for both;
* :mod:`.windows` — sliding-window aggregation over registry series
  (the rate substrate the SLO engine reads);
* :mod:`.slo` — SLO objectives with multi-window multi-burn-rate
  evaluation (SRE-workbook style);
* :mod:`.alerts` — the pending→firing→resolved alert state machine
  with a deterministic transition log;
* :mod:`.sampling` — tail-based trace sampling (errors/deadline/
  degraded always kept, top-K slowest, hash-sampled rest) + exemplars.

See ``docs/observability.md`` for the metric catalog and span taxonomy.
"""

from .clock import SYSTEM_CLOCK, Clock, SimulatedClock, SystemClock, iso_utc
from .deadline import (
    NEVER_EXPIRES,
    CancellationToken,
    Deadline,
    DeadlineExpired,
    NeverExpires,
)
from .export import (
    ExpositionError,
    canonical_json,
    json_round_trips,
    parse_prometheus,
    render_json,
    render_prometheus,
)
from .alerts import STATE_CODES, AlertManager, AlertStatus
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    OVERFLOW_BUCKET,
    OVERFLOW_COUNTER,
    MetricError,
    MetricFamily,
    MetricsRegistry,
    histogram_quantile,
)
from .recorder import NOOP_TELEMETRY, TENANT_LABEL_LIMIT, Telemetry
from .sampling import (
    MUST_KEEP_REASONS,
    SamplerStats,
    SamplingPolicy,
    TailSampler,
    collect_exemplars,
    hash_fraction,
    retained_trace_ids,
)
from .slo import (
    BURN_CAP,
    DEFAULT_PAIRS,
    BurnSignal,
    BurnWindowPair,
    EventRatioSLO,
    LatencyBucketSLO,
    ServiceLevelObjective,
    SLOEngine,
    ZeroEventSLO,
    default_serving_slos,
)
from .tracing import NoopTracer, Span, SpanEvent, Tracer, trip_correlation_id
from .windows import HistogramWindow, WindowedAggregator

__all__ = [
    "Clock",
    "SystemClock",
    "SimulatedClock",
    "SYSTEM_CLOCK",
    "iso_utc",
    "CancellationToken",
    "Deadline",
    "DeadlineExpired",
    "NeverExpires",
    "NEVER_EXPIRES",
    "MetricsRegistry",
    "MetricFamily",
    "MetricError",
    "DEFAULT_LATENCY_BUCKETS",
    "OVERFLOW_BUCKET",
    "OVERFLOW_COUNTER",
    "histogram_quantile",
    "TENANT_LABEL_LIMIT",
    "WindowedAggregator",
    "HistogramWindow",
    "SLOEngine",
    "ServiceLevelObjective",
    "EventRatioSLO",
    "LatencyBucketSLO",
    "ZeroEventSLO",
    "BurnSignal",
    "BurnWindowPair",
    "BURN_CAP",
    "DEFAULT_PAIRS",
    "default_serving_slos",
    "AlertManager",
    "AlertStatus",
    "STATE_CODES",
    "TailSampler",
    "SamplingPolicy",
    "SamplerStats",
    "MUST_KEEP_REASONS",
    "hash_fraction",
    "retained_trace_ids",
    "collect_exemplars",
    "Tracer",
    "NoopTracer",
    "Span",
    "SpanEvent",
    "trip_correlation_id",
    "Telemetry",
    "NOOP_TELEMETRY",
    "render_prometheus",
    "parse_prometheus",
    "render_json",
    "canonical_json",
    "json_round_trips",
    "ExpositionError",
]
