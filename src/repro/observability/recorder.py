"""The telemetry facade each tier talks to: clock + registry + tracer.

One :class:`Telemetry` object travels with a ``ChargingEnvironment`` (and
through ``FaultTolerantEnvironment`` to the gateway, ranker, engine,
cache, and journal call sites).  Instrumented code never imports the
registry or tracer directly; it asks the facade, which is either a live
recorder or the shared :data:`NOOP_TELEMETRY` singleton.

The disabled path is the design centre: ``EcoChargeConfig.telemetry``
defaults to ``False``, every hot call site is either a ``with
telemetry.span(...)`` over the no-op tracer (one attribute lookup, one
constant context manager) or guarded by ``if telemetry.enabled``, and the
acceptance criteria hold the disabled stack to < 3% overhead versus the
pre-telemetry baseline.

Every metric family is predeclared here so exposition is stable even
before first increment.  Families whose labels a stats object carries
are *read-through*: the owner registers a reader with
:meth:`Telemetry.read_through` and the stats object stays the one store
of those counts.  The rest (tenant, shard, trips, segments, journal
appends, histograms) are counted natively at the call sites.
"""

from __future__ import annotations

from typing import Any, ContextManager, Hashable, Iterator

from .clock import SYSTEM_CLOCK, Clock, SimulatedClock
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricError,
    MetricFamily,
    MetricsRegistry,
    Reader,
    hit_ratio,
)
from .sampling import TailSampler
from .tracing import NoopTracer, Span, Tracer

#: Cap on distinct ``tenant`` label values per family, below the
#: registry's default cap — the serving tier is multi-tenant with an
#: unbounded tenant universe, so tenant is the one native label whose
#: values come from requests (docs/observability.md).  Overflow lands
#: in ``__other__`` with the trip counted in
#: ``ecocharge_label_overflow_total``.
TENANT_LABEL_LIMIT = 8


def _ratio_over(events: MetricFamily, hits: str, misses: str) -> Reader:
    """A gauge reader: :func:`hit_ratio` over ``events``' summed counters
    (nothing until some owner feeds ``events``)."""

    def read() -> dict[tuple[str, ...], float]:
        values = events.values()
        if not values:
            return {}
        return {(): hit_ratio(values.get((hits,), 0.0), values.get((misses,), 0.0))}

    return read


def _availability_over(health: MetricFamily) -> Reader:
    """Per-endpoint ``EndpointHealth.availability_ratio`` over the summed
    ``ecocharge_endpoint_health`` counters."""

    def read() -> dict[tuple[str, ...], float]:
        values = health.values()
        out: dict[tuple[str, ...], float] = {}
        for (endpoint, field_name), calls in values.items():
            if field_name != "calls":
                continue
            degraded = values.get((endpoint, "stale_served"), 0.0) + values.get(
                (endpoint, "fallbacks"), 0.0
            )
            out[(endpoint,)] = (calls - degraded) / calls if calls else 1.0
        return out

    return read


class Telemetry:
    """Clock, metrics registry, and tracer behind one enabled/disabled flag."""

    __slots__ = ("enabled", "clock", "registry", "tracer")

    def __init__(
        self,
        clock: Clock,
        enabled: bool = True,
        max_traces: int = 64,
        sampler: TailSampler | None = None,
    ) -> None:
        self.enabled = enabled
        self.clock = clock
        self.registry = MetricsRegistry()
        self.tracer: Tracer | NoopTracer
        if enabled:
            self.tracer = Tracer(clock, max_traces=max_traces, sampler=sampler)
            self._declare_native_families()
        else:
            self.tracer = NoopTracer()

    @classmethod
    def live(cls, max_traces: int = 64) -> "Telemetry":
        """A recorder on the real system clock (production / driver use)."""
        return cls(SYSTEM_CLOCK, enabled=True, max_traces=max_traces)

    @classmethod
    def simulated(
        cls,
        start_s: float = 0.0,
        tick_s: float = 0.001,
        max_traces: int = 64,
        sampler: TailSampler | None = None,
    ) -> "Telemetry":
        """A recorder on a deterministic clock (tests, replay, chaos runs)."""
        return cls(
            SimulatedClock(start_s, tick_s),
            enabled=True,
            max_traces=max_traces,
            sampler=sampler,
        )

    def _declare_native_families(self) -> None:
        reg = self.registry
        reg.counter(
            "ecocharge_trips_total",
            "Continuous-query trips started by run_over_trip.",
        )
        reg.counter(
            "ecocharge_segments_total",
            "Trip segments processed, by final outcome.",
            labels=("outcome",),
        )
        reg.counter(
            "ecocharge_gateway_ladder_total",
            "Degradation-ladder outcomes per gateway fetch, by endpoint and "
            "service level reached (read from EndpointHealth).",
            labels=("endpoint", "level"),
        )
        health = reg.counter(
            "ecocharge_endpoint_health",
            "Per-endpoint resilience counters (read from EndpointHealth).",
            labels=("endpoint", "field"),
        )
        reg.gauge(
            "ecocharge_endpoint_availability_ratio",
            "Fraction of logical calls answered without degradation.",
            labels=("endpoint",),
        ).read_from(health, _availability_over(health))
        reg.counter(
            "ecocharge_api_calls",
            "Upstream provider calls delivered (read from ApiUsage).",
            labels=("endpoint",),
        )
        reg.gauge(
            "ecocharge_breaker_state",
            "Circuit-breaker state per endpoint (0=closed, 1=half-open, 2=open).",
            labels=("endpoint", "state"),
        )
        cache = reg.counter(
            "ecocharge_cache_events",
            "Durable sessions' dynamic-cache lookup outcomes (read from CacheStats).",
            labels=("event",),
        )
        reg.gauge(
            "ecocharge_cache_hit_ratio",
            "Dynamic-cache hit ratio over ecocharge_cache_events.",
        ).read_from(cache, _ratio_over(cache, "hits", "misses"))
        reg.counter(
            "ecocharge_journal_cache_events",
            "Durable sessions' journaled cache-event totals (read from "
            "JournalCacheAccounting).",
            labels=("event",),
        )
        engine = reg.counter(
            "ecocharge_engine_events",
            "Distance-engine cache and search accounting (read from EngineStats).",
            labels=("event",),
        )
        reg.gauge(
            "ecocharge_engine_hit_ratio",
            "Distance-engine search-cache hit ratio over ecocharge_engine_events.",
        ).read_from(engine, _ratio_over(engine, "cache_hits", "cache_misses"))
        reg.counter(
            "ecocharge_epoch_events",
            "Live-graph epoch and incident accounting (read from EpochStats).",
            labels=("event",),
        )
        reg.gauge("ecocharge_epoch_current", "The live graph's current epoch.")
        reg.gauge(
            "ecocharge_weights_version",
            "The live graph's current weights version (bumps only on real changes).",
        )
        reg.counter(
            "ecocharge_journal_appends_total",
            "Durable-session journal records appended, by record type.",
            labels=("record_type",),
        )
        reg.counter(
            "ecocharge_journal_snapshots_total",
            "Durable-session snapshots written.",
        )
        reg.counter(
            "ecocharge_scheduler_requests_total",
            "Serving-tier requests resolved, by final outcome (read from "
            "SchedulerStats).",
            labels=("outcome",),
        )
        reg.histogram(
            "ecocharge_scheduler_latency_seconds",
            "Seconds from scheduler submission to resolution.",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        reg.counter(
            "ecocharge_tenant_requests_total",
            "Serving-tier requests resolved, by tenant and final outcome "
            f"(tenant capped at {TENANT_LABEL_LIMIT} distinct values by the "
            "cardinality guard; overflow lands in '__other__').",
            labels=("tenant", "outcome"),
            max_label_values={"tenant": TENANT_LABEL_LIMIT},
        )
        reg.counter(
            "ecocharge_shard_requests_total",
            "Serving-tier requests resolved, by shard and final outcome.",
            labels=("shard", "outcome"),
        )
        reg.histogram(
            "ecocharge_served_latency_seconds",
            "Seconds from submission to a *served* resolution (completed "
            "or stale) — the latency-SLO histogram, with exemplar links "
            "to retained traces.",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        reg.counter(
            "ecocharge_unsound_tables_total",
            "Served offering tables that failed the interval-soundness "
            "audit (the zero-budget SLO; any increment is an incident).",
        )
        reg.histogram(
            "ecocharge_segment_seconds",
            "Wall-clock seconds per ranked trip segment.",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        reg.histogram(
            "ecocharge_gateway_fetch_seconds",
            "Seconds per gateway fetch (all ladder rungs included).",
            labels=("endpoint",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        reg.histogram(
            "ecocharge_engine_search_seconds",
            "Seconds per distance-engine search on a cache miss.",
            labels=("backend",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        reg.histogram(
            "ecocharge_engine_recustomize_seconds",
            "Seconds per incremental re-customization after a live-graph "
            "epoch fence (see docs/live_graph.md).",
            labels=("backend",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )

    # -- tracing passthroughs ----------------------------------------------

    def span(
        self, name: str, tier: str, trace_id: str | None = None, **attributes: Any
    ) -> ContextManager[Span | None]:
        return self.tracer.span(name, tier, trace_id=trace_id, **attributes)

    def event(self, name: str, **attributes: Any) -> None:
        self.tracer.event(name, **attributes)

    def mark_error(self, error: BaseException) -> None:
        self.tracer.mark_error(error)

    # -- metrics conveniences ----------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        """Increment a predeclared counter; no-op when disabled.

        An undeclared name raises :class:`MetricError` — every native
        family is declared up front, so an unknown name is a typo, and
        silently dropping the increment would undercount forever.
        """
        if not self.enabled:
            return
        self._family(name).labels(**labels).inc(amount)

    def read_through(self, owner: Hashable, **readers: Reader) -> None:
        """Have each named family read ``owner``'s counts at collection.

        ``owner`` is the identity: registering it again replaces its
        earlier readers rather than adding to them.  A no-op when
        disabled, so nothing registers on :data:`NOOP_TELEMETRY`.
        """
        if not self.enabled:
            return
        for name, reader in readers.items():
            self._family(name).read_from(owner, reader)

    def observe(
        self, name: str, value: float, exemplar: str | None = None, **labels: str
    ) -> None:
        """Observe into a predeclared histogram; no-op when disabled.

        ``exemplar`` (typically a trip correlation ID) links the bucket
        this observation lands in back to a trace — see
        :func:`~.sampling.collect_exemplars`.
        """
        if not self.enabled:
            return
        self._family(name).labels(**labels).observe(value, exemplar=exemplar)

    def _family(self, name: str) -> MetricFamily:
        family = self.registry.get(name)
        if family is None:
            raise MetricError(f"metric '{name}' was never declared on this recorder")
        return family

    def finished_spans(self) -> Iterator[Span]:
        return self.tracer.finished_spans()


#: The shared disabled recorder.  Environments default to this, so the
#: instrumented stack pays only no-op calls until someone installs a live
#: ``Telemetry`` (via ``EcoChargeConfig(telemetry=True)`` or
#: ``set_telemetry``).
NOOP_TELEMETRY = Telemetry(SYSTEM_CLOCK, enabled=False)
