"""Unified telemetry: clocks, metrics, tracing, exporters, integration.

Covers the observability package in layers:

1. unit behaviour of the injected clocks, the metrics registry, the
   tracer, and both exporters,
2. failure semantics — spans close ``error`` when an upstream fault or a
   session crash lands mid-segment,
3. the six-tier integration criterion: one durable trip produces one
   trace tree spanning server/gateway/ranker/engine/cache/journal under
   a single content-hashed trip correlation ID, with the registry
   reading every stats object in place — counted once, including across
   a crash/resume boundary and across shards sharing one registry.
"""

from __future__ import annotations

import gc
import json
import tempfile
import weakref

import pytest

from repro.chargers.plugshare import CatalogSpec, generate_catalog
from repro.core.ecocharge import EcoChargeConfig, EcoChargeRanker
from repro.core.environment import ChargingEnvironment
from repro.core.ranking import run_over_trip
from repro.durability.session import DurabilityConfig
from repro.experiments.harness import HarnessConfig
from repro.experiments.observability_report import run_traced_trip
from repro.network.builders import NetworkSpec, build_city_network
from repro.network.graph import EdgeWeight
from repro.network.path import Trip
from repro.observability import (
    NOOP_TELEMETRY,
    MetricError,
    MetricsRegistry,
    SimulatedClock,
    SystemClock,
    Telemetry,
    Tracer,
    canonical_json,
    iso_utc,
    WindowedAggregator,
    json_round_trips,
    parse_prometheus,
    render_json,
    render_prometheus,
)
from repro.observability.export import ExpositionError
from repro.observability.metrics import MetricFamily, field_readings, hit_ratio
from repro.observability.tracing import trip_correlation_id
from repro.resilience.errors import TransientUpstreamError
from repro.resilience.faults import CrashPoint, FaultInjector, SessionCrash
from repro.server.eis import EcoChargeInformationServer
from repro.server.scheduling import SchedulerConfig, ShardedScheduler
from repro.server.sessions import DurableSessionService

# ---------------------------------------------------------------------------
# clocks
# ---------------------------------------------------------------------------


class TestClocks:
    def test_system_clock_is_monotonic(self):
        clock = SystemClock()
        a = clock.monotonic()
        b = clock.monotonic()
        assert b >= a
        assert clock.now() > 1.6e9  # sanity: past 2020

    def test_simulated_clock_ticks_on_monotonic(self):
        clock = SimulatedClock(start_s=100.0, tick_s=0.5)
        assert clock.monotonic() == 100.0
        assert clock.monotonic() == 100.5
        assert clock.now() == 101.0  # now() reads without advancing? no:
        # now() tracks the same simulated instant the monotonic reads
        # advanced to — two reads above moved time to 101.0.

    def test_simulated_clock_advance(self):
        clock = SimulatedClock(start_s=0.0, tick_s=0.0)
        clock.advance(2.5)
        assert clock.monotonic() == 2.5
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_simulated_clock_rejects_negative_tick(self):
        with pytest.raises(ValueError):
            SimulatedClock(tick_s=-0.1)

    def test_iso_utc_is_stable(self):
        assert iso_utc(1700000000.0) == "2023-11-14T22:13:20.000Z"
        assert iso_utc(0.0) == "1970-01-01T00:00:00.000Z"


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_and_gauge_samples(self):
        registry = MetricsRegistry()
        requests = registry.counter("requests_total", "requests", labels=("route",))
        requests.labels(route="/rank").inc()
        requests.labels(route="/rank").inc(2.0)
        depth = registry.gauge("queue_depth", "depth")
        depth.set(7.0)
        depth.dec(2.0)
        assert registry.sample_value("requests_total", {"route": "/rank"}) == 3.0
        assert registry.sample_value("queue_depth") == 5.0

    def test_read_through_sources_sum_and_replace_by_owner(self):
        registry = MetricsRegistry()
        family = registry.counter("events_total", "events", labels=("event",))
        first = {"hits": 2.0}
        family.read_from("a", lambda: {("hits",): first["hits"]})
        family.read_from("b", lambda: {("hits",): 5.0, ("misses",): 1.0})
        family.labels(event="hits").inc()
        assert registry.sample_value("events_total", {"event": "hits"}) == 8.0
        first["hits"] = 4.0  # the owner counts on; no further call
        assert registry.sample_value("events_total", {"event": "hits"}) == 10.0
        family.read_from("b", lambda: {("hits",): 0.0})  # same owner replaces
        assert registry.sample_value("events_total", {"event": "hits"}) == 5.0
        assert registry.sample_value("events_total", {"event": "misses"}) is None

    def test_freeze_keeps_the_reading_and_drops_the_reader(self):
        registry = MetricsRegistry()
        family = registry.counter("events_total", "events", labels=("event",))
        counts = {"hits": 3.0}
        family.read_from("owner", lambda: {("hits",): counts["hits"]})
        registry.freeze("owner")
        counts["hits"] = 99.0
        assert registry.sample_value("events_total", {"event": "hits"}) == 3.0

    def test_sources_are_seen_like_counted_children(self):
        clock = SimulatedClock(start_s=0.0, tick_s=0.0)
        registry = MetricsRegistry()
        family = registry.counter("events_total", "events", labels=("event",))
        counts = {"hits": 1.0}
        family.read_from("owner", lambda: {("hits",): counts["hits"]})
        windows = WindowedAggregator(registry, clock)
        windows.sample()
        clock.advance(10.0)
        counts["hits"] = 4.0
        windows.sample()
        assert windows.counter_delta("events_total", {"event": "hits"}, 10.0) == 3.0
        assert [(key, child.value) for key, child in family.children()] == [(("hits",), 4.0)]
        assert registry.snapshot()["events_total"]["samples"] == [
            {"labels": {"event": "hits"}, "value": 4.0}
        ]
        assert 'events_total{event="hits"} 4' in render_prometheus(registry)

    def test_read_through_rejects_histograms_and_bad_keys(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.histogram("h_seconds", "h").read_from("owner", dict)
        family = registry.counter("events_total", "events", labels=("event",))
        family.read_from("owner", lambda: {("a", "b"): 1.0})
        with pytest.raises(MetricError):
            family.values()

    def test_hit_ratio(self):
        assert hit_ratio(0, 0) == 0.0
        assert hit_ratio(3, 1) == 0.75

    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("c_total", "c").inc(-1.0)

    def test_label_schema_is_validated(self):
        registry = MetricsRegistry()
        family = registry.counter("hits_total", "hits", labels=("kind",))
        with pytest.raises(MetricError):
            family.labels(wrong="x")
        with pytest.raises(MetricError):
            family.inc()  # labelled family needs labels()

    def test_registration_is_idempotent_but_collision_safe(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "x")
        assert registry.counter("x_total", "x") is first
        with pytest.raises(MetricError):
            registry.gauge("x_total", "x")
        with pytest.raises(MetricError):
            registry.counter("x_total", "x", labels=("other",))

    def test_bad_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("9starts_with_digit", "bad")
        with pytest.raises(MetricError):
            registry.counter("ok_total", "bad label", labels=("__reserved",))

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        latency = registry.histogram("lat_seconds", "lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            latency.observe(value)
        (sample,) = latency.samples()
        # Integral bounds render without the trailing ".0" (format_float).
        assert sample["buckets"] == {"0.1": 1, "1": 3, "+Inf": 4}
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(6.05)

    def test_histogram_bounds_must_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.histogram("h_seconds", "h", buckets=(1.0, 1.0))
        with pytest.raises(MetricError):
            registry.histogram("h2_seconds", "h", buckets=())

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "a").inc()
        registry.histogram("b_seconds", "b", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["a_total"]["type"] == "counter"


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def _tracer() -> Tracer:
    return Tracer(SimulatedClock(tick_s=0.001))


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = _tracer()
        with tracer.span("root", tier="server"):
            with tracer.span("child", tier="ranker"):
                pass
            with tracer.span("sibling", tier="cache"):
                pass
        (root,) = tracer.traces
        assert [c.name for c in root.children] == ["child", "sibling"]
        assert root.tiers() == {"server", "ranker", "cache"}

    def test_span_ids_are_deterministic(self):
        names_a = [s.span_id for s in _run_three(_tracer())]
        names_b = [s.span_id for s in _run_three(_tracer())]
        assert names_a == names_b

    def test_children_inherit_trace_id_even_when_overridden(self):
        tracer = _tracer()
        with tracer.span("root", tier="server", trace_id="trip-abc"):
            with tracer.span("child", tier="ranker", trace_id="trip-IGNORED"):
                pass
        (root,) = tracer.traces
        assert root.trace_id == "trip-abc"
        assert root.children[0].trace_id == "trip-abc"

    def test_self_time_excludes_children(self):
        clock = SimulatedClock(tick_s=0.0)
        tracer = Tracer(clock)
        with tracer.span("root", tier="server"):
            clock.advance(1.0)
            with tracer.span("child", tier="ranker"):
                clock.advance(3.0)
        (root,) = tracer.traces
        assert root.duration_s == pytest.approx(4.0)
        assert root.self_time_s == pytest.approx(1.0)

    def test_hot_spans_ranked_by_self_time(self):
        clock = SimulatedClock(tick_s=0.0)
        tracer = Tracer(clock)
        with tracer.span("fast", tier="a"):
            clock.advance(0.1)
        with tracer.span("slow", tier="b"):
            clock.advance(2.0)
        rows = tracer.hot_spans(2)
        assert [row["name"] for row in rows] == ["slow", "fast"]
        assert rows[0]["count"] == 1

    def test_exception_marks_error_and_reraises(self):
        tracer = _tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom", tier="server"):
                raise RuntimeError("kaput")
        (root,) = tracer.traces
        assert root.status == "error"
        assert "kaput" in (root.error or "")

    def test_mark_error_without_propagation(self):
        tracer = _tracer()
        with tracer.span("handled", tier="ranker"):
            tracer.mark_error(ValueError("soft failure"))
        (root,) = tracer.traces
        assert root.status == "error"

    def test_events_attach_to_active_span(self):
        tracer = _tracer()
        with tracer.span("fetch", tier="gateway"):
            tracer.event("gateway.ladder", level="cached")
        (root,) = tracer.traces
        assert [e.name for e in root.events] == ["gateway.ladder"]
        assert root.events[0].attributes["level"] == "cached"

    def test_traces_are_bounded(self):
        tracer = Tracer(SimulatedClock(tick_s=0.001), max_traces=3)
        for index in range(5):
            with tracer.span(f"t{index}", tier="server"):
                pass
        assert [t.name for t in tracer.traces] == ["t2", "t3", "t4"]

    def test_render_trace_shows_tree(self):
        tracer = _tracer()
        with tracer.span("root", tier="server"):
            with tracer.span("leaf", tier="cache"):
                pass
        text = tracer.render_trace(tracer.traces[0])
        assert "root" in text and "leaf" in text and "<cache>" in text

    def test_as_dict_round_trips_through_json(self):
        tracer = _tracer()
        with tracer.span("root", tier="server", k=3):
            tracer.event("hello", n=1)
        payload = tracer.traces[0].as_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestTripCorrelationId:
    def test_same_trip_same_id(self, small_environment, sample_trip):
        assert trip_correlation_id(sample_trip) == trip_correlation_id(sample_trip)
        assert trip_correlation_id(sample_trip).startswith("trip-")

    def test_different_departure_different_id(self, small_environment):
        network = small_environment.network
        nodes = sorted(network.node_ids())
        early = Trip.route(network, nodes[0], nodes[-1], departure_time_h=8.0)
        late = Trip.route(network, nodes[0], nodes[-1], departure_time_h=9.0)
        assert trip_correlation_id(early) != trip_correlation_id(late)


def _run_three(tracer: Tracer):
    with tracer.span("a", tier="x"):
        with tracer.span("b", tier="x"):
            pass
    with tracer.span("c", tier="x"):
        pass
    return list(tracer.finished_spans())


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


class TestExporters:
    def _registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("reqs_total", "requests", labels=("route",)).labels(
            route="/rank"
        ).inc(3)
        registry.gauge("depth", "queue depth").set(2.5)
        registry.histogram("lat_seconds", "latency", buckets=(0.1, 1.0)).observe(0.5)
        return registry

    def test_prometheus_render_parses(self):
        text = render_prometheus(self._registry())
        families = parse_prometheus(text)
        assert set(families) == {"reqs_total", "depth", "lat_seconds"}
        assert families["lat_seconds"]["type"] == "histogram"

    def test_histogram_exposition_has_bucket_sum_count(self):
        text = render_prometheus(self._registry())
        assert 'lat_seconds_bucket{le="0.1"} 0' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_sum 0.5" in text
        assert "lat_seconds_count 1" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "c", labels=("path",)).labels(
            path='a"b\\c\nd'
        ).inc()
        text = render_prometheus(registry)
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        parse_prometheus(text)  # still well-formed

    @pytest.mark.parametrize(
        "bad",
        [
            "no_type_header 1\n",
            "# TYPE x counter\nx{unclosed 1\n",
            "# TYPE x counter\nx not-a-number\n",
            "# TYPE x counter\ny 1\n",  # sample without declared family
        ],
    )
    def test_malformed_exposition_rejected(self, bad):
        with pytest.raises(ExpositionError):
            parse_prometheus(bad)

    def test_json_snapshot_is_canonical(self):
        text = render_json(self._registry())
        assert json_round_trips(text)
        assert json.loads(text)["metrics"]["depth"]["type"] == "gauge"

    def test_json_includes_traces_and_extra(self):
        tracer = _tracer()
        with tracer.span("root", tier="server"):
            pass
        text = render_json(
            self._registry(), traces=list(tracer.traces), extra={"report": "obs"}
        )
        payload = json.loads(text)
        assert payload["report"] == "obs"
        assert payload["traces"][0]["name"] == "root"
        assert json_round_trips(text)

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


# ---------------------------------------------------------------------------
# telemetry facade / disabled path
# ---------------------------------------------------------------------------


class TestTelemetryFacade:
    def test_noop_records_nothing(self):
        assert not NOOP_TELEMETRY.enabled
        with NOOP_TELEMETRY.span("anything", tier="server"):
            NOOP_TELEMETRY.event("ignored")
            NOOP_TELEMETRY.inc("ecocharge_trips_total")
            NOOP_TELEMETRY.observe("ecocharge_segment_seconds", 0.1)
        assert list(NOOP_TELEMETRY.tracer.finished_spans()) == []
        assert list(NOOP_TELEMETRY.registry.families()) == []

    def test_native_families_predeclared(self):
        telemetry = Telemetry.simulated()
        names = {family.name for family in telemetry.registry.families()}
        assert "ecocharge_trips_total" in names
        assert "ecocharge_segment_seconds" in names
        assert "ecocharge_gateway_ladder_total" in names

    def test_inc_on_unknown_metric_raises(self):
        telemetry = Telemetry.simulated()
        with pytest.raises(MetricError):
            telemetry.inc("never_declared_total")

    def test_environment_default_is_noop(self, small_network, small_registry):
        environment = ChargingEnvironment(small_network, small_registry, seed=5)
        assert environment.telemetry is NOOP_TELEMETRY
        assert environment.engine.telemetry is NOOP_TELEMETRY

    def test_set_telemetry_reaches_engine(self, small_network, small_registry):
        environment = ChargingEnvironment(small_network, small_registry, seed=5)
        telemetry = Telemetry.simulated()
        environment.set_telemetry(telemetry)
        assert environment.engine.telemetry is telemetry


# ---------------------------------------------------------------------------
# integration: failure semantics + six-tier trace + reconciliation
# ---------------------------------------------------------------------------

CONFIG = EcoChargeConfig(k=3, segment_km=2.0)


def _build_environment() -> ChargingEnvironment:
    network = build_city_network(
        NetworkSpec(width_km=16.0, height_km=12.0, block_km=1.5, seed=42)
    )
    registry = generate_catalog(
        network, CatalogSpec(charger_count=60, hotspots=3, seed=7)
    )
    return ChargingEnvironment(network, registry, seed=5)


def _trip_for(environment: ChargingEnvironment) -> Trip:
    nodes = sorted(environment.network.node_ids())
    return Trip.route(environment.network, nodes[0], nodes[-1], departure_time_h=10.0)


class FailingRanker:
    """Delegates to EcoCharge but dies with an upstream error once."""

    def __init__(self, inner: EcoChargeRanker, fail_at: int):
        self.inner = inner
        self.fail_at = fail_at
        self.name = inner.name

    def rank_segment(self, trip, segment, eta_h, now_h, next_segment=None):
        table = self.inner.rank_segment(
            trip, segment, eta_h=eta_h, now_h=now_h, next_segment=next_segment
        )
        if segment.index == self.fail_at:
            raise TransientUpstreamError("busy", "provider died mid-segment")
        return table

    def reset(self):
        self.inner.reset()

    def checkpoint_state(self):
        return self.inner.checkpoint_state()

    def restore_state(self, state):
        self.inner.restore_state(state)


class TestFailureTelemetry:
    def test_upstream_error_marks_segment_span_error(self):
        environment = _build_environment()
        telemetry = Telemetry.simulated()
        environment.set_telemetry(telemetry)
        trip = _trip_for(environment)
        fail_at = trip.segments(CONFIG.segment_km)[2].index
        ranker = FailingRanker(EcoChargeRanker(environment, CONFIG), fail_at)
        run = run_over_trip(ranker, environment, trip, segment_km=CONFIG.segment_km)
        assert fail_at in run.failed_segments

        (root,) = telemetry.tracer.traces
        assert root.status == "ok"  # the trip survived the segment failure
        segment_spans = [s for s in root.walk() if s.name == "ranker.segment"]
        failed = [s for s in segment_spans if s.attributes["segment"] == fail_at]
        assert [s.status for s in failed] == ["error"]
        assert all(
            s.status == "ok" for s in segment_spans if s.attributes["segment"] != fail_at
        )
        assert telemetry.registry.sample_value(
            "ecocharge_segments_total", {"outcome": "failed"}
        ) == 1.0
        assert telemetry.registry.sample_value(
            "ecocharge_segments_total", {"outcome": "ok"}
        ) == float(len(run.tables))

    def test_session_crash_closes_spans_as_error(self, tmp_path):
        environment = _build_environment()
        telemetry = Telemetry.simulated()
        environment.set_telemetry(telemetry)
        injector = FaultInjector(
            seed=0, crash_plan=[CrashPoint("mid-segment", at_occurrence=2)]
        )
        server = EcoChargeInformationServer(environment, injector=injector)
        service = DurableSessionService(
            server, tmp_path, DurabilityConfig(snapshot_every=2, fsync=False)
        )
        trip = _trip_for(environment)
        with pytest.raises(SessionCrash):
            service.rank_trip_durably("s1", trip, CONFIG)

        (root,) = telemetry.tracer.traces
        assert root.name == "server.rank_trip_durably"
        assert root.status == "error"
        # Every ancestor of the crash point closed as error too.
        trip_span = next(s for s in root.walk() if s.name == "ranker.trip")
        assert trip_span.status == "error"

    def test_gateway_fetch_emits_exactly_one_ladder_event(self):
        environment = _build_environment()
        telemetry = Telemetry.simulated()
        environment.set_telemetry(telemetry)
        server = EcoChargeInformationServer(environment)
        trip = _trip_for(environment)
        server.rank_trip(trip, CONFIG)
        fetches = [
            s
            for root in telemetry.tracer.traces
            for s in root.walk()
            if s.name == "gateway.fetch"
        ]
        assert fetches, "server-side ranking must exercise the gateway"
        for span in fetches:
            ladder = [e for e in span.events if e.name == "gateway.ladder"]
            assert len(ladder) == 1
            level = ladder[0].attributes["level"]
            assert telemetry.registry.sample_value(
                "ecocharge_gateway_ladder_total",
                {"endpoint": span.attributes["endpoint"], "level": level},
            ) >= 1.0


class TestSixTierIntegration:
    REQUIRED = {"server", "gateway", "ranker", "engine", "cache", "journal"}

    def test_durable_trip_covers_all_tiers_under_one_trace(self, tmp_path):
        environment = _build_environment()
        telemetry = Telemetry.simulated()
        environment.set_telemetry(telemetry)
        server = EcoChargeInformationServer(environment)
        service = DurableSessionService(
            server, tmp_path, DurabilityConfig(snapshot_every=2, fsync=False)
        )
        trip = _trip_for(environment)
        run = service.rank_trip_durably("s1", trip, CONFIG)
        assert run.tables

        (root,) = telemetry.tracer.traces
        assert root.tiers() >= self.REQUIRED
        ids = {span.trace_id for span in root.walk()}
        assert ids == {trip_correlation_id(trip)}

        assert telemetry.registry.sample_value("ecocharge_trips_total") == 1.0
        assert telemetry.registry.sample_value(
            "ecocharge_segments_total", {"outcome": "ok"}
        ) == float(len(run.tables))
        appended = telemetry.registry.sample_value(
            "ecocharge_journal_appends_total", {"record_type": "segment"}
        )
        assert appended == float(len(run.tables))

    def test_crash_resume_does_not_double_count(self, tmp_path):
        telemetry = Telemetry.simulated()

        environment = _build_environment()
        environment.set_telemetry(telemetry)
        injector = FaultInjector(
            seed=0, crash_plan=[CrashPoint("mid-segment", at_occurrence=2)]
        )
        server = EcoChargeInformationServer(environment, injector=injector)
        service = DurableSessionService(
            server, tmp_path, DurabilityConfig(snapshot_every=2, fsync=False)
        )
        trip = _trip_for(environment)
        with pytest.raises(SessionCrash):
            service.rank_trip_durably("s1", trip, CONFIG)

        # Restarted process: fresh environment + server, same recorder.
        environment2 = _build_environment()
        environment2.set_telemetry(telemetry)
        server2 = EcoChargeInformationServer(environment2)
        service2 = DurableSessionService(
            server2, tmp_path, DurabilityConfig(snapshot_every=2, fsync=False)
        )
        run = service2.resume_and_finish("s1")
        segments = trip.segments(CONFIG.segment_km)
        assert len(run.tables) == len(segments)

        # One logical trip -> one trips_total, despite two processes.
        assert telemetry.registry.sample_value("ecocharge_trips_total") == 1.0
        # Restored segments are not re-ranked, so ok-segments counted
        # across both processes equals the segment count exactly.
        assert telemetry.registry.sample_value(
            "ecocharge_segments_total", {"outcome": "ok"}
        ) == float(len(segments))

        # Both processes' traces share the content-hashed trip ID.
        ids = {root.trace_id for root in telemetry.tracer.traces}
        assert ids == {trip_correlation_id(trip)}
        assert len(telemetry.tracer.traces) == 2

    def test_resume_counts_cache_and_journal_once(self, tmp_path):
        telemetry = Telemetry.simulated()
        environment = _build_environment()
        environment.set_telemetry(telemetry)
        injector = FaultInjector(
            seed=0, crash_plan=[CrashPoint("mid-journal-append", at_occurrence=2)]
        )
        server = EcoChargeInformationServer(environment, injector=injector)
        service = DurableSessionService(
            server, tmp_path, DurabilityConfig(snapshot_every=2, fsync=False)
        )
        trip = _trip_for(environment)
        with pytest.raises(SessionCrash):
            service.rank_trip_durably("s1", trip, CONFIG)

        environment2 = _build_environment()
        environment2.set_telemetry(telemetry)
        server2 = EcoChargeInformationServer(environment2)
        service2 = DurableSessionService(
            server2, tmp_path, DurabilityConfig(snapshot_every=2, fsync=False)
        )
        session = service2.resume("s1")
        try:
            session.run()
        finally:
            service2.close(session)
        assert session.accounting_ok()

        # The resumed session restored its counters from the journal and
        # replaced the crashed session's source (same session id), so the
        # exported totals are the session's own — not crashed + resumed.
        registry = telemetry.registry
        for event, value in field_readings(session.ranker.cache_stats).items():
            assert registry.sample_value("ecocharge_cache_events", {"event": event[0]}) == value
        for event, value in field_readings(session.accounting).items():
            assert (
                registry.sample_value("ecocharge_journal_cache_events", {"event": event[0]})
                == value
            )
        assert session.accounting.hits + session.accounting.misses > 0
        assert server2.gateway.accounting_ok()
        # Engines and gateways of both processes are distinct owners: they sum.
        assert registry.sample_value(
            "ecocharge_engine_events", {"event": "searches"}
        ) == float(environment.engine.stats.searches + environment2.engine.stats.searches)
        assert registry.sample_value("ecocharge_api_calls", {"endpoint": "busy"}) == float(
            server.usage.busy_calls + server2.usage.busy_calls
        )

        text = render_prometheus(telemetry.registry)
        parse_prometheus(text)
        assert json_round_trips(render_json(telemetry.registry))


# ---------------------------------------------------------------------------
# read-through: each stats object is the one store, read at collection
# ---------------------------------------------------------------------------


def _route_trip(environment: ChargingEnvironment, offset: int = 0) -> Trip:
    nodes = sorted(environment.network.node_ids())
    return Trip.route(
        environment.network, nodes[offset], nodes[-1 - offset], departure_time_h=10.0
    )


class TestReadThrough:
    def test_increment_after_registration_is_exported(self):
        environment = _build_environment()
        telemetry = Telemetry.simulated()
        environment.set_telemetry(telemetry)
        engine = environment.engine
        nodes = sorted(environment.network.node_ids())
        engine.one_to_many(nodes[0], nodes[1:5], EdgeWeight.DISTANCE_KM)
        searches = engine.stats.searches
        assert searches > 0
        # A further search, then read: no call between count and export.
        engine.one_to_many(nodes[7], nodes[1:5], EdgeWeight.DISTANCE_KM)
        assert engine.stats.searches > searches
        sample = telemetry.registry.sample_value(
            "ecocharge_engine_events", {"event": "searches"}
        )
        assert sample == float(engine.stats.searches)
        line = f'ecocharge_engine_events{{event="searches"}} {engine.stats.searches}'
        assert line in render_prometheus(telemetry.registry).splitlines()

    def test_two_shard_engines_on_one_registry_sum(self):
        telemetry = Telemetry.simulated(tick_s=0.0)
        base = _build_environment()

        def factory() -> ChargingEnvironment:
            return ChargingEnvironment(
                base.network, base.registry, seed=5, telemetry=telemetry
            )

        scheduler = ShardedScheduler(
            factory,
            SchedulerConfig(shards=2, queue_capacity=8),
            CONFIG,
            clock=telemetry.clock,
            telemetry=telemetry,
        )
        by_shard = {}
        for offset in range(12):
            trip = _route_trip(base, offset)
            by_shard.setdefault(scheduler.shard_for(trip), trip)
        assert len(by_shard) == 2
        for trip in by_shard.values():
            scheduler.submit("tenant", trip)
        scheduler.drain()
        per_shard = [shard.environment.engine.stats.searches for shard in scheduler.shards]
        assert all(count > 0 for count in per_shard), per_shard
        assert telemetry.registry.sample_value(
            "ecocharge_engine_events", {"event": "searches"}
        ) == float(sum(per_shard))

    def test_closed_session_leaves_no_reference_and_keeps_counts(self, tmp_path):
        environment = _build_environment()
        telemetry = Telemetry.simulated()
        environment.set_telemetry(telemetry)
        server = EcoChargeInformationServer(environment)
        service = DurableSessionService(
            server, tmp_path, DurabilityConfig(snapshot_every=2, fsync=False)
        )
        session = service.open("s1", _trip_for(environment), CONFIG)
        session.run()
        service.close(session)
        expected = field_readings(session.ranker.cache_stats)
        journaled = field_readings(session.accounting)
        assert expected[("hits",)] + expected[("misses",)] > 0

        ref = weakref.ref(session)
        del session
        gc.collect()
        assert ref() is None
        registry = telemetry.registry
        for (event,), value in expected.items():
            assert registry.sample_value("ecocharge_cache_events", {"event": event}) == value
        for (event,), value in journaled.items():
            assert (
                registry.sample_value("ecocharge_journal_cache_events", {"event": event})
                == value
            )

    def test_noop_telemetry_registers_no_source(self, monkeypatch):
        calls: list[str] = []
        read_from = MetricFamily.read_from

        def spy(family, owner, reader):
            calls.append(family.name)
            read_from(family, owner, reader)

        monkeypatch.setattr(MetricFamily, "read_from", spy)
        base = _build_environment()

        def build(telemetry: Telemetry) -> None:
            environment = ChargingEnvironment(
                base.network, base.registry, seed=5, telemetry=telemetry
            )
            EcoChargeInformationServer(environment)
            ShardedScheduler(
                lambda: ChargingEnvironment(
                    base.network, base.registry, seed=5, telemetry=telemetry
                ),
                SchedulerConfig(shards=2),
                CONFIG,
                telemetry=telemetry,
            )

        build(NOOP_TELEMETRY)
        assert calls == []
        assert list(NOOP_TELEMETRY.registry.families()) == []
        # Control: the same build on a live recorder does register.
        live = Telemetry.simulated()
        calls.clear()
        build(live)
        assert {
            "ecocharge_engine_events",
            "ecocharge_gateway_ladder_total",
            "ecocharge_scheduler_requests_total",
        } <= set(calls)


class TestObservabilityReport:
    def test_traced_trip_leaves_no_session_directory(self, tmp_path, monkeypatch):
        """The durable session's journal lives in a temporary directory
        that is gone once the report has its numbers."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        result = run_traced_trip(HarnessConfig(k=3, dataset_scale=0.1))
        assert result["tables"] > 0
        assert result["mismatches"] == []
        assert list(tmp_path.glob("observability-*")) == []
