"""The SLO stack: windows, burn rates, alerts, tail sampling, exemplars.

Unit evidence for the live-ops layer that ``python -m repro.experiments
slo`` exercises end-to-end:

* window deltas over the metrics registry are exact and prune-safe;
* burn-rate math matches the SRE-workbook definition (capped, finite);
* the alert state machine walks inactive → pending → firing → resolved
  deterministically, with ``for_s`` maturation on the injected clock;
* tail sampling never evicts an error/deadline/degraded trace — the
  regression the old FIFO ring failed (documented here too);
* ``histogram_quantile`` agrees with the nearest-rank ``percentile``
  oracle when observations sit exactly on bucket bounds (hypothesis);
* the cardinality guard accounts every overflow exactly;
* Prometheus exposition escaping round-trips ``\\``, ``"``, newlines and
  braces inside quoted label values;
* firing alerts raise the brownout floor only behind the
  ``alert_driven_brownout`` flag.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import (
    STATE_CODES,
    AlertManager,
    HistogramWindow,
    MetricsRegistry,
    SimulatedClock,
    Span,
    Telemetry,
    Tracer,
    WindowedAggregator,
)
from repro.observability.export import (
    ExpositionError,
    parse_prometheus,
    parse_sample_line,
    render_prometheus,
    unescape_label,
)
from repro.observability.metrics import (
    DEFAULT_LABEL_VALUE_LIMIT,
    DEFAULT_LATENCY_BUCKETS,
    OVERFLOW_BUCKET,
    OVERFLOW_COUNTER,
    Histogram,
    MetricError,
    histogram_quantile,
)
from repro.observability.sampling import (
    MUST_KEEP_REASONS,
    REASON_ATTRIBUTE,
    SamplingPolicy,
    TailSampler,
    collect_exemplars,
    hash_fraction,
    retained_trace_ids,
)
from repro.observability.slo import (
    BURN_CAP,
    BurnSignal,
    BurnWindowPair,
    EventRatioSLO,
    LatencyBucketSLO,
    SLOEngine,
    SERVING_OUTCOMES,
    ZeroEventSLO,
    default_serving_slos,
)
from repro.server.scheduling import (
    BrownoutController,
    BrownoutLevel,
    Outcome,
    SchedulerConfig,
    ShardedScheduler,
)
from repro.server.scheduling.brownout import floor_for_alert_severities
from repro.simulation.load import percentile


def _clock() -> SimulatedClock:
    return SimulatedClock(start_s=0.0, tick_s=0.0)


# ---------------------------------------------------------------------------
# Sliding windows


class TestWindowedAggregator:
    def test_counter_delta_over_windows(self):
        clock = _clock()
        registry = MetricsRegistry()
        family = registry.counter("reqs_total", "requests", labels=("outcome",))
        agg = WindowedAggregator(registry, clock, horizon_s=600.0)

        agg.sample()  # t=0 baseline
        family.labels(outcome="ok").inc(5)
        clock.advance(10.0)
        agg.sample()  # t=10
        assert agg.counter_delta("reqs_total", {"outcome": "ok"}, 10.0) == 5.0

        family.labels(outcome="ok").inc(2)
        clock.advance(10.0)
        agg.sample()  # t=20
        # Trailing 10 s: 7 - 5; trailing 30 s reaches before birth: full 7.
        assert agg.counter_delta("reqs_total", {"outcome": "ok"}, 10.0) == 2.0
        assert agg.counter_delta("reqs_total", {"outcome": "ok"}, 30.0) == 7.0

    def test_reads_before_any_sample_are_zero(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", "requests")
        agg = WindowedAggregator(registry, _clock())
        assert agg.counter_delta("reqs_total", None, 60.0) == 0.0
        assert len(agg) == 0

    def test_series_born_mid_horizon_reads_full_value(self):
        # A label set that first appears after the baseline sample must
        # read its whole total as the delta (past lookup finds nothing).
        clock = _clock()
        registry = MetricsRegistry()
        family = registry.counter("reqs_total", "requests", labels=("outcome",))
        agg = WindowedAggregator(registry, clock)
        agg.sample()
        family.labels(outcome="late").inc(3)
        clock.advance(5.0)
        agg.sample()
        assert agg.counter_delta("reqs_total", {"outcome": "late"}, 60.0) == 3.0

    def test_unknown_metric_rejected(self):
        agg = WindowedAggregator(MetricsRegistry(), _clock())
        agg.sample()
        with pytest.raises(ValueError, match="not registered"):
            agg.counter_delta("nope_total", None, 10.0)
        with pytest.raises(ValueError, match="not a registered histogram"):
            agg.histogram_delta("nope_total", None, 10.0)

    def test_out_of_order_samples_rejected(self):
        class Rewindable:
            now = 10.0

            def monotonic(self) -> float:
                return self.now

        clock = Rewindable()
        agg = WindowedAggregator(MetricsRegistry(), clock)
        agg.sample()
        clock.now = 5.0
        with pytest.raises(ValueError, match="clock order"):
            agg.sample()

    def test_histogram_delta(self):
        clock = _clock()
        registry = MetricsRegistry()
        family = registry.histogram("lat_seconds", "latency", buckets=(1.0, 2.0))
        agg = WindowedAggregator(registry, clock)
        family.observe(0.5)
        clock.advance(10.0)
        agg.sample()  # t=10: cum (1, 1, 1)
        family.observe(1.5)
        family.observe(9.0)
        clock.advance(10.0)
        agg.sample()  # t=20: cum (1, 2, 3)
        window = agg.histogram_delta("lat_seconds", None, 10.0)
        assert window == HistogramWindow(
            bounds=(1.0, 2.0), cumulative=(0, 1, 2), sum=10.5, count=2
        )
        full = agg.histogram_delta("lat_seconds", None, 60.0)
        assert full.cumulative == (1, 2, 3)
        assert full.count == 3

    def test_histogram_delta_before_any_sample_is_zero(self):
        registry = MetricsRegistry()
        registry.histogram("lat_seconds", "latency", buckets=(1.0,))
        agg = WindowedAggregator(registry, _clock())
        window = agg.histogram_delta("lat_seconds", None, 10.0)
        assert window.cumulative == (0, 0)
        assert window.count == 0

    def test_pruning_keeps_full_horizon_baseline(self):
        clock = _clock()
        registry = MetricsRegistry()
        family = registry.counter("reqs_total", "requests")
        agg = WindowedAggregator(registry, clock, horizon_s=30.0)
        for _ in range(20):
            family.inc()
            clock.advance(10.0)
            agg.sample()
        # Samples older than the horizon are pruned (plus one baseline)...
        assert len(agg) <= 5
        # ...but the full-horizon window still subtracts a real baseline:
        # 3 increments land inside the trailing 30 s.
        assert agg.counter_delta("reqs_total", None, 30.0) == 3.0

    def test_positive_horizon_required(self):
        with pytest.raises(ValueError):
            WindowedAggregator(MetricsRegistry(), _clock(), horizon_s=0.0)


# ---------------------------------------------------------------------------
# Burn-rate math


def _ratio_fixture(good: int, bad: int, target: float = 0.9):
    clock = _clock()
    registry = MetricsRegistry()
    family = registry.counter("reqs_total", "requests", labels=("outcome",))
    agg = WindowedAggregator(registry, clock)
    agg.sample()
    if good:
        family.labels(outcome="completed").inc(good)
    if bad:
        family.labels(outcome="failed").inc(bad)
    clock.advance(60.0)
    agg.sample()
    slo = EventRatioSLO(
        name="availability",
        metric="reqs_total",
        good_labels=[{"outcome": "completed"}],
        total_labels=[{"outcome": "completed"}, {"outcome": "failed"}],
        target=target,
    )
    return slo, agg


class TestServingOutcomes:
    """The availability SLO's denominator spells the outcomes as literals
    (observability may not import the server tier): a new ``Outcome``
    must fail here rather than silently drop out of the denominator."""

    def test_literals_equal_the_outcome_enum(self):
        assert SERVING_OUTCOMES == tuple(outcome.value for outcome in Outcome)

    def test_literals_equal_the_scheduler_reader_labels(self, small_network, small_registry):
        from repro.core.environment import ChargingEnvironment

        telemetry = Telemetry.simulated(tick_s=0.0)
        ShardedScheduler(
            lambda: ChargingEnvironment(small_network, small_registry, seed=5),
            SchedulerConfig(shards=1),
            telemetry=telemetry,
        )
        family = telemetry.registry.get("ecocharge_scheduler_requests_total")
        exported = {key[0] for key in family.values()}
        assert exported == set(SERVING_OUTCOMES)


class TestBurnMath:
    def test_burn_one_consumes_budget_exactly(self):
        # 10% bad against a 90% target: burn == 1.0 by definition.
        slo, agg = _ratio_fixture(good=9, bad=1, target=0.9)
        assert slo.burn_rate(agg, 60.0) == pytest.approx(1.0)

    def test_burn_scales_with_bad_fraction(self):
        slo, agg = _ratio_fixture(good=5, bad=5, target=0.9)
        assert slo.burn_rate(agg, 60.0) == pytest.approx(5.0)

    def test_no_traffic_burns_nothing(self):
        slo, agg = _ratio_fixture(good=0, bad=0)
        assert slo.burn_rate(agg, 60.0) == 0.0

    def test_zero_budget_burn_is_capped_not_infinite(self):
        slo, agg = _ratio_fixture(good=9, bad=1, target=1.0)
        assert slo.burn_rate(agg, 60.0) == BURN_CAP

    def test_zero_event_slo(self):
        clock = _clock()
        registry = MetricsRegistry()
        family = registry.counter("unsound_total", "unsound tables")
        agg = WindowedAggregator(registry, clock)
        agg.sample()
        slo = ZeroEventSLO(name="soundness", metric="unsound_total")
        clock.advance(10.0)
        agg.sample()
        assert slo.burn_rate(agg, 10.0) == 0.0
        family.inc()
        clock.advance(10.0)
        agg.sample()
        assert slo.burn_rate(agg, 10.0) == BURN_CAP

    def test_latency_slo_counts_bucket_bound(self):
        clock = _clock()
        registry = MetricsRegistry()
        family = registry.histogram("lat_seconds", "latency", buckets=(0.5, 1.0, 2.0))
        agg = WindowedAggregator(registry, clock)
        agg.sample()
        for value in (0.1, 0.9, 1.0, 1.5):  # 3 of 4 at-or-under 1.0
            family.observe(value)
        clock.advance(30.0)
        agg.sample()
        slo = LatencyBucketSLO(
            name="latency", metric="lat_seconds", threshold_s=1.0, target=0.5
        )
        good, bad = slo.good_bad(agg, 30.0)
        assert (good, bad) == (3.0, 1.0)
        assert slo.burn_rate(agg, 30.0) == pytest.approx(0.5)

    def test_latency_threshold_must_be_a_bucket_bound(self):
        clock = _clock()
        registry = MetricsRegistry()
        registry.histogram("lat_seconds", "latency", buckets=(0.5, 1.0))
        agg = WindowedAggregator(registry, clock)
        agg.sample()
        slo = LatencyBucketSLO(
            name="latency", metric="lat_seconds", threshold_s=0.75, target=0.5
        )
        with pytest.raises(MetricError, match="not .* bucket bound"):
            slo.good_bad(agg, 30.0)

    def test_pair_and_objective_validation(self):
        with pytest.raises(ValueError):
            BurnWindowPair("page", long_s=1.0, short_s=2.0, threshold=1.0, for_s=0.0)
        with pytest.raises(ValueError):
            BurnWindowPair("page", long_s=10.0, short_s=5.0, threshold=0.0, for_s=0.0)
        with pytest.raises(ValueError):
            BurnWindowPair("page", long_s=10.0, short_s=5.0, threshold=1.0, for_s=-1.0)
        with pytest.raises(ValueError):
            ZeroEventSLO(name="x", metric="m", pairs=())
        with pytest.raises(ValueError):
            EventRatioSLO("x", "m", [], [], target=1.5)

    def test_engine_signal_order_and_names(self):
        clock = _clock()
        registry = MetricsRegistry()
        registry.counter("reqs_total", "requests", labels=("outcome",))
        agg = WindowedAggregator(registry, clock)
        agg.sample()
        pairs = (
            BurnWindowPair("page", 10.0, 5.0, 2.0, 0.0),
            BurnWindowPair("ticket", 30.0, 10.0, 1.0, 0.0),
        )
        engine = SLOEngine(
            agg,
            [
                EventRatioSLO(
                    "availability",
                    "reqs_total",
                    [{"outcome": "completed"}],
                    [{"outcome": "completed"}, {"outcome": "failed"}],
                    target=0.9,
                    pairs=pairs,
                ),
            ],
        )
        signals = engine.evaluate()
        assert [s.alert for s in signals] == [
            "availability:page",
            "availability:ticket",
        ]
        assert all(not s.active for s in signals)

    def test_engine_rejects_duplicates_and_empty(self):
        agg = WindowedAggregator(MetricsRegistry(), _clock())
        slo = ZeroEventSLO(name="x", metric="m")
        with pytest.raises(ValueError):
            SLOEngine(agg, [])
        with pytest.raises(ValueError, match="duplicate"):
            SLOEngine(agg, [slo, ZeroEventSLO(name="x", metric="n")])

    def test_default_serving_slos_cover_three_objectives(self):
        slos = default_serving_slos()
        assert [slo.name for slo in slos] == [
            "serving-availability",
            "serving-latency",
            "interval-soundness",
        ]
        # Soundness is the zero-budget objective.
        assert slos[2].target == 1.0


# ---------------------------------------------------------------------------
# Alert lifecycle


def _signal(active: bool, for_s: float = 2.0, name: str = "slo:page") -> BurnSignal:
    burn = 10.0 if active else 0.0
    return BurnSignal(
        alert=name,
        severity="page",
        active=active,
        burn_long=burn,
        burn_short=burn,
        for_s=for_s,
    )


class TestAlertLifecycle:
    def test_full_lifecycle(self):
        clock = _clock()
        manager = AlertManager(clock)
        manager.update([_signal(True)])  # t=0: inactive -> pending
        assert manager.states() == {"slo:page": "pending"}
        clock.advance(1.0)
        manager.update([_signal(True)])  # t=1: held 1 < for_s 2
        assert manager.states() == {"slo:page": "pending"}
        clock.advance(1.0)
        manager.update([_signal(True)])  # t=2: matured -> firing
        assert manager.states() == {"slo:page": "firing"}
        assert manager.firing() == [("slo:page", "page")]
        clock.advance(1.0)
        manager.update([_signal(False)])  # t=3: firing -> resolved
        assert manager.states() == {"slo:page": "resolved"}
        clock.advance(1.0)
        manager.update([_signal(False)])  # resolved is sticky
        assert manager.states() == {"slo:page": "resolved"}
        assert [(t["from"], t["to"], t["t"]) for t in manager.transitions] == [
            ("inactive", "pending", 0.0),
            ("pending", "firing", 2.0),
            ("firing", "resolved", 3.0),
        ]

    def test_pending_without_maturation_never_fires(self):
        clock = _clock()
        manager = AlertManager(clock)
        manager.update([_signal(True)])
        clock.advance(0.5)
        manager.update([_signal(False)])  # cleared before for_s
        assert manager.states() == {"slo:page": "inactive"}
        assert manager.firing() == []
        # ...but a previously-fired alert falls back to resolved instead.
        clock.advance(0.5)
        manager.update([_signal(True, for_s=0.0)])
        assert manager.states() == {"slo:page": "firing"}
        clock.advance(0.5)
        manager.update([_signal(True)])  # firing stays firing
        assert manager.states() == {"slo:page": "firing"}
        clock.advance(0.5)
        manager.update([_signal(False)])
        clock.advance(0.5)
        manager.update([_signal(True)])  # resolved -> pending
        clock.advance(0.5)
        manager.update([_signal(False)])  # pending, ever_fired -> resolved
        assert manager.states() == {"slo:page": "resolved"}

    def test_zero_for_s_fires_immediately(self):
        manager = AlertManager(_clock())
        new = manager.update([_signal(True, for_s=0.0)])
        assert manager.states() == {"slo:page": "firing"}
        assert [t["to"] for t in new] == ["firing"]

    def test_transition_log_is_deterministic(self):
        def run() -> list[dict]:
            clock = _clock()
            manager = AlertManager(clock)
            for active in (True, True, False, True, True, False):
                manager.update([_signal(active, for_s=1.0)])
                clock.advance(1.0)
            return manager.transitions

        assert run() == run()

    def test_registry_mirroring(self):
        clock = _clock()
        registry = MetricsRegistry()
        manager = AlertManager(clock, registry)
        manager.update([_signal(True, for_s=0.0)])
        assert registry.sample_value(
            "ecocharge_alert_state", {"alertname": "slo:page", "severity": "page"}
        ) == STATE_CODES["firing"]
        clock.advance(1.0)
        manager.update([_signal(False)])
        assert registry.sample_value(
            "ecocharge_alert_state", {"alertname": "slo:page", "severity": "page"}
        ) == STATE_CODES["resolved"]
        assert registry.sample_value(
            "ecocharge_alert_transitions_total",
            {"alertname": "slo:page", "to": "firing"},
        ) == 1.0
        assert registry.sample_value(
            "ecocharge_alert_transitions_total",
            {"alertname": "slo:page", "to": "resolved"},
        ) == 1.0

    def test_engine_to_alerts_integration(self):
        # Bad traffic through windows -> engine -> alerts, end to end.
        clock = _clock()
        registry = MetricsRegistry()
        family = registry.counter("reqs_total", "requests", labels=("outcome",))
        agg = WindowedAggregator(registry, clock)
        engine = SLOEngine(
            agg,
            [
                EventRatioSLO(
                    "availability",
                    "reqs_total",
                    [{"outcome": "completed"}],
                    [{"outcome": "completed"}, {"outcome": "failed"}],
                    target=0.9,
                    pairs=(BurnWindowPair("page", 10.0, 5.0, 2.0, 0.0),),
                )
            ],
        )
        manager = AlertManager(clock, registry)
        agg.sample()
        family.labels(outcome="failed").inc(10)
        clock.advance(1.0)
        agg.sample()
        manager.update(engine.evaluate())
        assert manager.firing() == [("availability:page", "page")]
        # Burn decays once the bleeding stops and the windows slide past.
        family.labels(outcome="completed").inc(500)
        clock.advance(11.0)
        agg.sample()
        manager.update(engine.evaluate())
        assert manager.states() == {"availability:page": "resolved"}


# ---------------------------------------------------------------------------
# Tail-based trace sampling


def _tracer(max_traces: int, policy: SamplingPolicy) -> tuple[SimulatedClock, Tracer]:
    clock = _clock()
    return clock, Tracer(clock, max_traces=max_traces, sampler=TailSampler(policy))


def _id_where(predicate) -> str:
    for i in range(10_000):
        candidate = f"probe-{i}"
        if predicate(hash_fraction(candidate)):
            return candidate
    raise AssertionError("no trace id found for predicate")


class TestTailSampling:
    def test_hash_fraction_deterministic_and_unit_range(self):
        ids = [f"t-{i:04d}" for i in range(100)]
        draws = [hash_fraction(trace_id) for trace_id in ids]
        assert draws == [hash_fraction(trace_id) for trace_id in ids]
        assert all(0.0 <= d < 1.0 for d in draws)
        # Not constant: the draws actually spread over the unit interval.
        assert max(draws) - min(draws) > 0.5

    def test_error_trace_classified_and_stamped(self):
        _, tracer = _tracer(8, SamplingPolicy(slow_k=0, sample_rate=0.0))
        with pytest.raises(RuntimeError):
            with tracer.span("req", "server"):
                raise RuntimeError("boom")
        assert len(tracer.traces) == 1
        assert tracer.traces[0].attributes[REASON_ATTRIBUTE] == "error"

    def test_deadline_and_degraded_classification(self):
        _, tracer = _tracer(8, SamplingPolicy(slow_k=0, sample_rate=0.0))
        with tracer.span("req", "server", outcome="shed-deadline", detail="mid-run"):
            pass
        with tracer.span("req", "server", outcome="stale"):
            pass
        with tracer.span("req", "server", outcome="completed", widened=True):
            pass
        with tracer.span("req", "server", outcome="completed", brownout=1):
            pass
        with tracer.span("req", "server", outcome="completed", epoch_degraded=True):
            pass
        reasons = [t.attributes[REASON_ATTRIBUTE] for t in tracer.traces]
        assert reasons == ["deadline", "degraded", "degraded", "degraded", "degraded"]
        assert set(reasons) <= MUST_KEEP_REASONS

    def test_healthy_traces_hash_sampled(self):
        keep_id = _id_where(lambda f: f < 0.15)
        drop_id = _id_where(lambda f: f >= 0.15)
        _, tracer = _tracer(8, SamplingPolicy(slow_k=0, sample_rate=0.15))
        with tracer.span("req", "server", trace_id=keep_id, outcome="completed"):
            pass
        with tracer.span("req", "server", trace_id=drop_id, outcome="completed"):
            pass
        assert retained_trace_ids(tracer.traces) == {keep_id}
        sampler = tracer.sampler
        assert sampler.stats.kept == {"sampled": 1}
        assert sampler.stats.dropped == 1

    def test_top_k_slowest_kept_per_window(self):
        clock, tracer = _tracer(8, SamplingPolicy(slow_k=1, slow_window_s=60.0, sample_rate=0.0))
        with tracer.span("req", "server", outcome="completed"):
            clock.advance(0.5)
        with tracer.span("req", "server", outcome="completed"):
            clock.advance(0.1)  # faster than the current seat: dropped
        with tracer.span("req", "server", outcome="completed"):
            clock.advance(2.0)  # slower: takes the seat
        reasons = [t.attributes.get(REASON_ATTRIBUTE) for t in tracer.traces]
        assert reasons == ["slow", "slow"]
        assert tracer.sampler.stats.kept == {"slow": 2}
        assert tracer.sampler.stats.dropped == 1

    def test_regression_must_keep_traces_survive_overflow(self):
        # The retention invariant the FIFO ring violated: a storm of
        # healthy traces must never flush out the anomalous ones.
        _, tracer = _tracer(2, SamplingPolicy(slow_k=0, sample_rate=1.0))
        error_ids = []
        for i in range(6):
            with pytest.raises(RuntimeError):
                with tracer.span("req", "server") as span:
                    error_ids.append(span.trace_id)
                    raise RuntimeError("boom")
            with tracer.span("req", "server", outcome="completed"):
                pass
        retained = retained_trace_ids(tracer.traces)
        assert set(error_ids) <= retained
        # Must-keeps exceed the bound: the ring grows rather than lies.
        assert len(tracer.traces) == 6 > 2
        stats = tracer.sampler.stats
        assert stats.kept == {"error": 6, "sampled": 6}
        assert stats.evicted == 6
        assert stats.dropped == 0
        assert stats.must_keep_total() == 6
        assert stats.kept_total() - stats.evicted == len(tracer.traces)

    def test_preexisting_fifo_eviction_without_sampler(self):
        # Documents the legacy behaviour the tail sampler replaces: with
        # no sampler the ring is FIFO and evicts even an error trace.
        clock = _clock()
        tracer = Tracer(clock, max_traces=3, sampler=None)
        with pytest.raises(RuntimeError):
            with tracer.span("req", "server") as span:
                error_id = span.trace_id
                raise RuntimeError("boom")
        for _ in range(4):
            with tracer.span("req", "server", outcome="completed"):
                pass
        assert len(tracer.traces) == 3
        assert error_id not in retained_trace_ids(tracer.traces)

    def test_error_anywhere_in_tree_is_must_keep(self):
        _, tracer = _tracer(8, SamplingPolicy(slow_k=0, sample_rate=0.0))
        with tracer.span("req", "server", outcome="completed"):
            with tracer.span("fetch", "gateway"):
                tracer.mark_error(TimeoutError("upstream"))
        assert tracer.traces[0].attributes[REASON_ATTRIBUTE] == "error"

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SamplingPolicy(slow_k=-1)
        with pytest.raises(ValueError):
            SamplingPolicy(slow_window_s=0.0)
        with pytest.raises(ValueError):
            SamplingPolicy(sample_rate=1.5)


# ---------------------------------------------------------------------------
# Histogram quantiles vs the nearest-rank oracle


class TestHistogramQuantile:
    def test_interpolates_within_bucket(self):
        # 4 observations spread across (0, 1]: rank 2 of 4 at q=0.5 sits
        # halfway through the first bucket's span.
        assert histogram_quantile((1.0, 2.0), (4, 4, 4), 0.5) == 0.5

    def test_inf_bucket_returns_last_finite_bound(self):
        assert histogram_quantile((1.0, 2.0), (0, 0, 3), 0.99) == 2.0

    def test_empty_histogram_is_zero(self):
        assert histogram_quantile((1.0,), (0, 0), 0.5) == 0.0

    def test_validation(self):
        with pytest.raises(MetricError):
            histogram_quantile((1.0,), (1, 1), 1.5)
        with pytest.raises(MetricError):
            histogram_quantile((1.0, 2.0), (1, 1), 0.5)
        with pytest.raises(MetricError):
            histogram_quantile((1.0, 2.0), (2, 1, 3), 0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        bounds=st.sets(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=20),
        q=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_matches_nearest_rank_on_bucket_bounds(self, bounds, q):
        # When every observation sits exactly on its own bucket bound the
        # interpolation is exact, so the bucket estimate *equals* the
        # nearest-rank oracle from repro.simulation (integer-valued
        # bounds keep the float arithmetic exact).
        values = sorted(float(v) for v in bounds)
        histogram = Histogram(values)
        for value in values:
            histogram.observe(value)
        estimate = histogram_quantile(tuple(values), tuple(histogram.cumulative()), q)
        assert estimate == percentile(values, q)

    def test_default_buckets_approximate_oracle(self):
        # Real-shaped bounds (non-integer) agree to float tolerance.
        values = list(DEFAULT_LATENCY_BUCKETS)
        histogram = Histogram(DEFAULT_LATENCY_BUCKETS)
        for value in values:
            histogram.observe(value)
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            estimate = histogram_quantile(
                DEFAULT_LATENCY_BUCKETS, tuple(histogram.cumulative()), q
            )
            assert estimate == pytest.approx(percentile(values, q), rel=1e-12)


# ---------------------------------------------------------------------------
# Cardinality guard


class TestCardinalityGuard:
    def test_overflow_is_bucketed_and_counted_exactly(self):
        registry = MetricsRegistry()
        family = registry.counter(
            "tenant_reqs_total",
            "requests by tenant",
            labels=("tenant",),
            max_label_values={"tenant": 2},
        )
        for tenant in ("a", "b", "c", "d", "c"):
            family.labels(tenant=tenant).inc()
        assert family.admitted_values("tenant") == frozenset({"a", "b"})
        samples = {s["labels"]["tenant"]: s["value"] for s in family.samples()}
        assert samples == {"a": 1.0, "b": 1.0, OVERFLOW_BUCKET: 3.0}
        # Every rewrite counted: 3 over-limit resolutions ("c", "d", "c").
        assert registry.sample_value(
            OVERFLOW_COUNTER, {"label": "tenant", "metric": "tenant_reqs_total"}
        ) == 3.0
        # Totals stay exact across the guard.
        assert sum(samples.values()) == 5.0

    def test_interpolated_label_values_are_capped_by_default(self):
        # No max_label_values: a value spliced from request data still
        # cannot grow the registry past the default cap.
        registry = MetricsRegistry()
        family = registry.counter("reqs_total", "requests", labels=("outcome",))
        for i in range(DEFAULT_LABEL_VALUE_LIMIT + 5):
            family.labels(outcome=f"outcome-{i}").inc()
        samples = {s["labels"]["outcome"]: s["value"] for s in family.samples()}
        assert len(samples) == DEFAULT_LABEL_VALUE_LIMIT + 1
        assert samples[OVERFLOW_BUCKET] == 5.0
        assert registry.sample_value(
            OVERFLOW_COUNTER, {"label": "outcome", "metric": "reqs_total"}
        ) == 5.0

    def test_concatenated_label_values_are_capped_per_label(self):
        # The cap is per label: an unbounded shard value overflows while
        # the bounded outcome beside it keeps its own series.
        registry = MetricsRegistry()
        family = registry.counter(
            "shard_reqs_total", "requests by shard", labels=("shard", "outcome")
        )
        for i in range(DEFAULT_LABEL_VALUE_LIMIT + 3):
            family.labels(shard="shard-" + str(i), outcome="completed").inc()
        assert len(family.admitted_values("shard")) == DEFAULT_LABEL_VALUE_LIMIT
        assert family.admitted_values("outcome") == frozenset({"completed"})
        overflow = [s for s in family.samples() if s["labels"]["shard"] == OVERFLOW_BUCKET]
        assert [(s["labels"]["outcome"], s["value"]) for s in overflow] == [("completed", 3.0)]
        assert registry.sample_value(
            OVERFLOW_COUNTER, {"label": "shard", "metric": "shard_reqs_total"}
        ) == 3.0

    def test_unknown_label_name_is_a_schema_error(self):
        # A wrong label name raises instead of opening a new series.
        registry = MetricsRegistry()
        family = registry.counter("trips_total", "trips", labels=("outcome",))
        with pytest.raises(MetricError, match="takes labels"):
            family.labels(trip="t-1")
        assert family.samples() == []

    def test_overflow_counter_is_not_capped(self):
        # Its values are (family, label) pairs; a cap on it would count
        # its own trips into itself.
        registry = MetricsRegistry()
        names = [f"f{n}_total" for n in range(DEFAULT_LABEL_VALUE_LIMIT + 2)]
        for name in names:
            family = registry.counter(
                name, "f", labels=("x",), max_label_values={"x": 1}
            )
            family.labels(x="a").inc()
            family.labels(x="b").inc()
        overflow = registry.get(OVERFLOW_COUNTER)
        assert overflow is not None
        assert {s["labels"]["metric"] for s in overflow.samples()} == set(names)

    def test_guard_schema_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError, match="not in"):
            registry.counter(
                "reqs_total", "requests", labels=("outcome",), max_label_values={"tenant": 2}
            )
        with pytest.raises(MetricError, match="positive"):
            registry.counter(
                "caps_total", "requests", labels=("tenant",), max_label_values={"tenant": 0}
            )
        with pytest.raises(MetricError, match="bad label name"):
            registry.counter("dunder_total", "reserved prefix", labels=("__other",))

    def test_re_registration_with_different_limits_rejected(self):
        registry = MetricsRegistry()
        registry.counter(
            "reqs_total", "requests", labels=("tenant",), max_label_values={"tenant": 2}
        )
        again = registry.counter(
            "reqs_total", "requests", labels=("tenant",), max_label_values={"tenant": 2}
        )
        assert again is registry.get("reqs_total")
        with pytest.raises(MetricError, match="cardinality limits"):
            registry.counter(
                "reqs_total", "requests", labels=("tenant",), max_label_values={"tenant": 4}
            )

    def test_telemetry_tenant_label_is_guarded(self):
        telemetry = Telemetry.simulated(tick_s=0.0)
        family = telemetry.registry.get("ecocharge_tenant_requests_total")
        assert family is not None
        from repro.observability.recorder import TENANT_LABEL_LIMIT

        for i in range(TENANT_LABEL_LIMIT + 3):
            telemetry.inc(
                "ecocharge_tenant_requests_total",
                tenant=f"tenant-{i}",
                outcome="completed",
            )
        assert len(family.admitted_values("tenant")) == TENANT_LABEL_LIMIT
        assert telemetry.registry.sample_value(
            OVERFLOW_COUNTER,
            {"label": "tenant", "metric": "ecocharge_tenant_requests_total"},
        ) == 3.0


# ---------------------------------------------------------------------------
# Exemplars


class TestExemplars:
    def test_histogram_exemplars_last_writer_wins(self):
        histogram = Histogram((1.0, 2.0))
        histogram.observe(0.5, exemplar="t-0001")
        histogram.observe(0.7, exemplar="t-0002")
        histogram.observe(5.0, exemplar="t-0003")
        assert histogram.exemplars == {0: "t-0002", 2: "t-0003"}

    def test_collect_exemplars_filters_to_retained(self):
        registry = MetricsRegistry()
        family = registry.histogram("lat_seconds", "latency", buckets=(1.0,))
        family.labels().observe(0.5, exemplar="kept")
        family.labels().observe(5.0, exemplar="evicted")
        links = collect_exemplars(registry, retained={"kept"})
        assert links == [
            {"metric": "lat_seconds", "labels": {}, "le": "1", "trace_id": "kept"}
        ]

    def test_served_latency_exemplar_via_telemetry(self):
        telemetry = Telemetry.simulated(tick_s=0.0)
        telemetry.observe("ecocharge_served_latency_seconds", 0.2, exemplar="trip-ab")
        sample = telemetry.registry.get("ecocharge_served_latency_seconds").samples()[0]
        assert "trip-ab" in sample["exemplars"].values()


# ---------------------------------------------------------------------------
# Prometheus exposition escaping


class TestExpositionEscaping:
    @pytest.mark.parametrize(
        "value",
        [
            'quote "inside"',
            "back\\slash",
            "new\nline",
            "curly {braces} stay",
            "comma, separated",
            'all \\ of " it {x,y}\ntogether',
        ],
    )
    def test_label_value_round_trips(self, value):
        registry = MetricsRegistry()
        registry.counter("escapes_total", "escaping", labels=("detail",)).labels(
            detail=value
        ).inc()
        text = render_prometheus(registry)
        parse_prometheus(text)  # the validator accepts the exposition
        sample_line = [
            line for line in text.splitlines() if line.startswith("escapes_total{")
        ][0]
        name, labels, raw_value = parse_sample_line(sample_line)
        assert name == "escapes_total"
        assert labels == {"detail": value}
        assert raw_value == "1"

    def test_unescape_rejects_bad_sequences(self):
        assert unescape_label(r"a\\b\"c\n") == 'a\\b"c\n'
        with pytest.raises(ExpositionError, match="bad escape"):
            unescape_label(r"\t")
        with pytest.raises(ExpositionError, match="dangling"):
            unescape_label("trailing\\")

    def test_brace_inside_quoted_value_regression(self):
        # The old label-block regex used [^{}]* and rejected this line.
        name, labels, value = parse_sample_line('m_total{a="x{y}z",b="w"} 4')
        assert (name, value) == ("m_total", "4")
        assert labels == {"a": "x{y}z", "b": "w"}

    def test_malformed_lines_rejected(self):
        with pytest.raises(ExpositionError, match="unterminated label block"):
            parse_sample_line('m_total{a="x" 1')
        with pytest.raises(ExpositionError, match="unterminated label block"):
            # The } sits inside the open quote, so the block never closes.
            parse_sample_line('m_total{a="x} 1')
        with pytest.raises(ExpositionError, match="malformed sample"):
            parse_sample_line("m_total")
        with pytest.raises(ExpositionError, match="malformed label pair"):
            parse_sample_line("m_total{a=unquoted} 1")

    def test_help_text_newline_escaped(self):
        registry = MetricsRegistry()
        registry.counter("multi_total", "first line\nsecond line")
        text = render_prometheus(registry)
        assert "# HELP multi_total first line\\nsecond line" in text
        parse_prometheus(text)


# ---------------------------------------------------------------------------
# Alert-driven brownout


class TestAlertDrivenBrownout:
    def test_floor_for_alert_severities(self):
        assert floor_for_alert_severities([]) == BrownoutLevel.NORMAL
        assert floor_for_alert_severities(["ticket"]) == BrownoutLevel.NORMAL
        assert floor_for_alert_severities(["page"]) == BrownoutLevel.SERVE_STALE
        assert floor_for_alert_severities(["page", "ticket"]) == BrownoutLevel.SERVE_STALE
        assert floor_for_alert_severities(["page", "page"]) == BrownoutLevel.WIDEN
        assert (
            floor_for_alert_severities(["ticket", "page", "page", "page"])
            == BrownoutLevel.WIDEN
        )

    def test_floor_maxes_with_queue_ladder(self):
        controller = BrownoutController()
        controller.set_alert_floor(BrownoutLevel.SERVE_STALE)
        # Empty queue: the floor alone degrades.
        assert controller.level_for(0, 10) == BrownoutLevel.SERVE_STALE
        # Deep queue: queue pressure wins over a lower floor.
        assert controller.level_for(8, 10) == BrownoutLevel.WIDEN
        controller.set_alert_floor(BrownoutLevel.NORMAL)
        assert controller.level_for(0, 10) == BrownoutLevel.NORMAL

    def _firing_manager(self, pages: int) -> AlertManager:
        manager = AlertManager(_clock())
        signals = [
            _signal(True, for_s=0.0, name=f"slo-{i}:page") for i in range(pages)
        ]
        manager.update(signals)
        return manager

    def test_scheduler_flag_gates_alert_floor(self, small_network, small_registry):
        from repro.core.ecocharge import EcoChargeConfig
        from repro.core.environment import ChargingEnvironment
        from repro.server.scheduling import SchedulerConfig, ShardedScheduler

        def factory() -> ChargingEnvironment:
            return ChargingEnvironment(small_network, small_registry, seed=5)

        def build(flag: bool) -> ShardedScheduler:
            telemetry = Telemetry.simulated(tick_s=0.0)
            return ShardedScheduler(
                factory,
                SchedulerConfig(shards=1, alert_driven_brownout=flag),
                EcoChargeConfig(k=3, segment_km=6.0),
                clock=telemetry.clock,
                telemetry=telemetry,
            )

        firing_two_pages = self._firing_manager(2)
        gated = build(False)
        assert gated.apply_alert_state(firing_two_pages) == BrownoutLevel.NORMAL
        assert gated.brownout.alert_floor == BrownoutLevel.NORMAL

        driven = build(True)
        assert driven.apply_alert_state(firing_two_pages) == BrownoutLevel.WIDEN
        assert driven.brownout.alert_floor == BrownoutLevel.WIDEN
        assert driven.apply_alert_state(self._firing_manager(1)) == BrownoutLevel.SERVE_STALE
        # All clear: the floor drops back to NORMAL.
        assert driven.apply_alert_state(self._firing_manager(0)) == BrownoutLevel.NORMAL
        assert driven.brownout.alert_floor == BrownoutLevel.NORMAL
