"""Resilience tier tests: faults, retries, breakers, and the ladder.

The degradation ladder's contract is *wider-but-correct*: under any
fault regime the serving stack still answers every query, intervals only
ever widen, and the health counters reconcile exactly with what the
providers saw.
"""

from random import Random
from types import SimpleNamespace

import pytest

from repro.core.baselines import BruteForceRanker
from repro.core.ecocharge import EcoChargeConfig, EcoChargeRanker
from repro.core.ranking import refine_pool, run_over_trip
from repro.core.scoring import Weights
from repro.estimation.component import DEFAULT_CONFIDENCE
from repro.intervals import Interval
from repro.resilience import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    EndpointPolicy,
    FaultInjector,
    FaultProfile,
    FaultTolerantEnvironment,
    OutageWindow,
    ResilienceConfig,
    ResilienceGateway,
    ResilientEndpoint,
    RetriesExhaustedError,
    RetryPolicy,
    ServiceLevel,
    StalenessPolicy,
    TransientUpstreamError,
    UpstreamTimeoutError,
)
from repro.server.cache import ResponseCache
from repro.server.eis import EcoChargeInformationServer
from repro.simulation.chaos import ChaosPlan, check, run_chaos


class TestRetryPolicy:
    def test_backoff_schedule_without_jitter(self):
        policy = RetryPolicy(
            base_delay_ms=50.0, multiplier=2.0, max_delay_ms=150.0, jitter=0.0
        )
        rng = Random(0)
        assert policy.backoff_ms(1, rng) == 50.0
        assert policy.backoff_ms(2, rng) == 100.0
        assert policy.backoff_ms(3, rng) == 150.0  # capped
        assert policy.backoff_ms(4, rng) == 150.0

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay_ms=100.0, multiplier=1.0, jitter=0.5)
        rng = Random(7)
        for _ in range(50):
            delay = policy.backoff_ms(1, rng)
            assert 50.0 <= delay <= 100.0

    def test_jitter_deterministic_under_seed(self):
        policy = RetryPolicy(jitter=0.5)
        a = [policy.backoff_ms(i, Random(3)) for i in range(1, 4)]
        b = [policy.backoff_ms(i, Random(3)) for i in range(1, 4)]
        assert a == b

    def test_delays_count_matches_attempts(self):
        policy = RetryPolicy(max_attempts=4, jitter=0.0)
        assert len(list(policy.delays_ms(Random(0)))) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_ms=0.0)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_ms(0, Random(0))


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=3))
        for _ in range(2):
            breaker.record_failure(10.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(10.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.times_opened == 1

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=2))
        breaker.record_failure(10.0)
        breaker.record_success(10.0)
        breaker.record_failure(10.0)
        assert breaker.state is BreakerState.CLOSED

    def test_open_rejects_until_cooldown(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=1, cooldown_h=0.5))
        breaker.record_failure(10.0)
        assert not breaker.allow(10.1)
        assert breaker.rejections == 1
        # Cooldown elapsed: the next call is admitted as a probe.
        assert breaker.allow(10.6)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_closes_after_probe_successes(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, cooldown_h=0.1, close_after=2)
        )
        breaker.record_failure(10.0)
        assert breaker.allow(10.2)
        breaker.record_success(10.2)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success(10.3)
        assert breaker.state is BreakerState.CLOSED

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=1, cooldown_h=0.5))
        breaker.record_failure(10.0)
        assert breaker.allow(10.6)  # half-open probe
        breaker.record_failure(10.6)
        assert breaker.state is BreakerState.OPEN
        assert breaker.times_opened == 2
        assert not breaker.allow(10.7)  # cooldown restarted at 10.6
        assert breaker.allow(11.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(cooldown_h=0.0)
        with pytest.raises(ValueError):
            BreakerConfig(close_after=0)


class TestFaultInjector:
    def test_same_seed_same_schedule(self):
        def schedule(seed):
            injector = FaultInjector(
                seed=seed, default=FaultProfile(error_rate=0.5)
            )
            outcomes = []
            for i in range(40):
                try:
                    injector.roll("weather", 10.0 + i * 0.01)
                    outcomes.append(True)
                except TransientUpstreamError:
                    outcomes.append(False)
            return outcomes

        assert schedule(1) == schedule(1)
        assert schedule(1) != schedule(2)

    def test_endpoints_fail_independently(self):
        injector = FaultInjector(seed=0, default=FaultProfile(error_rate=0.5))
        # Draining one endpoint's stream must not shift another's.
        for i in range(25):
            try:
                injector.roll("weather", 10.0 + i * 0.01)
            except TransientUpstreamError:
                pass
        first = []
        for i in range(10):
            try:
                injector.roll("busy", 10.0 + i * 0.01)
                first.append(True)
            except TransientUpstreamError:
                first.append(False)

        fresh = FaultInjector(seed=0, default=FaultProfile(error_rate=0.5))
        second = []
        for i in range(10):
            try:
                fresh.roll("busy", 10.0 + i * 0.01)
                second.append(True)
            except TransientUpstreamError:
                second.append(False)
        assert first == second

    def test_outage_window_always_fails(self):
        injector = FaultInjector(
            profiles={"weather": FaultProfile(outages=(OutageWindow(10.0, 11.0),))}
        )
        from repro.resilience import UpstreamOutageError

        with pytest.raises(UpstreamOutageError):
            injector.roll("weather", 10.5)
        assert injector.roll("weather", 11.5) >= 0.0  # outside the window

    def test_latency_spikes_raise_timeouts(self):
        injector = FaultInjector(default=FaultProfile(latency_spike_rate=1.0))
        with pytest.raises(UpstreamTimeoutError):
            injector.roll("traffic", 10.0)

    def test_stats_identity(self):
        injector = FaultInjector(seed=0, default=FaultProfile(error_rate=0.3))
        for i in range(60):
            try:
                injector.roll("busy", 10.0 + i * 0.01)
            except TransientUpstreamError:
                pass
        stats = injector.stats_for("busy")
        assert stats.rolls == 60
        assert stats.rolls == stats.delivered + stats.injected
        assert injector.total_injected == stats.injected > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultProfile(error_rate=1.5)
        with pytest.raises(ValueError):
            OutageWindow(11.0, 10.0)


class TestResilientEndpoint:
    @staticmethod
    def _flaky(failures, value="ok"):
        """A thunk failing ``failures`` times before succeeding."""
        state = {"left": failures}

        def fn():
            if state["left"] > 0:
                state["left"] -= 1
                raise TransientUpstreamError("x", "flap", latency_ms=10.0)
            return value

        return fn

    def test_first_attempt_success_is_live(self):
        endpoint = ResilientEndpoint("x")
        assert endpoint.call(self._flaky(0), 10.0) == "ok"
        assert endpoint.health.live == 1
        assert endpoint.health.retried == 0

    def test_retry_recovers_and_counts(self):
        endpoint = ResilientEndpoint("x", policy=RetryPolicy(max_attempts=3))
        assert endpoint.call(self._flaky(2), 10.0) == "ok"
        health = endpoint.health
        assert health.retried == 1
        assert health.attempts == 3
        assert health.retries == 2
        assert health.failures == 2 and health.successes == 1

    def test_exhaustion_raises_with_cause(self):
        endpoint = ResilientEndpoint("x", policy=RetryPolicy(max_attempts=2))
        with pytest.raises(RetriesExhaustedError) as excinfo:
            endpoint.call(self._flaky(5), 10.0)
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.last_error, TransientUpstreamError)
        assert endpoint.health.exhausted == 1

    def test_deadline_cuts_retries_short(self):
        # Each failure costs 10 ms; a 15 ms deadline admits no backoff.
        policy = RetryPolicy(
            max_attempts=5, base_delay_ms=50.0, jitter=0.0, deadline_ms=15.0
        )
        endpoint = ResilientEndpoint("x", policy=policy)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            endpoint.call(self._flaky(5), 10.0)
        assert excinfo.value.attempts == 1

    def test_breaker_opens_and_fails_fast(self):
        endpoint = ResilientEndpoint(
            "x",
            policy=RetryPolicy(max_attempts=1),
            breaker=BreakerConfig(failure_threshold=2, cooldown_h=1.0),
        )
        for _ in range(2):
            with pytest.raises(RetriesExhaustedError):
                endpoint.call(self._flaky(1), 10.0)
        assert endpoint.state is BreakerState.OPEN
        attempts_before = endpoint.health.attempts
        with pytest.raises(CircuitOpenError):
            endpoint.call(self._flaky(0), 10.1)
        # Rejected locally: no upstream attempt was made.
        assert endpoint.health.attempts == attempts_before
        assert endpoint.health.breaker_rejections == 1

    def test_breaker_recovers_through_half_open(self):
        endpoint = ResilientEndpoint(
            "x",
            policy=RetryPolicy(max_attempts=1),
            breaker=BreakerConfig(failure_threshold=1, cooldown_h=0.5, close_after=1),
        )
        with pytest.raises(RetriesExhaustedError):
            endpoint.call(self._flaky(1), 10.0)
        assert endpoint.state is BreakerState.OPEN
        assert endpoint.call(self._flaky(0), 10.6) == "ok"  # probe succeeds
        assert endpoint.state is BreakerState.CLOSED

    def test_programming_errors_bypass_breaker(self):
        endpoint = ResilientEndpoint("x")

        def broken():
            raise KeyError("not an upstream failure")

        with pytest.raises(KeyError):
            endpoint.call(broken, 10.0)
        assert endpoint.breaker.consecutive_failures == 0

    def test_health_identities(self):
        endpoint = ResilientEndpoint("x", policy=RetryPolicy(max_attempts=3))
        endpoint.call(self._flaky(0), 10.0)
        endpoint.call(self._flaky(1), 10.1)
        with pytest.raises(RetriesExhaustedError):
            endpoint.call(self._flaky(9), 10.2)
        health = endpoint.health
        assert health.attempts == health.successes + health.failures
        assert health.calls == 3


class TestDegradationLadder:
    """Gateway-level walk down fresh -> cached -> stale -> fallback."""

    @pytest.fixture()
    def gateway(self, small_environment):
        # Busy-times goes hard down at 10.5; everything else is healthy.
        injector = FaultInjector(
            seed=0,
            profiles={"busy": FaultProfile(outages=(OutageWindow(10.5, 24.0),))},
        )
        return ResilienceGateway.build(small_environment, injector=injector)

    @pytest.fixture()
    def charger(self, small_registry):
        return min(small_registry.all(), key=lambda c: c.charger_id)

    def test_live_then_cached(self, gateway, charger):
        first = gateway.availability([charger], 11.0, 10.0)[0]
        assert first.level is ServiceLevel.LIVE
        second = gateway.availability([charger], 11.0, 10.1)[0]
        assert second.level is ServiceLevel.CACHED
        assert second.value == first.value
        health = gateway.health.for_endpoint("busy")
        assert health.live == 1 and health.cache_hits == 1

    def test_stale_serve_widens_interval(self, gateway, charger):
        fresh = gateway.availability([charger], 11.0, 10.0)[0]
        # 10.9 is past the cache TTL (0.5 h) and inside the outage, but
        # the 0.9 h age is within the 2 h staleness bound.
        stale = gateway.availability([charger], 11.0, 10.9)[0]
        assert stale.level is ServiceLevel.STALE
        assert stale.age_h == pytest.approx(0.9)
        assert stale.value.lo <= fresh.value.lo
        assert stale.value.hi >= fresh.value.hi
        assert stale.value.width > fresh.value.width
        assert gateway.health.for_endpoint("busy").stale_served == 1

    def test_fallback_is_admissible_floor(self, gateway, charger):
        # No cache entry exists for this query and busy is in outage.
        result = gateway.availability([charger], 15.0, 11.0)[0]
        assert result.level is ServiceLevel.FALLBACK
        assert result.value == Interval(0.0, 1.0)
        assert gateway.health.for_endpoint("busy").fallbacks == 1

    def test_staleness_bound_is_enforced(self, small_environment, charger):
        injector = FaultInjector(
            profiles={"busy": FaultProfile(outages=(OutageWindow(10.5, 24.0),))}
        )
        config = ResilienceConfig(
            busy=EndpointPolicy(staleness=StalenessPolicy(max_stale_h=0.6))
        )
        gateway = ResilienceGateway.build(
            small_environment, config=config, injector=injector
        )
        gateway.availability([charger], 11.0, 10.0)[0]
        # Age 2.0 h exceeds the 0.6 h bound: the entry may not be served.
        result = gateway.availability([charger], 11.0, 12.0)[0]
        assert result.level is ServiceLevel.FALLBACK

    def test_degraded_results_never_cached(self, gateway, charger):
        gateway.availability([charger], 15.0, 11.0)[0]  # fallback (outage, no entry)
        follow_up = gateway.availability([charger], 15.0, 11.01)[0]
        # Still degraded — the fallback was not stored as if it were fresh.
        assert follow_up.level is ServiceLevel.FALLBACK

    def test_fallback_forecast_covers_all_skies(self, small_environment):
        from repro.estimation.weather import ATTENUATION
        from repro.spatial.geometry import Point

        injector = FaultInjector(default=FaultProfile(error_rate=1.0))
        gateway = ResilienceGateway.build(small_environment, injector=injector)
        result = gateway.forecast(Point(5.0, 5.0), 12.0, 10.0)
        assert result.level is ServiceLevel.FALLBACK
        assert result.value.degraded
        for attenuation in ATTENUATION.values():
            assert attenuation in result.value.attenuation

    def test_accounting_reconciles(self, gateway, charger):
        gateway.availability([charger], 11.0, 10.0)[0]
        gateway.availability([charger], 11.0, 10.1)[0]
        gateway.availability([charger], 11.0, 10.9)[0]
        gateway.availability([charger], 15.0, 11.0)[0]
        gateway.traffic_snapshot(10.0)
        from repro.spatial.geometry import Point

        gateway.nearby(Point(5.0, 5.0), 6.0, 10.0)
        assert gateway.accounting_ok()


class TestEndpointHealthRatios:
    """Zero-traffic endpoints must report well-defined ratios (no division
    by zero on a dashboard scrape before the first request lands)."""

    def test_zero_calls_availability_is_one(self):
        from repro.resilience.health import EndpointHealth

        health = EndpointHealth(endpoint="weather")
        assert health.calls == 0
        assert health.availability_ratio == 1.0
        assert health.degraded == 0

    def test_zero_calls_accounts_for_zero_provider_calls(self):
        from repro.resilience.health import EndpointHealth

        health = EndpointHealth(endpoint="weather")
        assert health.accounts_for(0)

    def test_ratio_after_traffic(self):
        from repro.resilience.health import EndpointHealth

        health = EndpointHealth(endpoint="traffic", calls=4, stale_served=1)
        assert health.availability_ratio == pytest.approx(0.75)


class TestEndpointHealthRecordingAPI:
    """The recording methods are the only sanctioned mutation path
    (repro-check R13): each one must move exactly its counters, and a
    realistic call sequence must keep ``accounts_for`` reconciling."""

    def _health(self):
        from repro.resilience.health import EndpointHealth

        return EndpointHealth(endpoint="weather")

    def test_record_call_counts_one_logical_call(self):
        health = self._health()
        health.record_call()
        assert health.calls == 1 and health.cache_hits == 0

    def test_record_cache_hit_lands_on_the_ladder(self):
        # A cache hit both counts the call and lands the rung, so the
        # ladder identity (calls == sum of rungs) holds with no
        # separate record_call() from the caller.
        health = self._health()
        health.record_cache_hit()
        assert health.calls == 1 and health.cache_hits == 1
        assert health.accounts_for(0)

    def test_record_success_first_attempt_is_live(self):
        health = self._health()
        health.record_call()
        health.record_attempt()
        health.record_success(retried=False, elapsed_ms=5.0)
        assert (health.live, health.retried) == (1, 0)
        assert health.successes == 1
        assert health.simulated_ms == pytest.approx(5.0)
        assert health.accounts_for(1)

    def test_record_success_after_retry_is_retried(self):
        health = self._health()
        health.record_call()
        health.record_attempt()
        health.record_failure()
        health.record_retry()
        health.record_attempt()
        health.record_success(retried=True, elapsed_ms=12.0)
        assert (health.live, health.retried) == (0, 1)
        assert health.retries == 1
        assert health.attempts == 2
        assert health.accounts_for(1)

    def test_record_exhausted_then_stale_served(self):
        health = self._health()
        health.record_call()
        health.record_attempt()
        health.record_failure()
        health.record_exhausted(elapsed_ms=30.0)
        health.record_stale_served()
        assert health.exhausted == 1 and health.stale_served == 1
        assert health.degraded == 1
        assert health.accounts_for(0)

    def test_record_breaker_rejection_then_fallback(self):
        health = self._health()
        health.record_call()
        health.record_breaker_rejection()
        health.record_fallback()
        assert health.breaker_rejections == 1 and health.fallbacks == 1
        assert health.attempts == 0, "a rejected call never reaches upstream"
        assert health.accounts_for(0)

    def test_mixed_sequence_reconciles(self):
        health = self._health()
        # one cache hit, one live success, one retried success, one
        # exhausted->fallback: 4 logical calls, 2 delivered upstream.
        health.record_cache_hit()
        health.record_call()
        health.record_attempt()
        health.record_success(retried=False, elapsed_ms=4.0)
        health.record_call()
        health.record_attempt()
        health.record_failure()
        health.record_retry()
        health.record_attempt()
        health.record_success(retried=True, elapsed_ms=9.0)
        health.record_call()
        health.record_attempt()
        health.record_failure()
        health.record_exhausted(elapsed_ms=20.0)
        health.record_fallback()
        assert health.calls == 4
        assert health.accounts_for(2)


class TestFaultTolerantEnvironment:
    def test_total_outage_floors_availability(self, small_environment, small_registry):
        injector = FaultInjector(default=FaultProfile(error_rate=1.0))
        gateway = ResilienceGateway.build(small_environment, injector=injector)
        environment = FaultTolerantEnvironment(small_environment, gateway)
        charger = next(iter(small_registry.all()))
        assert environment.availability.estimate(charger, 11.0, 10.0) == Interval(
            0.0, 1.0
        )

    def test_healthy_estimates_match_inner(self, small_environment, small_registry):
        environment = FaultTolerantEnvironment.build(small_environment)
        charger = next(iter(small_registry.all()))
        assert environment.availability.estimate(
            charger, 11.0, 10.0
        ) == small_environment.availability.estimate(charger, 11.0, 10.0)
        assert environment.sustainable.estimate(
            charger, 11.0, 10.0
        ) == small_environment.sustainable.estimate(charger, 11.0, 10.0)

    def test_ranking_completes_under_heavy_faults(self, small_environment, sample_trip):
        injector = FaultInjector(
            seed=3, default=FaultProfile(error_rate=0.4, latency_spike_rate=0.1)
        )
        gateway = ResilienceGateway.build(small_environment, injector=injector)
        environment = FaultTolerantEnvironment(small_environment, gateway)
        config = EcoChargeConfig(k=3, radius_km=12.0)
        ranker = EcoChargeRanker(environment, config)
        run = run_over_trip(ranker, environment, sample_trip, segment_km=config.segment_km)
        assert run.completed_cleanly
        assert len(run.tables) > 0
        for table in run.tables:
            assert len(table.entries) > 0


    @staticmethod
    def _refine(environment, trip, pool, now_h):
        segments = trip.segments()
        return refine_pool(
            environment,
            trip,
            segments[0],
            pool,
            eta_h=10.4,
            now_h=now_h,
            k=3,
            weights=Weights.equal(),
            next_segment=segments[1],
        )

    def test_dead_traffic_feed_floors_every_pool_row(
        self, small_environment, small_registry, sample_trip
    ):
        """Every ranker prices its pool through the same gateway-backed
        derouting: a dead traffic feed floors ``D`` on the Brute-Force
        and refine_pool tables too, not only on EcoCharge's."""
        injector = FaultInjector(default=FaultProfile(error_rate=1.0))
        gateway = ResilienceGateway.build(small_environment, injector=injector)
        environment = FaultTolerantEnvironment(small_environment, gateway)
        floor = gateway.confidence.fallback_interval(0.0, 1.0)
        segments = sample_trip.segments()
        pool = small_registry.within_radius(segments[0].midpoint, 8.0)
        tables = [
            self._refine(environment, sample_trip, pool, now_h=10.0),
            BruteForceRanker(environment, k=3).rank_segment(
                sample_trip, segments[0], 10.4, 10.0, segments[1]
            ),
        ]
        for table in tables:
            assert len(table) == 3
            assert [entry.derouting for entry in table] == [floor] * 3
        priced = environment.score_pool(segments[0], pool, eta_h=10.4, now_h=10.0)
        assert len(priced) == len(pool)
        assert priced.derouting.to_intervals() == [floor] * len(pool)
        traffic = gateway.health.for_endpoint("traffic")
        # The provider is never reached (usage.traffic_calls stays 0), but
        # each pricing made one logical traffic call, served by the floor.
        assert traffic.calls == traffic.fallbacks == 3
        assert gateway.usage.traffic_calls == 0
        assert gateway.accounting_ok()

    def test_stale_traffic_feed_widens_every_pool_row(
        self, small_environment, small_registry, sample_trip
    ):
        injector = FaultInjector(
            profiles={"traffic": FaultProfile(outages=(OutageWindow(10.1, 24.0),))}
        )
        gateway = ResilienceGateway.build(
            small_environment, cache=ResponseCache(ttl_h=0.05), injector=injector
        )
        environment = FaultTolerantEnvironment(small_environment, gateway)
        conf = gateway.confidence
        segments = sample_trip.segments()
        pool = small_registry.within_radius(segments[0].midpoint, 8.0)
        self._refine(environment, sample_trip, pool, now_h=10.0)
        assert gateway.usage.traffic_calls == 1  # the live fetch, now cached
        # Same quarter-hour key, past the TTL, feed down: served stale.
        table = self._refine(environment, sample_trip, pool, now_h=10.2)
        degraded = environment.derouting.batch_estimate(
            segments[0], pool, time_h=10.4, now_h=10.2, next_segment=segments[1]
        )
        traffic = gateway.health.for_endpoint("traffic")
        assert traffic.stale_served == 2
        assert gateway.usage.traffic_calls == 1
        age_h = 10.2 - 10.0
        fresh = small_environment.derouting.batch_estimate(
            segments[0], pool, time_h=10.4, now_h=10.2, next_segment=segments[1]
        )
        max_h = small_environment.derouting.max_derouting_h
        margin_h = conf.degraded_half_width(age_h) * max_h
        expected = {}
        for i, charger in enumerate(pool):
            hours = fresh.hours.at(i)
            widened = Interval(hours.lo - margin_h, hours.hi + margin_h).clamp(0.0, max_h)
            assert degraded.hours.at(i) == widened
            assert degraded.normalised.at(i) == conf.stale_interval(
                fresh.normalised.at(i), age_h
            )
            expected[charger.charger_id] = degraded.normalised.at(i)
        assert len(table) == 3
        for entry in table:
            assert entry.derouting == expected[entry.charger_id]


class TestChaosScenario:
    def test_chaos_run_completes_cleanly(self, small_environment, sample_trip):
        workload = SimpleNamespace(
            environment=small_environment, trips=[sample_trip]
        )
        plan = ChaosPlan(
            faults=FaultProfile(
                error_rate=0.25,
                latency_spike_rate=0.05,
                outages=(OutageWindow(10.0, 10.5),),
            ),
            trips=1,
            seed=1,
        )
        run = run_chaos(workload, plan)
        assert check(workload, run) == []
        assert run.trips == (sample_trip,)
        assert all(r.outcome.is_served and r.tables for r in run.responses)
        assert run.scheduler.injector.total_injected > 0
        assert all(gateway.accounting_ok() for gateway in run.gateways)
        for gateway in run.gateways:
            assert set(gateway.endpoints) == {"busy", "catalog", "traffic", "weather"}

    def test_no_faults_means_no_degradation(self, small_environment, sample_trip):
        workload = SimpleNamespace(
            environment=small_environment, trips=[sample_trip]
        )
        run = run_chaos(workload, ChaosPlan(trips=1))
        assert check(workload, run) == []
        assert run.scheduler.injector.total_injected == 0
        assert sum(gateway.health.total_degraded for gateway in run.gateways) == 0
        assert all(gateway.accounting_ok() for gateway in run.gateways)


class TestServerUnderFaults:
    def test_server_serves_degraded_snapshots(self, small_environment):
        from repro.spatial.geometry import Point

        injector = FaultInjector(seed=0, default=FaultProfile(error_rate=1.0))
        server = EcoChargeInformationServer(small_environment, injector=injector)
        snapshot = server.region_snapshot(Point(5, 5), 6.0, eta_h=11.0, now_h=10.0)
        assert snapshot.is_degraded
        assert "weather" in snapshot.degraded_components

    def test_degraded_interval_is_superset_of_healthy(self, small_environment):
        from repro.spatial.geometry import Point

        healthy = EcoChargeInformationServer(small_environment)
        broken = EcoChargeInformationServer(
            small_environment,
            injector=FaultInjector(
                profiles={"busy": FaultProfile(error_rate=1.0)}
            ),
        )
        a = healthy.region_snapshot(Point(5, 5), 6.0, eta_h=11.0, now_h=10.0)
        b = broken.region_snapshot(Point(5, 5), 6.0, eta_h=11.0, now_h=10.0)
        assert b.is_degraded and not a.is_degraded
        for charger_id, interval in a.availability.items():
            degraded = b.availability[charger_id]
            assert interval.lo in degraded or degraded.lo <= interval.lo
            assert interval.hi in degraded or degraded.hi >= interval.hi

    def test_health_exposed_alongside_usage(self, small_environment):
        from repro.spatial.geometry import Point

        server = EcoChargeInformationServer(small_environment)
        server.region_snapshot(Point(5, 5), 6.0, eta_h=11.0, now_h=10.0)
        assert server.gateway.accounting_ok()
        rendered = server.health.render()
        assert "endpoint" in rendered and "weather" in rendered

    def test_rank_trip_completes_at_twenty_percent_faults(
        self, small_environment, sample_trip
    ):
        injector = FaultInjector(seed=5, default=FaultProfile(error_rate=0.2))
        server = EcoChargeInformationServer(small_environment, injector=injector)
        run = server.rank_trip(sample_trip, EcoChargeConfig(k=3, radius_km=12.0))
        assert run.completed_cleanly
        assert len(run.tables) > 0
        assert server.gateway.accounting_ok()


class TestConfidenceDegradation:
    def test_stale_interval_contains_original(self):
        original = Interval(0.4, 0.6)
        widened = DEFAULT_CONFIDENCE.stale_interval(original, age_h=1.0)
        assert original.lo in widened and original.hi in widened
        assert widened.width > original.width

    def test_stale_margin_grows_with_age(self):
        original = Interval(0.5, 0.5)
        young = DEFAULT_CONFIDENCE.stale_interval(original, age_h=0.1)
        old = DEFAULT_CONFIDENCE.stale_interval(original, age_h=1.9)
        assert old.width > young.width

    def test_fallback_is_full_admissible_range(self):
        assert DEFAULT_CONFIDENCE.fallback_interval(0.0, 1.0) == Interval(0.0, 1.0)
        with pytest.raises(ValueError):
            DEFAULT_CONFIDENCE.fallback_interval(1.0, 0.0)

    def test_negative_age_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_CONFIDENCE.degraded_half_width(-0.1)
