"""``score_pool``'s array kernels for ``L`` and ``A`` against the
per-charger scalar oracle in :mod:`tests.scalar_oracle`, bit for bit, on
the plain and the fault-tolerant environment; and the gateway's pool
fronts against the same fronts called one charger at a time."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.environment import ChargingEnvironment
from repro.estimation.component import DEFAULT_CONFIDENCE
from repro.observability import Deadline, DeadlineExpired, Telemetry, render_prometheus
from repro.observability.clock import SimulatedClock
from repro.resilience import (
    BreakerConfig,
    EndpointPolicy,
    FaultInjector,
    FaultProfile,
    FaultTolerantEnvironment,
    OutageWindow,
    ResilienceConfig,
    ResilienceGateway,
    RetryPolicy,
)
from repro.server.cache import ResponseCache

from .scalar_oracle import availability_row, sustainable_row

#: (eta_h, now_h) per case.
CASES = {
    "night": (26.0, 25.0),  # 02:00 to 03:00: every clear-sky sample is 0
    "sunset": (19.5, 18.0),  # 19:30 to 20:30 crosses the 20:00 sunset
    "midday": (12.25, 10.0),
    "exact": (13.0, 13.0),  # horizon 0: exact intervals
    "past": (13.0, 14.5),  # negative horizon: exact intervals
    "tail": (13.0 + 96.0, 13.0),  # past 72 h: accuracy decays toward the floor
    "floor": (13.0 + 300.0, 13.0),  # past 72 h + one week: floor accuracy
}


def hexes(values) -> list[str]:
    """``float.hex`` per value: exact, and tells -0.0 from 0.0."""
    return [float(v).hex() for v in values]


def pools(registry):
    chargers = registry.all()
    shuffled = list(chargers)
    random.Random(4).shuffle(shuffled)
    return {
        "empty": [],
        "one": chargers[:1],
        "reversed": chargers[::-1],
        "shuffled": shuffled,
    }


def assert_bitequal(priced, expected_l, expected_a) -> None:
    assert hexes(priced.sustainable.lo) == hexes(iv.lo for iv in expected_l)
    assert hexes(priced.sustainable.hi) == hexes(iv.hi for iv in expected_l)
    assert hexes(priced.availability.lo) == hexes(iv.lo for iv in expected_a)
    assert hexes(priced.availability.hi) == hexes(iv.hi for iv in expected_a)


@pytest.fixture(scope="module")
def segment(sample_trip):
    return sample_trip.segments()[0]


class TestCases:
    """The cases exercise the branches they are named for."""

    def test_night_is_all_zero(self, small_environment, segment):
        eta, now = CASES["night"]
        priced = small_environment.score_pool(
            segment, small_environment.registry.all(), eta, now
        )
        assert not priced.sustainable.hi.any()

    def test_sunset_window_mixes_zero_and_daylight_samples(
        self, small_environment, segment
    ):
        eta, now = CASES["sunset"]
        priced = small_environment.score_pool(
            segment, small_environment.registry.all(), eta, now
        )
        assert not priced.sustainable.lo.any()
        assert priced.sustainable.hi.all()

    @pytest.mark.parametrize("case", ["exact", "past"])
    def test_non_positive_horizon_is_exact(self, small_environment, segment, case):
        eta, now = CASES[case]
        priced = small_environment.score_pool(
            segment, small_environment.registry.all(), eta, now
        )
        assert priced.availability.is_exact.all()

    def test_floor_case_reaches_floor_accuracy(self):
        eta, now = CASES["floor"]
        assert DEFAULT_CONFIDENCE.accuracy(eta - now) == DEFAULT_CONFIDENCE.floor_accuracy


class TestPlainEnvironment:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("pool_name", ["empty", "one", "reversed", "shuffled"])
    def test_matches_scalar_oracle(self, small_environment, segment, case, pool_name):
        eta, now = CASES[case]
        pool = pools(small_environment.registry)[pool_name]
        priced = small_environment.score_pool(segment, pool, eta, now)
        assert priced.charger_ids.tolist() == [c.charger_id for c in pool]
        assert_bitequal(
            priced,
            [sustainable_row(small_environment, c, eta, now) for c in pool],
            [availability_row(small_environment, c, eta, now) for c in pool],
        )

    def test_one_row_estimates_match_the_pool(self, small_environment):
        eta, now = CASES["midday"]
        pool = pools(small_environment.registry)["shuffled"]
        batch_l = small_environment.sustainable.batch_estimate(pool, eta, now)
        batch_a = small_environment.availability.batch_estimate(pool, eta, now)
        for row, charger in enumerate(pool):
            level = small_environment.sustainable.estimate(charger, eta, now)
            assert hexes([level.normalised.lo, level.normalised.hi]) == hexes(
                [batch_l.lo[row], batch_l.hi[row]]
            )
            avail = small_environment.availability.estimate(charger, eta, now)
            assert hexes([avail.lo, avail.hi]) == hexes([batch_a.lo[row], batch_a.hi[row]])


class TestFaultTolerantEnvironment:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_healthy_gateway_matches_scalar_oracle(self, small_environment, segment, case):
        eta, now = CASES[case]
        environment = FaultTolerantEnvironment.build(small_environment)
        pool = pools(small_environment.registry)["shuffled"]
        priced = environment.score_pool(segment, pool, eta, now)
        assert_bitequal(
            priced,
            [sustainable_row(small_environment, c, eta, now) for c in pool],
            [availability_row(small_environment, c, eta, now) for c in pool],
        )

    @pytest.mark.parametrize("pool_name", ["empty", "one", "reversed", "shuffled"])
    def test_faulted_gateway_matches_per_charger_fetches(
        self, small_environment, segment, pool_name
    ):
        """Two identically seeded faulted gateways: one prices pools with
        ``score_pool``, the other charger by charger as the scalar loop
        did (``L`` fetch, then ``A`` fetch, per charger).  The second
        round comes an hour later, so expired entries are served stale
        when the upstream fails."""

        def build() -> FaultTolerantEnvironment:
            injector = FaultInjector(seed=9, default=FaultProfile(error_rate=0.45))
            gateway = ResilienceGateway.build(small_environment, injector=injector)
            return FaultTolerantEnvironment(small_environment, gateway)

        batched, scalar = build(), build()
        pool = pools(small_environment.registry)[pool_name]
        window_h = small_environment.charging_window_h
        eta = 14.0
        for now in (10.0, 11.0):
            priced = batched.score_pool(segment, pool, eta, now)
            expected_l, expected_a = [], []
            for charger in pool:
                attenuation = scalar.gateway.window_attenuation(
                    [charger], eta, eta + window_h, now
                )[0].value
                expected_l.append(
                    sustainable_row(small_environment, charger, eta, now, attenuation)
                )
                expected_a.append(scalar.gateway.availability([charger], eta, now)[0].value)
            assert_bitequal(priced, expected_l, expected_a)
        health = batched.gateway.health.endpoints
        for endpoint in ("weather", "busy"):
            # Same rung counts as the per-charger loop.
            assert health[endpoint] == scalar.gateway.health.endpoints[endpoint]
        if len(pool) > 1:
            assert health["weather"].degraded > 0
            assert health["busy"].stale_served > 0
        assert batched.gateway.accounting_ok()


# ---------------------------------------------------------------------------
# one gateway pass per pool == one pass per charger, in pool order
# ---------------------------------------------------------------------------

#: Simulated request time of the pool walk; warm entries are written
#: before it, at ``NOW - age``.
NOW = 10.0
ETA = 11.5
#: Entry ages: inside the 0.5 h TTL, past it but inside the 2 h
#: staleness bound, and past the bound.
WARM_AGES = {"fresh": 0.2, "stale": 1.0, "expired": 3.0}


def front(gateway: ResilienceGateway, endpoint: str, pool):
    window_h = gateway.environment.charging_window_h
    if endpoint == "availability":
        return gateway.availability(pool, ETA, NOW)
    return gateway.window_attenuation(pool, ETA, ETA + window_h, NOW)


def build_gateway(network, registry, plan) -> ResilienceGateway:
    """A fresh environment and gateway, seeded by ``plan`` alone."""
    environment = ChargingEnvironment(network, registry, seed=5)
    if plan["telemetry"]:
        environment.set_telemetry(Telemetry.simulated(tick_s=0.001))
    outages = (OutageWindow(NOW - 0.05, NOW + 0.05),) if plan["outage"] else ()
    profile = FaultProfile(
        error_rate=plan["error_rate"],
        latency_spike_rate=plan["spike_rate"],
        outages=outages,
    )
    policy = EndpointPolicy(
        retry=RetryPolicy(max_attempts=plan["max_attempts"]),
        breaker=BreakerConfig(failure_threshold=plan["failure_threshold"]),
    )
    return ResilienceGateway.build(
        environment,
        cache=ResponseCache(ttl_h=0.5, max_entries=plan["cache_entries"]),
        config=ResilienceConfig(weather=policy, busy=policy, seed=3),
        injector=FaultInjector(seed=plan["seed"], default=profile),
    )


def warm(gateway: ResilienceGateway, endpoint: str, pool, ages) -> None:
    """Write each charger's warm entry at its age, oldest first, through
    one-charger fetches (the faults apply, so some writes fail)."""
    for name in ("expired", "stale", "fresh"):
        now = NOW - WARM_AGES[name]
        for charger, age in zip(pool, ages):
            if age != name:
                continue
            window_h = gateway.environment.charging_window_h
            if endpoint == "availability":
                gateway.availability([charger], ETA, now)
            else:
                gateway.window_attenuation([charger], ETA, ETA + window_h, now)


def result_bits(results) -> list[tuple]:
    """Each ``FetchResult`` as its rung and the hex of every float."""
    return [
        (r.level, r.age_h.hex(), r.value.lo.hex(), r.value.hi.hex()) for r in results
    ]


def gateway_state(gateway: ResilienceGateway) -> dict:
    """Everything a pool walk may touch: health, provider usage, cache
    stats and LRU contents in recency order, breakers, the injector's
    stats and fault streams, and the retry jitter streams."""
    injector = gateway.injector
    telemetry = gateway.environment.telemetry
    return {
        "health": gateway.health.as_dict(),
        "usage": gateway.usage,
        "cache_stats": gateway.cache.stats,
        "lru": list(gateway.cache._entries._entries.items()),
        "breakers": gateway.breaker_states(),
        "injector_stats": injector.stats,
        "fault_streams": {name: rng.getstate() for name, rng in injector._rngs.items()},
        "retry_streams": {
            name: endpoint._rng.getstate() for name, endpoint in gateway.endpoints.items()
        },
        "spans": [
            (
                span.name,
                span.attributes,
                span.start_s,
                span.end_s,
                [(e.name, e.time_s, e.attributes) for e in span.events],
            )
            for span in telemetry.finished_spans()
        ],
        "metrics": render_prometheus(telemetry.registry) if telemetry.enabled else "",
    }


@st.composite
def pool_plans(draw):
    size = draw(st.integers(0, 20))
    return {
        "endpoint": draw(st.sampled_from(["availability", "window_attenuation"])),
        "pool": draw(
            st.lists(st.integers(0, 59), min_size=size, max_size=size, unique=True)
        ),
        "ages": draw(
            st.lists(
                st.sampled_from([None, *WARM_AGES]), min_size=size, max_size=size
            )
        ),
        "error_rate": draw(st.sampled_from([0.0, 0.15, 0.4])),
        "spike_rate": draw(st.sampled_from([0.0, 0.1])),
        "outage": draw(st.sampled_from([False, False, False, True])),
        # A threshold of 1 or 2 opens the breaker mid-pool under faults.
        "failure_threshold": draw(st.integers(1, 5)),
        "max_attempts": draw(st.integers(1, 3)),
        # Below the pool size, puts evict mid-pool.
        "cache_entries": draw(st.integers(1, 20)),
        "telemetry": draw(st.booleans()),
        "seed": draw(st.integers(0, 50)),
    }


@settings(max_examples=60, deadline=None)
@given(plan=pool_plans())
def test_pool_front_equals_one_charger_fronts(small_network, small_registry, plan):
    chargers = small_registry.all()
    pool = [chargers[i] for i in plan["pool"]]
    endpoint = plan["endpoint"]
    pooled = build_gateway(small_network, small_registry, plan)
    single = build_gateway(small_network, small_registry, plan)
    for gateway in (pooled, single):
        warm(gateway, endpoint, pool, plan["ages"])
    assert gateway_state(pooled) == gateway_state(single)

    pooled_results = front(pooled, endpoint, pool)
    single_results = [front(single, endpoint, [c])[0] for c in pool]
    assert result_bits(pooled_results) == result_bits(single_results)
    assert gateway_state(pooled) == gateway_state(single)
    assert pooled.accounting_ok()


@pytest.mark.parametrize("endpoint", ["availability", "window_attenuation"])
def test_deadline_expires_at_the_same_key(small_network, small_registry, endpoint):
    """A deadline that runs out mid-pool raises at the same key on both
    sides and leaves the same partial state: the keys before it were
    walked, the ones after it were not."""
    plan = {
        "error_rate": 0.3,
        "spike_rate": 0.0,
        "outage": False,
        "failure_threshold": 5,
        "max_attempts": 2,
        "cache_entries": 40,
        "telemetry": False,
        "seed": 1,
    }
    pool = small_registry.all()[:12]
    ages = ["fresh", None, None, "fresh", None, None, None, None, None, None, None, None]
    pooled = build_gateway(small_network, small_registry, plan)
    single = build_gateway(small_network, small_registry, plan)
    for gateway in (pooled, single):
        warm(gateway, endpoint, pool, ages)
        # Issuing reads the clock once and every cache miss's checkpoint
        # once more, so the sixth miss is the first one past due.
        gateway.environment.set_cancellation(Deadline(SimulatedClock(tick_s=1.0), 5.5))

    with pytest.raises(DeadlineExpired) as pooled_error:
        front(pooled, endpoint, pool)
    walked = 0
    with pytest.raises(DeadlineExpired) as single_error:
        for charger in pool:
            front(single, endpoint, [charger])
            walked += 1
    assert 0 < walked < len(pool) - 1
    assert pooled_error.value.where == single_error.value.where == "gateway"
    assert pooled_error.value.overrun_s == single_error.value.overrun_s
    assert gateway_state(pooled) == gateway_state(single)
