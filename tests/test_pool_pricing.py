"""``score_pool``'s array kernels for ``L`` and ``A`` against the
per-charger scalar oracle in :mod:`tests.scalar_oracle`, bit for bit, on
the plain and the fault-tolerant environment."""

from __future__ import annotations

import random

import pytest

from repro.estimation.component import DEFAULT_CONFIDENCE
from repro.resilience import (
    FaultInjector,
    FaultProfile,
    FaultTolerantEnvironment,
    ResilienceGateway,
)

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
                    charger.point, eta, eta + window_h, now
                ).value
                expected_l.append(
                    sustainable_row(small_environment, charger, eta, now, attenuation)
                )
                expected_a.append(scalar.gateway.availability(charger, eta, now).value)
            assert_bitequal(priced, expected_l, expected_a)
        health = batched.gateway.health.endpoints
        for endpoint in ("weather", "busy"):
            # Same rung counts as the per-charger loop.
            assert health[endpoint] == scalar.gateway.health.endpoints[endpoint]
        if len(pool) > 1:
            assert health["weather"].degraded > 0
            assert health["busy"].stale_served > 0
        assert batched.gateway.accounting_ok()
