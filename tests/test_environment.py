"""ChargingEnvironment tests: forecast vs oracle views."""

import pytest

from repro.core.environment import ChargingEnvironment

from .scalar_oracle import rows


class TestScorePool:
    def test_one_score_per_charger(self, small_environment, sample_trip):
        segment = sample_trip.segments()[0]
        pool = small_environment.registry.all()[:10]
        scores = small_environment.score_pool(segment, pool, eta_h=10.5, now_h=10.0)
        assert scores.charger_ids.tolist() == [c.charger_id for c in pool]

    def test_all_components_normalised(self, small_environment, sample_trip):
        segment = sample_trip.segments()[0]
        scores = small_environment.score_pool(
            segment, small_environment.registry.all(), eta_h=10.5, now_h=10.0
        )
        for comp in rows(scores):
            for iv in (comp.sustainable, comp.availability, comp.derouting):
                assert 0.0 <= iv.lo <= iv.hi <= 1.0

    def test_budget_saturates_far_chargers(self, small_environment, sample_trip):
        segment = sample_trip.segments()[0]
        pool = small_environment.registry.all()
        tight = small_environment.score_pool(
            segment, pool, eta_h=10.5, now_h=10.0, search_budget_h=1e-9
        )
        assert all(c.derouting.hi == 1.0 for c in rows(tight))


class TestOracleView:
    def test_truth_within_forecast(self, small_environment, sample_trip):
        """The defining EC property: every forecast interval contains the
        ground truth it estimates."""
        segments = sample_trip.segments()
        segment, nxt = segments[0], segments[1]
        pool = small_environment.registry.all()[:20]
        eta = 10.5
        forecast = small_environment.score_pool(
            segment, pool, eta_h=eta, now_h=10.0, next_segment=nxt
        )
        truths = small_environment.true_components_pool(segment, pool, eta, nxt)
        for comp in rows(forecast):
            truth = truths[comp.charger_id]
            assert comp.sustainable.lo - 1e-9 <= truth.sustainable <= comp.sustainable.hi + 1e-9
            assert comp.availability.lo - 1e-9 <= truth.availability <= comp.availability.hi + 1e-9
            assert comp.derouting.lo - 1e-9 <= truth.derouting <= comp.derouting.hi + 1e-9

    def test_pool_matches_single(self, small_environment, sample_trip):
        segments = sample_trip.segments()
        segment, nxt = segments[0], segments[1]
        pool = small_environment.registry.all()[:5]
        batch = small_environment.true_components_pool(segment, pool, 10.5, nxt)
        for charger in pool:
            single = small_environment.true_components(segment, charger, 10.5, nxt)
            got = batch[charger.charger_id]
            assert got.sustainable == pytest.approx(single.sustainable)
            assert got.availability == pytest.approx(single.availability)
            assert got.derouting == pytest.approx(single.derouting, abs=1e-9)

    def test_truth_values_in_unit_range(self, small_environment, sample_trip):
        segment = sample_trip.segments()[0]
        truths = small_environment.true_components_pool(
            segment, small_environment.registry.all(), 13.0
        )
        for truth in truths.values():
            assert 0.0 <= truth.sustainable <= 1.0
            assert 0.0 <= truth.availability <= 1.0
            assert 0.0 <= truth.derouting <= 1.0


class TestConstruction:
    def test_defaults_built(self, small_network, small_registry):
        env = ChargingEnvironment(small_network, small_registry, seed=1)
        assert env.weather is not None and env.traffic is not None

    def test_invalid_window(self, small_network, small_registry):
        with pytest.raises(ValueError):
            ChargingEnvironment(small_network, small_registry, charging_window_h=0.0)

    def test_seed_controls_estimators(self, small_network, small_registry, sample_trip):
        a = ChargingEnvironment(small_network, small_registry, seed=1)
        b = ChargingEnvironment(small_network, small_registry, seed=2)
        segment = sample_trip.segments()[0]
        charger = small_registry.all()[0]
        availability_a = a.availability.true_availability(charger, 13.0)
        availability_b = b.availability.true_availability(charger, 13.0)
        assert availability_a != availability_b  # different busy timetables
