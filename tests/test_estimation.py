"""Estimated Component tests: confidence model, weather, L, A, traffic, D, ETA.

The cross-cutting invariants: every EC is an interval containing its
ground truth, interval width grows with forecast horizon, and horizon
zero collapses to the exact value.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chargers.plugshare import CatalogSpec, generate_catalog
from repro.estimation.availability import (
    HOURS_PER_WEEK,
    AvailabilityEstimator,
    BusyTimetable,
)
from repro.estimation.component import DEFAULT_CONFIDENCE, ForecastConfidence
from repro.estimation.derouting import DeroutingEstimator
from repro.estimation.eta import EtaEstimator
from repro.estimation.sustainable import SustainableChargingEstimator
from repro.estimation.traffic import TrafficModel, TrafficParams
from repro.estimation.weather import ATTENUATION, SkyState, WeatherModel
from repro.network.path import Trip


class TestForecastConfidence:
    def test_near_horizon_accuracy(self):
        assert DEFAULT_CONFIDENCE.accuracy(1.0) == pytest.approx(0.955)
        assert DEFAULT_CONFIDENCE.accuracy(12.0) == pytest.approx(0.955)

    def test_three_day_accuracy(self):
        assert DEFAULT_CONFIDENCE.accuracy(72.0) == pytest.approx(0.90)

    def test_monotonically_non_increasing(self):
        horizons = [0, 6, 12, 24, 48, 72, 120, 240, 400]
        accs = [DEFAULT_CONFIDENCE.accuracy(h) for h in horizons]
        assert all(a >= b for a, b in zip(accs, accs[1:]))

    def test_floor_respected(self):
        assert DEFAULT_CONFIDENCE.accuracy(10_000.0) == pytest.approx(0.75)

    def test_interval_clamped(self):
        iv = DEFAULT_CONFIDENCE.interval_around(0.99, horizon_h=48.0)
        assert iv.hi <= 1.0 and iv.lo >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ForecastConfidence(near_accuracy=0.8, far_accuracy=0.9, floor_accuracy=0.7)
        with pytest.raises(ValueError):
            ForecastConfidence(near_accuracy=1.2)

    @given(st.floats(min_value=0.0, max_value=500.0))
    def test_half_width_in_unit_range(self, horizon):
        hw = DEFAULT_CONFIDENCE.half_width(horizon)
        assert 0.0 <= hw <= 0.25  # floor accuracy 0.75


class TestWeatherModel:
    def test_deterministic_given_seed(self):
        a = WeatherModel(seed=3)
        b = WeatherModel(seed=3)
        assert [a.state_at(h) for h in range(48)] == [b.state_at(h) for h in range(48)]

    def test_seeds_differ(self):
        a = WeatherModel(seed=3)
        b = WeatherModel(seed=4)
        assert [a.state_at(h) for h in range(72)] != [b.state_at(h) for h in range(72)]

    def test_random_access_matches_sequential(self):
        sequential = WeatherModel(seed=5)
        seq = [sequential.state_at(h) for h in range(96)]
        random_access = WeatherModel(seed=5)
        assert random_access.state_at(77.0) == seq[77]
        assert random_access.state_at(5.0) == seq[5]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            WeatherModel().state_at(-1.0)

    def test_attenuation_matches_state(self):
        model = WeatherModel(seed=1)
        for h in range(24):
            assert model.attenuation_at(h) == ATTENUATION[model.state_at(h)]

    def test_forecast_contains_truth(self):
        model = WeatherModel(seed=2)
        now = 8.0
        for target in (9.0, 14.0, 30.0, 60.0):
            forecast = model.forecast(target, now)
            assert model.attenuation_at(target) in forecast.attenuation

    def test_zero_horizon_is_exact(self):
        model = WeatherModel(seed=2)
        forecast = model.forecast(8.0, 8.0)
        assert forecast.attenuation.is_exact

    def test_width_grows_with_horizon(self):
        model = WeatherModel(seed=2)
        near = model.forecast(9.0, 8.0).attenuation
        far = model.forecast(56.0, 8.0).attenuation
        assert far.width >= near.width

    def test_window_attenuation_hulls_hours(self):
        model = WeatherModel(seed=6)
        window = model.window_attenuation(10.0, 14.0, now_h=8.0)
        for h in (10.5, 11.5, 12.5, 13.5):
            f = model.forecast(h, 8.0).attenuation
            assert window.lo <= f.lo and window.hi >= f.hi

    def test_window_rejects_reversed(self):
        with pytest.raises(ValueError):
            WeatherModel().window_attenuation(14.0, 10.0, 8.0)


class TestBusyTimetable:
    def test_length_enforced(self):
        with pytest.raises(ValueError):
            BusyTimetable(busyness=(0.5,) * 10)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            BusyTimetable(busyness=(1.5,) + (0.0,) * (HOURS_PER_WEEK - 1))

    def test_generate_deterministic(self):
        assert BusyTimetable.generate(9) == BusyTimetable.generate(9)

    def test_weekly_wraparound(self):
        table = BusyTimetable.generate(1)
        assert table.busy_at(3.0) == table.busy_at(3.0 + HOURS_PER_WEEK)

    def test_peaks_exceed_night(self):
        table = BusyTimetable.generate(2)
        # Tuesday 18:00 (hour 42) should beat Tuesday 03:00 (hour 27).
        assert table.busy_at(24 + 18.0) > table.busy_at(24 + 3.0)


class TestAvailabilityEstimator:
    @pytest.fixture(scope="class")
    def estimator(self, small_registry):
        return AvailabilityEstimator(small_registry, seed=3)

    def test_truth_in_unit_range(self, estimator, small_registry):
        for charger in small_registry:
            for t in (3.0, 8.0, 13.0, 18.0):
                assert 0.0 <= estimator.true_availability(charger, t) <= 1.0

    def test_more_plugs_more_available(self, estimator, small_registry):
        from dataclasses import replace

        charger = small_registry.all()[0]
        single = replace(charger, plugs=1)
        triple = replace(charger, plugs=3)
        t = 18.0  # evening peak
        assert estimator.true_availability(triple, t) >= estimator.true_availability(
            single, t
        )

    def test_estimate_contains_truth(self, estimator, small_registry):
        charger = small_registry.all()[0]
        truth = estimator.true_availability(charger, 14.0)
        interval = estimator.estimate(charger, eta_h=14.0, now_h=10.0)
        assert truth in interval

    def test_zero_horizon_exact(self, estimator, small_registry):
        charger = small_registry.all()[0]
        assert estimator.estimate(charger, 10.0, 10.0).is_exact

    def test_sites_differ(self, estimator, small_registry):
        chargers = small_registry.all()[:10]
        values = {round(estimator.true_availability(c, 13.0), 6) for c in chargers}
        assert len(values) > 1


class TestSustainableEstimator:
    @pytest.fixture(scope="class")
    def estimator(self, small_registry):
        return SustainableChargingEstimator(small_registry, WeatherModel(seed=1))

    def test_normalised_in_unit_range(self, estimator, small_registry):
        for charger in small_registry.all()[:20]:
            level = estimator.estimate(charger, eta_h=13.0, now_h=10.0)
            assert 0.0 <= level.normalised.lo <= level.normalised.hi <= 1.0

    def test_power_capped_by_rate(self, estimator, small_registry):
        for charger in small_registry.all()[:20]:
            level = estimator.estimate(charger, eta_h=13.0, now_h=10.0)
            assert level.power_kw.hi <= charger.rate_kw + 1e-9

    def test_night_is_zero(self, estimator, small_registry):
        charger = small_registry.all()[0]
        level = estimator.estimate(charger, eta_h=26.0, now_h=25.0)  # 2 am next day
        assert level.power_kw.hi == 0.0

    def test_truth_within_forecast_power(self, estimator, small_registry):
        for charger in small_registry.all()[:10]:
            interval = estimator.estimate(charger, eta_h=13.0, now_h=11.0).power_kw
            truth = estimator.true_power_kw(charger, 13.0)
            # Truth at window start must lie within the window's envelope.
            assert interval.lo - 1e-9 <= truth <= interval.hi + 1e-9

    def test_rejects_empty_window(self, estimator, small_registry):
        with pytest.raises(ValueError):
            estimator.estimate(small_registry.all()[0], 13.0, 11.0, window_h=0.0)

    def test_midday_beats_morning(self, estimator, small_registry):
        charger = max(small_registry.all(), key=lambda c: c.solar_capacity_kw)
        morning = estimator.true_power_kw(charger, 7.0)
        noon = estimator.true_power_kw(charger, 13.0)
        assert noon >= morning


class TestTrafficModel:
    def test_multiplier_at_least_one(self):
        model = TrafficModel(seed=1)
        from repro.network.graph import RoadEdge

        edge = RoadEdge(0, 1, 1.0, 50.0)
        for t in (3.0, 8.0, 13.0, 17.5, 23.0):
            assert model.multiplier(edge, t) >= 1.0

    def test_rush_hour_peaks(self):
        model = TrafficModel(seed=1)
        from repro.network.graph import RoadEdge

        edge = RoadEdge(0, 1, 1.0, 50.0)
        assert model.multiplier(edge, 8.0) > model.multiplier(edge, 3.0)
        assert model.multiplier(edge, 17.5) > model.multiplier(edge, 13.0)

    def test_weekend_lighter(self):
        model = TrafficModel(seed=1)
        from repro.network.graph import RoadEdge

        edge = RoadEdge(0, 1, 1.0, 50.0)
        weekday_rush = model.multiplier(edge, 8.0)  # day 0 = Monday
        weekend_rush = model.multiplier(edge, 5 * 24 + 8.0)  # Saturday
        assert weekend_rush < weekday_rush

    def test_interval_contains_truth(self):
        model = TrafficModel(seed=2)
        from repro.network.graph import RoadEdge

        edge = RoadEdge(0, 1, 1.0, 50.0)
        interval = model.multiplier_interval(edge, time_h=17.0, now_h=9.0)
        assert model.multiplier(edge, 17.0) in interval
        assert interval.lo >= 1.0

    def test_bounds_order(self, unit_grid):
        model = TrafficModel(seed=3)
        low, high = model.travel_time_bounds(time_h=17.0, now_h=9.0)
        for edge in unit_grid.edges():
            assert low(edge) <= high(edge)
            assert low(edge) > 0

    def test_energy_fn_congestion_penalty(self, unit_grid):
        model = TrafficModel(seed=3)
        edge = next(unit_grid.edges())
        quiet = model.energy_fn(3.0)(edge)
        rush = model.energy_fn(8.0)(edge)
        assert rush >= quiet

    def test_params_validation(self):
        with pytest.raises(ValueError):
            TrafficParams(peak_width_h=0.0)
        with pytest.raises(ValueError):
            TrafficParams(weekend_scale=2.0)


class TestDeroutingEstimator:
    @pytest.fixture(scope="class")
    def setup(self, small_environment, sample_trip):
        segments = sample_trip.segments()
        return small_environment, sample_trip, segments

    def test_batch_interval_contains_truth(self, setup):
        env, trip, segments = setup
        seg, nxt = segments[0], segments[1] if len(segments) > 1 else None
        pool = env.registry.all()[:15]
        batch = env.derouting.batch_estimate(seg, pool, time_h=10.5, now_h=10.0,
                                             next_segment=nxt)
        assert batch.charger_ids.tolist() == [c.charger_id for c in pool]
        for row, charger in enumerate(pool):
            truth = env.derouting.true_cost_h(seg, charger, 10.5, nxt)
            hours = batch.hours.at(row)
            assert hours.lo - 1e-6 <= truth <= hours.hi + 1e-6

    def test_normalised_unit_range(self, setup):
        env, trip, segments = setup
        batch = env.derouting.batch_estimate(
            segments[0], env.registry.all(), time_h=10.5, now_h=10.0
        )
        for normalised in batch.normalised.to_intervals():
            assert 0.0 <= normalised.lo <= normalised.hi <= 1.0

    def test_on_route_charger_cheapest(self, setup):
        """A charger at the segment anchor has near-zero derouting."""
        env, trip, segments = setup
        seg = segments[0]
        anchored = [c for c in env.registry.all() if c.node_id == seg.anchor_node]
        batch = env.derouting.batch_estimate(
            seg, env.registry.all(), time_h=10.5, now_h=10.0
        )
        if anchored:
            hours = batch.hours.to_intervals()
            cheapest = min(hours, key=lambda iv: iv.lo)
            row = batch.charger_ids.tolist().index(anchored[0].charger_id)
            assert hours[row].lo <= cheapest.lo * 1.5 + 0.05

    def test_empty_pool(self, setup):
        env, trip, segments = setup
        batch = env.derouting.batch_estimate(segments[0], [], 10.5, 10.0)
        assert len(batch.charger_ids) == len(batch.hours) == len(batch.normalised) == 0

    def test_unreachable_saturates(self, small_environment, sample_trip):
        env = small_environment
        seg = sample_trip.segments()[0]
        batch = env.derouting.batch_estimate(
            seg, env.registry.all()[:5], time_h=10.5, now_h=10.0,
            search_budget_h=1e-9,  # nothing reachable
        )
        for normalised in batch.normalised.to_intervals():
            assert normalised.hi == 1.0

    def test_validation(self, small_environment):
        with pytest.raises(ValueError):
            DeroutingEstimator(small_environment.network, small_environment.traffic,
                               max_derouting_h=0.0)


class TestEtaEstimator:
    def test_etas_monotone(self, small_environment, sample_trip):
        etas = small_environment.eta.segment_etas(sample_trip)
        expected = [e.expected_h for e in etas]
        assert expected == sorted(expected)
        assert expected[0] == sample_trip.departure_time_h

    def test_interval_brackets_expected(self, small_environment, sample_trip):
        for eta in small_environment.eta.segment_etas(sample_trip):
            assert eta.interval.lo <= eta.expected_h + 1e-6
            # Pessimistic bound must not be below the optimistic one.
            assert eta.interval.lo <= eta.interval.hi

    def test_eta_at_segment(self, small_environment, sample_trip):
        segment = sample_trip.segments()[1]
        eta = small_environment.eta.eta_at_segment(sample_trip, segment)
        assert eta.segment_index == 1

    def test_eta_unknown_segment_raises(self, small_environment, sample_trip, unit_grid):
        other = Trip.route(unit_grid, 0, 35).segments()[0]
        from dataclasses import replace

        bogus = replace(other, index=999)
        with pytest.raises(ValueError):
            small_environment.eta.eta_at_segment(sample_trip, bogus)

    def test_traffic_slows_travel(self, small_environment, sample_trip):
        under_traffic = small_environment.eta.point_to_point_h(sample_trip)
        free_flow = sample_trip.travel_time_h()
        assert under_traffic >= free_flow
