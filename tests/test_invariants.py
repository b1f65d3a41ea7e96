"""Cross-cutting semantic invariants of the scoring and estimation stack.

These are the properties a reviewer would check the maths against:
dominance monotonicity of the SC score, conservation in the session
simulator, and consistency between the interval machinery and the
paper's equations.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals import Interval
from repro.core.scoring import ABLATION_CONFIGS, Weights, sc_exact

from .scalar_oracle import ComponentScores, intersect_top_k, sc_score

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def unit_interval(draw):
    a, b = sorted((draw(unit), draw(unit)))
    return Interval(a, b)


def _improved(iv: Interval, delta: float) -> Interval:
    """Shift both endpoints toward 1 by ``delta`` of their headroom.

    The map ``x -> x + delta * (1 - x)`` is monotone in exact arithmetic
    but not under float rounding (e.g. lo=0.18, hi=0.25,
    delta=0.9999999999999999 rounds lo to 1.0 and hi just below it), so
    the endpoints are re-ordered before constructing the interval.
    """
    lo = min(1.0, iv.lo + delta * (1 - iv.lo))
    hi = min(1.0, iv.hi + delta * (1 - iv.hi))
    return Interval(min(lo, hi), max(lo, hi))


class TestScoreDominance:
    @settings(max_examples=80)
    @given(unit_interval(), unit_interval(), unit_interval(), unit, unit, unit)
    def test_better_components_never_score_lower(self, l_iv, a_iv, d_iv, dl, da, dd):
        """If charger B is at least as sustainable, at least as available,
        and at most as costly to reach as charger A — interval endpoints
        shifted the favourable way — B's scenario scores dominate A's
        under any weight configuration."""
        a = ComponentScores(0, l_iv, a_iv, d_iv)
        better = ComponentScores(
            1,
            _improved(l_iv, dl),
            _improved(a_iv, da),
            Interval(d_iv.lo * (1 - dd), d_iv.hi * (1 - dd)),
        )
        for weights in ABLATION_CONFIGS.values():
            score_a = sc_score(a, weights)
            score_b = sc_score(better, weights)
            assert score_b.sc_min >= score_a.sc_min - 1e-9
            assert score_b.sc_max >= score_a.sc_max - 1e-9

    @settings(max_examples=80)
    @given(unit, unit, unit)
    def test_exact_components_bridge_interval_and_point_scores(self, l, a, d):
        """Point-valued components: the scenario scores collapse onto the
        oracle formula ``sc_exact`` (the two code paths must agree)."""
        comp = ComponentScores(0, Interval.exact(l), Interval.exact(a), Interval.exact(d))
        for weights in ABLATION_CONFIGS.values():
            score = sc_score(comp, weights)
            want = sc_exact(l, a, d, weights)
            assert score.sc_min == pytest.approx(want)
            assert score.sc_max == pytest.approx(want)

    @settings(max_examples=60)
    @given(
        st.lists(st.tuples(unit, unit, unit), min_size=2, max_size=20),
        st.integers(min_value=1, max_value=5),
    )
    def test_exact_scores_make_intersection_a_plain_topk(self, rows, k):
        """With exact components the Eq. 6 intersection degenerates to the
        ordinary top-k by score."""
        comps = [
            ComponentScores(i, Interval.exact(l), Interval.exact(a), Interval.exact(d))
            for i, (l, a, d) in enumerate(rows)
        ]
        scores = [sc_score(c, Weights.equal()) for c in comps]
        chosen = {s.charger_id for s in intersect_top_k(scores, k)}
        plain = sorted(scores, key=lambda s: (-s.sc_max, s.charger_id))[:k]
        assert chosen == {s.charger_id for s in plain}


class TestSessionConservation:
    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.25, max_value=4.0),
        st.floats(min_value=6.0, max_value=20.0),
    )
    def test_energy_conservation_and_bounds(self, soc, duration, start_h):
        """Sessions never overfill the battery, never deliver negative
        energy, and delivered + curtailed never exceeds what the sun
        physically produced over the window."""
        from repro.chargers.charger import Charger, Vehicle
        from repro.chargers.registry import ChargerRegistry
        from repro.chargers.session import ChargingSessionSimulator
        from repro.chargers.solar import SolarProfile
        from repro.estimation.sustainable import SustainableChargingEstimator
        from repro.estimation.weather import WeatherModel
        from repro.spatial.geometry import Point

        charger = Charger(0, Point(0, 0), 0, rate_kw=22.0, solar_capacity_kw=30.0)
        registry = ChargerRegistry([charger])
        estimator = SustainableChargingEstimator(registry, WeatherModel(seed=1))
        simulator = ChargingSessionSimulator(estimator)
        vehicle = Vehicle(0, battery_kwh=40.0, state_of_charge=soc)
        result = simulator.simulate(charger, vehicle, start_h, duration)
        assert result.energy_kwh >= 0.0
        assert result.final_soc <= 1.0 + 1e-9
        assert result.final_soc >= soc - 1e-9
        # Physical production over the window bounds delivery + curtailment.
        produced = sum(
            estimator.true_power_kw(charger, start_h + 0.25 * i) * 0.25
            for i in range(int(duration / 0.25) + 1)
        )
        assert result.energy_kwh + result.curtailed_kwh <= produced + 0.25 * 30.0


class TestForecastSoundness:
    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=72.0),
        st.integers(min_value=0, max_value=5),
    )
    def test_weather_forecast_always_contains_truth(self, now, horizon, seed):
        from repro.estimation.weather import WeatherModel

        model = WeatherModel(seed=seed)
        target = now + horizon
        forecast = model.forecast(target, now)
        assert model.attenuation_at(target) in forecast.attenuation

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=48.0),
    )
    def test_traffic_interval_always_contains_truth(self, now, horizon):
        from repro.estimation.traffic import TrafficModel
        from repro.network.graph import RoadEdge

        model = TrafficModel(seed=2)
        edge = RoadEdge(3, 4, 1.2, 60.0)
        target = now + horizon
        interval = model.multiplier_interval(edge, target, now)
        assert model.multiplier(edge, target) in interval
        assert interval.lo >= 1.0
