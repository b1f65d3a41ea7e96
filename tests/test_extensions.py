"""Future-work extension tests: tariff-aware ranking, load balancing."""

import pytest

from repro.core.ecocharge import EcoChargeConfig
from repro.core.extensions import (
    BalancedEcoChargeRanker,
    ChargerLoadBalancer,
    ExtendedWeights,
    TariffAwareRanker,
)
from repro.intervals import Interval
from repro.core.ranking import run_over_trip
from repro.interval_array import ComponentArrays

from .scalar_oracle import ComponentScores


class TestExtendedWeights:
    def test_equal(self):
        w = ExtendedWeights.equal()
        assert w.cost == pytest.approx(0.25)

    def test_sum_enforced(self):
        with pytest.raises(ValueError):
            ExtendedWeights(0.5, 0.5, 0.5, 0.5)

    def test_non_negative(self):
        with pytest.raises(ValueError):
            ExtendedWeights(1.2, -0.2, 0.0, 0.0)

    def test_base_projection_renormalises(self):
        w = ExtendedWeights(0.3, 0.3, 0.2, 0.2)
        base = w.base_weights()
        assert base.sustainable == pytest.approx(0.375)
        assert sum(base.as_tuple()) == pytest.approx(1.0)

    def test_cost_only_projection_falls_back(self):
        base = ExtendedWeights(0.0, 0.0, 0.0, 1.0).base_weights()
        assert sum(base.as_tuple()) == pytest.approx(1.0)


class TestTariffAwareRanker:
    def test_produces_k_entries(self, small_environment, sample_trip):
        ranker = TariffAwareRanker(
            small_environment, EcoChargeConfig(k=3, radius_km=12.0)
        )
        run = run_over_trip(ranker, small_environment, sample_trip)
        assert all(len(table) == 3 for table in run.tables)

    def test_overshoot_validation(self, small_environment):
        with pytest.raises(ValueError):
            TariffAwareRanker(small_environment, overshoot=0)

    def test_rescoring_includes_cost_term(self, small_environment, sample_trip):
        """With all weight on cost, every charger at the same ETA scores
        identically — entries then sort by id (stable deterministic)."""
        ranker = TariffAwareRanker(
            small_environment,
            EcoChargeConfig(k=3, radius_km=12.0),
            weights=ExtendedWeights(0.0, 0.0, 0.0, 1.0),
        )
        segment = sample_trip.segments()[0]
        table = ranker.rank_segment(sample_trip, segment, eta_h=10.2, now_h=10.0)
        scores = {e.score.sc_max for e in table}
        assert len(scores) == 1  # same tariff for everyone

    def test_off_peak_eta_scores_higher(self, small_environment, sample_trip):
        ranker = TariffAwareRanker(
            small_environment,
            EcoChargeConfig(k=3, radius_km=12.0),
            weights=ExtendedWeights(0.0, 0.0, 0.0, 1.0),
        )
        segment = sample_trip.segments()[0]
        peak = ranker.rank_segment(sample_trip, segment, eta_h=18.0, now_h=17.5)
        ranker.reset()
        off = ranker.rank_segment(sample_trip, segment, eta_h=27.0, now_h=26.5)
        assert off.best.score.sc_max > peak.best.score.sc_max


class TestChargerLoadBalancer:
    def test_register_and_load(self):
        balancer = ChargerLoadBalancer(slot_h=0.5)
        balancer.register(7, eta_h=10.1)
        balancer.register(7, eta_h=10.2)  # same slot
        balancer.register(7, eta_h=11.0)  # different slot
        assert balancer.load(7, 10.15) == 2
        assert balancer.load(7, 11.1) == 1
        assert balancer.load(8, 10.1) == 0

    def test_adjusted_availability_dampens(self, small_registry):
        balancer = ChargerLoadBalancer(penalty_per_vehicle=0.25)
        charger = small_registry.all()[0]
        base = Interval(0.8, 0.9)
        assert balancer.adjusted_availability(charger, base, 10.0) == base
        for __ in range(2):
            balancer.register(charger.charger_id, 10.0)
        damped = balancer.adjusted_availability(charger, base, 10.0)
        assert damped.hi < base.hi

    def test_penalty_never_negative(self, small_registry):
        balancer = ChargerLoadBalancer(penalty_per_vehicle=1.0)
        charger = small_registry.all()[0]
        for __ in range(20):
            balancer.register(charger.charger_id, 10.0)
        damped = balancer.adjusted_availability(charger, Interval(0.5, 0.9), 10.0)
        assert damped.lo >= 0.0 and damped.hi >= 0.0

    def test_adjust_components(self, small_registry):
        balancer = ChargerLoadBalancer()
        chargers = small_registry.all()[:3]
        components = ComponentArrays.from_scores([
            ComponentScores(c.charger_id, Interval.exact(0.5), Interval(0.6, 0.8),
                            Interval.exact(0.2))
            for c in chargers
        ])
        balancer.register(chargers[0].charger_id, 10.0)
        adjusted = balancer.adjust_components(chargers, components, 10.0)
        assert adjusted.availability.hi[0] < components.availability.hi[0]
        assert adjusted.availability.at(1) == components.availability.at(1)

    def test_clear(self):
        balancer = ChargerLoadBalancer()
        balancer.register(1, 10.0)
        balancer.clear()
        assert balancer.load(1, 10.0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ChargerLoadBalancer(slot_h=0.0)
        with pytest.raises(ValueError):
            ChargerLoadBalancer(penalty_per_vehicle=-1.0)


class TestBalancedRanker:
    def test_fleet_spreads_over_chargers(self, small_environment, sample_trip):
        """Without balancing, every vehicle gets the same top charger; with
        it, later vehicles are redirected once the best site queues up."""
        balancer = ChargerLoadBalancer(slot_h=1.0, penalty_per_vehicle=0.5)
        config = EcoChargeConfig(k=5, radius_km=12.0)
        picks = []
        for __ in range(4):
            ranker = BalancedEcoChargeRanker(small_environment, balancer, config)
            segment = sample_trip.segments()[0]
            table = ranker.rank_segment(sample_trip, segment, eta_h=10.2, now_h=10.0)
            picks.append(table.best.charger_id)
        assert len(set(picks)) > 1  # redirection happened

    def test_registers_top_pick(self, small_environment, sample_trip):
        balancer = ChargerLoadBalancer()
        ranker = BalancedEcoChargeRanker(
            small_environment, balancer, EcoChargeConfig(k=3, radius_km=12.0)
        )
        segment = sample_trip.segments()[0]
        table = ranker.rank_segment(sample_trip, segment, eta_h=10.2, now_h=10.0)
        assert balancer.load(table.best.charger_id, 10.2) == 1

    def test_runs_over_trip(self, small_environment, sample_trip):
        balancer = ChargerLoadBalancer()
        ranker = BalancedEcoChargeRanker(
            small_environment, balancer, EcoChargeConfig(k=3, radius_km=12.0)
        )
        run = run_over_trip(ranker, small_environment, sample_trip)
        assert len(run.tables) == len(sample_trip.segments())
