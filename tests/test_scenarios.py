"""Scenario-builder tests (the paper's three motivating settings)."""

from collections import Counter

import pytest

from repro.core.ecocharge import EcoChargeConfig
from repro.simulation.events import EventKind
from repro.simulation.fleet import VehiclePhase
from repro.simulation.scenarios import (
    SCENARIOS,
    SHOPPING_TRIP,
    TAXI_IDLE,
    WAITING_PARENT,
    run_scenario,
    scenario_comparison,
)
from repro.resilience import IncidentChaos
from repro.simulation.chaos import ChaosPlan, check, run_chaos
from repro.trajectories.datasets import load_workload


@pytest.fixture(scope="module")
def workload():
    return load_workload("oldenburg", scale=0.25)


class TestScenarioDefinitions:
    def test_all_three_present(self):
        assert set(SCENARIOS) == {"taxi-idle", "waiting-parent", "shopping-trip"}

    def test_scenarios_differ_in_idle_window(self):
        windows = {s.idle_duration_h for s in SCENARIOS.values()}
        assert len(windows) == 3

    def test_daytime_departures(self):
        """Hoarding scenarios happen in daylight (solar must be live)."""
        for scenario in SCENARIOS.values():
            assert 6.0 < scenario.departure_h % 24 < 20.0


class TestScenarioRuns:
    def test_taxi_idle_runs(self, workload):
        report = run_scenario(
            TAXI_IDLE, workload, EcoChargeConfig(k=3, radius_km=15.0)
        )
        assert len(report.outcomes) == TAXI_IDLE.fleet_size
        assert report.arrived >= TAXI_IDLE.fleet_size - 1

    def test_low_soc_fleets_charge(self, workload):
        report = run_scenario(
            SHOPPING_TRIP, workload, EcoChargeConfig(k=3, radius_km=15.0)
        )
        assert report.events.count(EventKind.CHARGING_FINISHED) >= 1
        assert report.total_clean_kwh > 0.0

    def test_departure_times_match_scenario(self, workload):
        sim = WAITING_PARENT.build(workload, EcoChargeConfig(k=3, radius_km=15.0))
        report = sim.run()
        departures = [e.time_h for e in report.events.of_kind(EventKind.DEPARTED)]
        assert min(departures) >= WAITING_PARENT.departure_h - 1e-6
        assert max(departures) <= WAITING_PARENT.departure_h + 0.05 * (
            WAITING_PARENT.fleet_size
        )

    def test_fleet_size_respected(self, workload):
        sim = WAITING_PARENT.build(workload)
        assert len(sim._states) == min(
            WAITING_PARENT.fleet_size, len(workload.trips)
        )

    def test_comparison_runs_all(self, workload):
        reports = scenario_comparison(workload)
        assert set(reports) == set(SCENARIOS)
        for report in reports.values():
            assert all(
                o.phase in (VehiclePhase.ARRIVED, VehiclePhase.STRANDED)
                for o in report.outcomes
            )

    def test_longer_idle_hoards_no_less(self, workload):
        """Same fleet and time of day, longer idle window -> at least as
        much clean energy (sessions can only extend)."""
        from dataclasses import replace

        short = replace(SHOPPING_TRIP, idle_duration_h=0.5)
        long = replace(SHOPPING_TRIP, idle_duration_h=2.0)
        config = EcoChargeConfig(k=3, radius_km=15.0)
        short_kwh = run_scenario(short, workload, config).total_clean_kwh
        long_kwh = run_scenario(long, workload, config).total_clean_kwh
        assert long_kwh >= short_kwh - 1e-6


class TestIncidentChaos:
    """Smoke the live-graph storm: soundness, free no-ops, agreement."""

    def test_storm_is_sound_and_reconciled(self, workload):
        for backend in ("dijkstra", "ch"):
            plan = ChaosPlan(
                incidents=IncidentChaos(seed=1, batches=4, batch_size=1, noop_every=2),
                trips=1, k=3, seed=1, backend=backend,
            )
            run = run_chaos(workload, plan)
            tally = Counter()
            assert check(workload, run, tally) == []
            assert sum(r.outcome.is_served for r in run.responses) > 0
            assert tally["fresh"] >= 1
            assert tally["noop"] >= 1
            assert all(wave.invalidations == 0 for wave in run.waves if wave.batch == ())
            assert tally["oracle"] > 0 and tally["books"] == 1
            # The non-reference backend is held to bitwise agreement.
            assert tally["backends"] == (backend != "dijkstra")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ChaosPlan(incidents=IncidentChaos(batches=0))
        with pytest.raises(ValueError):
            ChaosPlan(trips=0)
        with pytest.raises(ValueError):
            ChaosPlan(backend="astar")
