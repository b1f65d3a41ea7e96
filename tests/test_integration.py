"""Cross-module integration tests: whole-pipeline flows and determinism."""

import pytest

from repro.core.baselines import BruteForceRanker
from repro.core.ecocharge import EcoCharge, EcoChargeConfig
from repro.core.ranking import run_over_trip
from repro.server.client import EcoChargeClient
from repro.server.eis import EcoChargeInformationServer
from repro.trajectories.datasets import DATASET_ORDER, load_workload
from repro.ui.map_html import render_offering_map
from repro.ui.table_render import render_offering_table


class TestEndToEndDeterminism:
    def test_full_plan_is_reproducible(self, small_network, small_registry):
        """Two independently built environments with the same seeds yield
        byte-identical plans."""
        from repro.core.environment import ChargingEnvironment
        from repro.network.path import Trip

        def plan():
            env = ChargingEnvironment(small_network, small_registry, seed=5)
            nodes = sorted(small_network.node_ids())
            trip = Trip.route(small_network, nodes[0], nodes[-1], departure_time_h=10.0)
            framework = EcoCharge(env, EcoChargeConfig(k=3, radius_km=12.0))
            run = framework.plan(trip)
            return [
                (t.segment_index, t.is_adapted, tuple(t.charger_ids()))
                for t in run.tables
            ]

        assert plan() == plan()

    def test_rendering_pipeline(self, small_environment, sample_trip):
        """Plan -> text table -> HTML map, no exceptions, consistent ids."""
        framework = EcoCharge(small_environment, EcoChargeConfig(k=3, radius_km=12.0))
        run = framework.plan(sample_trip)
        for table in run.tables:
            text = render_offering_table(table)
            assert str(table.best.charger_id) in text
        html = render_offering_map(
            small_environment.network, sample_trip, run.tables
        )
        assert html.count("<circle") == sum(len(t) for t in run.tables)


@pytest.mark.parametrize("dataset", DATASET_ORDER)
def test_every_workload_supports_full_pipeline(dataset):
    """Each of the four evaluation workloads can be loaded at tiny scale
    and driven end to end through EcoCharge and the Brute-Force grader."""
    workload = load_workload(dataset, scale=0.05)
    environment = workload.environment
    trip = workload.trips[0]
    framework = EcoCharge(environment, EcoChargeConfig(k=2, radius_km=30.0))
    run = framework.plan(trip)
    assert run.tables and all(len(t) >= 1 for t in run.tables)

    brute = run_over_trip(BruteForceRanker(environment, k=2), environment, trip)
    assert len(brute.tables) == len(run.tables)


class TestServerIntegration:
    def test_two_clients_share_cache(self, small_environment, sample_trip):
        server = EcoChargeInformationServer(small_environment)
        a = EcoChargeClient(server, EcoChargeConfig(k=2, radius_km=10.0))
        b = EcoChargeClient(server, EcoChargeConfig(k=2, radius_km=10.0))
        a.plan_trip(sample_trip)
        upstream_after_first = server.usage.total
        b.plan_trip(sample_trip)
        # Identical corridor: the second client's snapshots come from cache.
        assert server.usage.total == upstream_after_first
