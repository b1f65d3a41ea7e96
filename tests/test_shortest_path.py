"""Shortest-path tests: point-to-point Dijkstra and the single-source oracles."""

import numpy as np
import pytest

from repro.network.builders import NetworkSpec, build_city_network
from repro.network.graph import RoadNetwork
from repro.network.shortest_path import (
    NoPathError,
    dijkstra,
    dijkstra_all,
    dijkstra_all_backward,
    path_cost,
)
from repro.spatial.geometry import Point


@pytest.fixture(scope="module")
def city():
    return build_city_network(NetworkSpec(width_km=14, height_km=11, seed=17))


class TestDijkstra:
    def test_grid_manhattan_distance(self, unit_grid):
        # Corner to corner of a 6x6 unit grid: 5 + 5 = 10 km.
        result = dijkstra(unit_grid, 0, 35)
        assert result.cost == pytest.approx(10.0)
        assert result.hops == 10

    def test_path_endpoints(self, unit_grid):
        result = dijkstra(unit_grid, 0, 35)
        assert result.nodes[0] == 0 and result.nodes[-1] == 35

    def test_path_edges_exist(self, unit_grid):
        result = dijkstra(unit_grid, 3, 32)
        for a, b in zip(result.nodes, result.nodes[1:]):
            assert unit_grid.has_edge(a, b)

    def test_source_equals_target(self, unit_grid):
        result = dijkstra(unit_grid, 4, 4)
        assert result.cost == 0.0 and result.nodes == (4,)

    def test_no_path_raises(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        net.add_node(1, Point(5, 0))
        with pytest.raises(NoPathError):
            dijkstra(net, 0, 1)

    def test_negative_cost_rejected(self, unit_grid):
        with pytest.raises(ValueError):
            dijkstra(unit_grid, 0, 35, weight=lambda e: -1.0)

    def test_custom_cost_function(self, unit_grid):
        doubled = dijkstra(unit_grid, 0, 35, weight=lambda e: 2 * e.length_km)
        assert doubled.cost == pytest.approx(20.0)

    def test_path_cost_consistency(self, unit_grid):
        result = dijkstra(unit_grid, 0, 35)
        assert path_cost(unit_grid, result.nodes) == pytest.approx(result.cost)


class TestSingleSourceVariants:
    def test_all_distances_include_source(self, unit_grid):
        dist = dijkstra_all(unit_grid, 0)
        assert dist[0] == 0.0
        assert len(dist) == unit_grid.node_count

    def test_all_matches_pointwise(self, city):
        dist = dijkstra_all(city, 0)
        rng = np.random.default_rng(0)
        for target in rng.choice(list(city.node_ids()), size=10, replace=False):
            assert dist[int(target)] == pytest.approx(dijkstra(city, 0, int(target)).cost)

    def test_max_cost_prunes(self, unit_grid):
        dist = dijkstra_all(unit_grid, 0, max_cost=2.0)
        assert all(d <= 2.0 for d in dist.values())
        assert len(dist) < unit_grid.node_count

    def test_backward_equals_forward_on_symmetric_graph(self, unit_grid):
        # Roads are symmetric, so distance to == distance from.
        forward = dijkstra_all(unit_grid, 17)
        backward = dijkstra_all_backward(unit_grid, 17)
        assert forward == pytest.approx(backward)

    def test_backward_on_one_way(self):
        net = RoadNetwork()
        for i in range(3):
            net.add_node(i, Point(i, 0))
        net.add_edge(0, 1)
        net.add_edge(1, 2)
        to_2 = dijkstra_all_backward(net, 2)
        assert to_2 == {2: 0.0, 1: 1.0, 0: 2.0}
        assert dijkstra_all(net, 2) == {2: 0.0}  # nothing reachable from 2

class TestBudgetTermination:
    """The budgeted searches stop *at the budget*, not after draining the
    frontier — regression tests counting cost-function invocations."""

    @staticmethod
    def _counting(weight_fn):
        calls = [0]

        def cost(edge):
            calls[0] += 1
            return weight_fn(edge)

        return cost, calls

    def test_dijkstra_all_stops_at_budget(self, city):
        by_length = lambda e: e.length_km
        cost, calls = self._counting(by_length)
        pruned = dijkstra_all(city, 0, cost, max_cost=2.0)
        pruned_calls = calls[0]
        cost, calls = self._counting(by_length)
        full = dijkstra_all(city, 0, cost)
        assert pruned == {n: d for n, d in full.items() if d <= 2.0}
        assert pruned_calls < calls[0] / 2  # small ball, not the whole city

    def test_backward_stops_at_budget(self, city):
        cost, calls = self._counting(lambda e: e.length_km)
        pruned = dijkstra_all_backward(city, 0, cost, max_cost=2.0)
        pruned_calls = calls[0]
        cost, calls = self._counting(lambda e: e.length_km)
        full = dijkstra_all_backward(city, 0, cost)
        assert pruned == {n: d for n, d in full.items() if d <= 2.0}
        assert pruned_calls < calls[0] / 2
