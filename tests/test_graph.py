"""Unit tests for the road network graph."""

import math

import pytest

from repro.network.builders import (
    NetworkSpec,
    build_city_network,
    build_grid_network,
    build_radial_network,
)
from repro.network.graph import (
    DEFAULT_CO2_KG_PER_KWH,
    DEFAULT_KWH_PER_KM,
    EdgeWeight,
    RoadEdge,
    RoadNetwork,
)
from repro.spatial.geometry import Point


class TestConstruction:
    def test_add_node_and_edge(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        net.add_node(1, Point(3, 4))
        edge = net.add_edge(0, 1)
        assert edge.length_km == pytest.approx(5.0)  # defaults to Euclidean
        assert net.node_count == 2 and net.edge_count == 1

    def test_duplicate_node_rejected(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        with pytest.raises(ValueError):
            net.add_node(0, Point(1, 1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_node_rejected(self, bad):
        net = RoadNetwork()
        for point in (Point(bad, 0.0), Point(0.0, bad)):
            with pytest.raises(ValueError, match="non-finite"):
                net.add_node(0, point)
        assert net.node_count == 0

    def test_duplicate_edge_rejected(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        net.add_node(1, Point(1, 0))
        net.add_edge(0, 1)
        with pytest.raises(ValueError):
            net.add_edge(0, 1)

    def test_edge_requires_existing_endpoints(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        with pytest.raises(KeyError):
            net.add_edge(0, 99)

    def test_add_road_is_bidirectional(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        net.add_node(1, Point(1, 0))
        net.add_road(0, 1)
        assert net.has_edge(0, 1) and net.has_edge(1, 0)

    def test_explicit_length_kept(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        net.add_node(1, Point(1, 0))
        edge = net.add_edge(0, 1, length_km=2.5)  # curvy road, longer than crow flies
        assert edge.length_km == 2.5


class TestEdgeWeights:
    EDGE = RoadEdge(0, 1, length_km=10.0, speed_kmh=50.0, kwh_per_km=0.2)

    def test_distance(self):
        assert self.EDGE.weight(EdgeWeight.DISTANCE_KM) == 10.0

    def test_travel_time(self):
        assert self.EDGE.weight(EdgeWeight.TRAVEL_TIME_H) == pytest.approx(0.2)

    def test_energy(self):
        assert self.EDGE.weight(EdgeWeight.ENERGY_KWH) == pytest.approx(2.0)

    def test_co2_proportional_to_energy(self):
        assert self.EDGE.weight(EdgeWeight.CO2_KG) == pytest.approx(
            2.0 * DEFAULT_CO2_KG_PER_KWH
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            RoadEdge(0, 1, length_km=-1.0)
        with pytest.raises(ValueError):
            RoadEdge(0, 1, length_km=1.0, speed_kmh=0.0)
        with pytest.raises(ValueError):
            RoadEdge(0, 1, length_km=1.0, kwh_per_km=-0.1)
        # NaN fails every comparison, so it needs its own rejection.
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                RoadEdge(0, 1, length_km=bad)
            with pytest.raises(ValueError):
                RoadEdge(0, 1, length_km=1.0, speed_kmh=bad)
            with pytest.raises(ValueError):
                RoadEdge(0, 1, length_km=1.0, kwh_per_km=bad)


class TestTopology:
    def test_degree_and_neighbours(self, unit_grid):
        corner = 0
        assert unit_grid.degree(corner) == 2
        assert set(unit_grid.neighbours(corner)) == {1, 6}

    def test_in_and_out_edges_match_for_roads(self, unit_grid):
        outs = {(e.source, e.target) for e in unit_grid.out_edges(7)}
        ins = {(e.target, e.source) for e in unit_grid.in_edges(7)}
        assert outs == ins  # every road is a directed pair

    def test_grid_is_strongly_connected(self, unit_grid):
        assert unit_grid.is_strongly_connected()

    def test_one_way_graph_not_strongly_connected(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        net.add_node(1, Point(1, 0))
        net.add_edge(0, 1)
        assert not net.is_strongly_connected()

    def test_largest_scc(self):
        net = RoadNetwork()
        for i in range(4):
            net.add_node(i, Point(i, 0))
        net.add_road(0, 1)
        net.add_road(1, 2)
        net.add_edge(2, 3)  # 3 is a sink
        assert net.largest_strongly_connected_component() == {0, 1, 2}

    def test_subgraph(self, unit_grid):
        sub = unit_grid.subgraph({0, 1, 2})
        assert sub.node_count == 3
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2)
        assert not sub.has_node(6)

    def test_nearest_node(self, unit_grid):
        node = unit_grid.nearest_node(Point(2.2, 3.1))
        assert node.point == Point(2.0, 3.0)

    def test_nearest_node_empty_raises(self):
        with pytest.raises(ValueError):
            RoadNetwork().nearest_node(Point(0, 0))

    def test_node_index_matches_nearest(self, unit_grid):
        index = unit_grid.node_index()
        probe = Point(4.4, 0.3)
        __, __, via_index = index.nearest(probe, 1)[0]
        assert via_index == unit_grid.nearest_node(probe).node_id

    def test_bounds(self, unit_grid):
        box = unit_grid.bounds()
        assert (box.min_x, box.min_y) == (0.0, 0.0)
        assert (box.max_x, box.max_y) == (5.0, 5.0)


class TestBuilders:
    def test_grid_builder_counts(self):
        net = build_grid_network(4, 3)
        assert net.node_count == 12
        # 3 horizontal roads x 3 rows + 4 columns x 2 vertical = 17 roads = 34 edges
        assert net.edge_count == 2 * (3 * 3 + 4 * 2)

    def test_grid_builder_validation(self):
        with pytest.raises(ValueError):
            build_grid_network(0, 3)

    def test_city_builder_deterministic(self):
        spec = NetworkSpec(width_km=10, height_km=8, seed=3)
        a = build_city_network(spec)
        b = build_city_network(spec)
        assert a.node_count == b.node_count and a.edge_count == b.edge_count
        assert [n.point for n in a.nodes()] == [n.point for n in b.nodes()]

    def test_city_builder_strongly_connected(self):
        net = build_city_network(NetworkSpec(width_km=12, height_km=10, seed=9))
        assert net.is_strongly_connected()

    def test_city_builder_has_speed_classes(self):
        net = build_city_network(NetworkSpec(width_km=15, height_km=15, seed=1))
        speeds = {e.speed_kmh for e in net.edges()}
        assert len(speeds) >= 2  # arterials and local roads coexist

    def test_city_spec_validation(self):
        with pytest.raises(ValueError):
            NetworkSpec(width_km=-5, height_km=5)
        with pytest.raises(ValueError):
            NetworkSpec(width_km=5, height_km=5, removal_rate=0.9)

    def test_radial_builder(self):
        net = build_radial_network(rings=2, spokes=6)
        assert net.node_count == 1 + 2 * 6
        assert net.is_strongly_connected()

    def test_radial_builder_validation(self):
        with pytest.raises(ValueError):
            build_radial_network(rings=0, spokes=6)
        with pytest.raises(ValueError):
            build_radial_network(rings=2, spokes=2)
