"""Cross-validation of core algorithms against independent oracles.

networkx validates the routing stack; scipy's cKDTree validates the
spatial stack (the charger quadtree on clustered data, where index bugs
typically hide).
"""

import networkx as nx
import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.network.builders import NetworkSpec, build_city_network
from repro.network.graph import RoadNetwork
from repro.network.shortest_path import (
    NoPathError,
    dijkstra,
    dijkstra_all,
    dijkstra_all_backward,
)
from repro.spatial.bbox import BoundingBox
from repro.spatial.geometry import Point
from repro.spatial.quadtree import QuadTree


def _random_directed_network(seed: int, n: int = 40, extra_edges: int = 80) -> RoadNetwork:
    """A random strongly-connected-ish directed graph with varied weights."""
    rng = np.random.default_rng(seed)
    network = RoadNetwork()
    for i in range(n):
        network.add_node(i, Point(float(rng.uniform(0, 50)), float(rng.uniform(0, 50))))

    def road_length(a: int, b: int) -> float:
        # Physical roads: at least the straight-line gap.
        gap = network.node(a).point.distance_to(network.node(b).point)
        return gap * float(rng.uniform(1.0, 1.8)) + 1e-6

    # A ring guarantees strong connectivity.
    for i in range(n):
        network.add_edge(i, (i + 1) % n, length_km=road_length(i, (i + 1) % n))
    added = 0
    while added < extra_edges:
        a, b = rng.integers(0, n, size=2)
        if a == b or network.has_edge(int(a), int(b)):
            continue
        network.add_edge(int(a), int(b), length_km=road_length(int(a), int(b)))
        added += 1
    return network


def _to_networkx(network: RoadNetwork) -> nx.DiGraph:
    graph = nx.DiGraph()
    for node in network.nodes():
        graph.add_node(node.node_id)
    for edge in network.edges():
        graph.add_edge(edge.source, edge.target, weight=edge.length_km)
    return graph


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
class TestRoutingAgainstNetworkx:
    def test_dijkstra_distances(self, seed):
        network = _random_directed_network(seed)
        graph = _to_networkx(network)
        rng = np.random.default_rng(seed + 100)
        for __ in range(10):
            s, t = rng.integers(0, network.node_count, size=2)
            want = nx.shortest_path_length(graph, int(s), int(t), weight="weight")
            got = dijkstra(network, int(s), int(t)).cost
            assert got == pytest.approx(want)

    def test_single_source_table(self, seed):
        network = _random_directed_network(seed)
        graph = _to_networkx(network)
        source = 0
        want = nx.single_source_dijkstra_path_length(graph, source, weight="weight")
        got = dijkstra_all(network, source)
        assert set(got) == set(want)
        for node in want:
            assert got[node] == pytest.approx(want[node])
        # The backward search is Dijkstra on the reversed graph.
        want = nx.single_source_dijkstra_path_length(graph.reverse(), source, weight="weight")
        got = dijkstra_all_backward(network, source)
        assert set(got) == set(want)
        for node in want:
            assert got[node] == pytest.approx(want[node])


class TestRoutingOnBuiltCity:
    def test_city_network_against_networkx(self):
        city = build_city_network(NetworkSpec(width_km=15, height_km=12, seed=77))
        graph = _to_networkx(city)
        nodes = list(city.node_ids())
        rng = np.random.default_rng(0)
        for __ in range(10):
            s, t = rng.choice(nodes, size=2, replace=False)
            want = nx.shortest_path_length(graph, int(s), int(t), weight="weight")
            assert dijkstra(city, int(s), int(t)).cost == pytest.approx(want)

    def test_unreachable_agrees(self):
        network = RoadNetwork()
        network.add_node(0, Point(0, 0))
        network.add_node(1, Point(1, 0))
        network.add_edge(0, 1)
        with pytest.raises(NoPathError):
            dijkstra(network, 1, 0)


class TestSpatialAgainstScipy:
    @pytest.fixture(scope="class")
    def clustered(self):
        """Three tight clusters plus sparse noise — adversarial for cell
        and quadrant boundaries."""
        rng = np.random.default_rng(11)
        clusters = [
            rng.normal(loc, 1.5, size=(120, 2))
            for loc in ((10, 10), (80, 15), (45, 85))
        ]
        noise = rng.uniform(0, 100, size=(40, 2))
        coords = np.clip(np.vstack(clusters + [noise]), 0, 100)
        return [(Point(float(x), float(y)), i) for i, (x, y) in enumerate(coords)]

    @pytest.fixture(scope="class")
    def reference(self, clustered):
        return cKDTree(np.array([[p.x, p.y] for p, __ in clustered]))

    def test_quadtree_on_clusters(self, clustered, reference):
        tree: QuadTree[int] = QuadTree(BoundingBox(0, 0, 100, 100), capacity=4)
        for point, item in clustered:
            tree.insert(point, item)
        rng = np.random.default_rng(12)
        for __ in range(20):
            q = (float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            k = int(rng.integers(1, 15))
            ref_d, __ = reference.query(q, k=k)
            got_d = [d for d, __, __ in tree.nearest(Point(*q), k)]
            assert np.allclose(sorted(got_d), sorted(np.atleast_1d(ref_d)))

    def test_quadtree_radius_on_clusters(self, clustered, reference):
        # The radius query behind Algorithm 1's Filtering step.
        tree: QuadTree[int] = QuadTree(BoundingBox(0, 0, 100, 100), capacity=4)
        for point, item in clustered:
            tree.insert(point, item)
        rng = np.random.default_rng(13)
        for __ in range(20):
            q = (float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            r = float(rng.uniform(1, 15))
            want = len(reference.query_ball_point(q, r))
            assert len(tree.query_radius(Point(*q), r)) == want
