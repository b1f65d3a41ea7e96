"""Price each metric once: the Dijkstra backend's arc-cost vectors.

The engine's Dijkstra backend no longer calls a cost function per
relaxation.  It prices a metric once per weight key into a per-arc cost
vector and settles over the network's flat ``(neighbour, arc id)``
adjacency with the kernel CH search spaces use.  These tests pin:

* bitwise equality of the raw (unquantised) settled maps with
  ``dijkstra_all``/``dijkstra_all_backward`` under the spec's own
  callable, on arbitrary small graphs in both kernel paths;
* that a search seeded at two nodes (a segment's two rejoin points)
  equals the elementwise minimum of the two single-node searches;
* the "price once" contract itself, counted at the cost functions;
* the fences that drop a priced vector with the rest of a key's state;
* that the ``L``/``A`` estimators keep no memo (they price whole pools).
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chargers.plugshare import CatalogSpec, generate_catalog
from repro.core.environment import ChargingEnvironment
from repro.estimation import component
from repro.estimation.derouting import DeroutingEstimator
from repro.estimation.traffic import TrafficModel
from repro.lru import LRU
from repro.network.builders import NetworkSpec, build_city_network
from repro.network.distance_engine import DISTANCE_QUANTUM, DistanceEngine, WeightSpec
from repro.network.epochs import GraphEpochManager, Incident
from repro.network.graph import EdgeWeight, RoadEdge, RoadNetwork
from repro.network.path import Trip
from repro.network.shortest_path import (
    ArcGraph,
    dijkstra_all,
    dijkstra_all_backward,
    settle_arcs,
)
from repro.spatial.geometry import Point

INF = float("inf")


def bits(settled: dict[int, float]) -> dict[int, str]:
    """A settled map with every distance as its exact bit pattern."""
    return {node: d.hex() for node, d in settled.items()}


@st.composite
def small_networks(draw):
    """A random directed graph with zero-length edges, self loops and
    optionally non-contiguous node ids, plus edges to close and an origin."""
    n = draw(st.integers(2, 9))
    sparse = draw(st.booleans())
    # Sparse ids span far more than twice their count: the kernel's dict path.
    ids = [7 + 5_000 * i for i in range(n)] if sparse else list(range(n))
    network = RoadNetwork()
    for i, node in enumerate(ids):
        network.add_node(node, Point(float(i), float(i % 3)))
    pairs = draw(
        st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=3 * n, unique=True)
    )
    lengths = st.one_of(st.just(0.0), st.floats(0.0, 5.0, allow_nan=False))
    for source, target in pairs:
        network.add_edge(
            source,
            target,
            length_km=draw(lengths),
            speed_kmh=draw(st.sampled_from([20.0, 35.0, 50.0, 80.0])),
        )
    closed = draw(st.lists(st.sampled_from(pairs), max_size=2, unique=True)) if pairs else []
    return network, closed, draw(st.sampled_from(ids))


class TestSettledMapsMatchRawDijkstra:
    """Engine settled maps equal raw Dijkstra under ``spec.fn``, bit for bit."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=small_networks(), data=st.data())
    def test_both_directions_bitwise(self, case, data):
        network, closed, origin = case
        manager = GraphEpochManager(network)
        traffic = TrafficModel(seed=3)
        traffic.set_epochs(manager)
        if closed:
            # A live-graph closure: the metric's factor on these edges is inf.
            manager.apply([Incident.closure(s, t) for s, t in closed])
        engine = DistanceEngine(network)
        engine.attach_epochs(manager)
        specs = [
            WeightSpec.of(EdgeWeight.DISTANCE_KM),
            *traffic.travel_time_bound_specs(9.0, 8.0),
            traffic.travel_time_spec(17.5),
        ]
        for spec in specs:
            for direction, reference in (("f", dijkstra_all), ("b", dijkstra_all_backward)):
                full = reference(network, origin, spec.fn)
                # Unbudgeted, through the cached path.
                got = engine._map(spec, origin, direction, INF)
                assert bits(got) == bits(full)
                # A budget exactly equal to one node's distance.
                exact = data.draw(st.sampled_from(sorted(full.values())), label="budget")
                got = engine._search(spec, origin, direction, exact)
                assert bits(got) == bits(reference(network, origin, spec.fn, max_cost=exact))
                # The engine's own quantum-inflated budget (a fresh engine:
                # this one would serve the cached unbudgeted ball).
                fresh = DistanceEngine(network)
                got = fresh._map(spec, origin, direction, exact)
                ref = reference(network, origin, spec.fn, max_cost=exact + DISTANCE_QUANTUM)
                assert bits(got) == bits(ref)

    def test_closed_zero_length_edge_prices_inf(self):
        # 0 -> 1 is zero-length and closed: its cost is inf, never the NaN
        # of 0 * inf, on the scalar and the batch path alike.
        network = RoadNetwork()
        for node in range(3):
            network.add_node(node, Point(float(node), 0.0))
        network.add_edge(0, 1, length_km=0.0)
        network.add_edge(0, 2, length_km=1.0)
        network.add_edge(2, 1, length_km=1.0)
        manager = GraphEpochManager(network)
        traffic = TrafficModel(seed=1)
        traffic.set_epochs(manager)
        manager.apply([Incident.closure(0, 1)])
        spec = traffic.travel_time_spec(9.0)
        closed = network.edge(0, 1)
        assert spec.fn(closed) == INF
        assert spec.batch((closed,))[0] == INF
        engine = DistanceEngine(network)
        engine.attach_epochs(manager)
        ball = engine._map(spec, 0, "f", INF)
        assert ball[1] == ball[2] + spec.fn(network.edge(2, 1))


def nearest(first: dict[int, float], second: dict[int, float]) -> dict[int, float]:
    """Elementwise minimum of two distance maps (absent means unreachable)."""
    return {
        node: min(first.get(node, INF), second.get(node, INF)) for node in first.keys() | second
    }


class TestFusedReturns:
    """One search to both rejoin points equals the min of two, bit for bit."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=small_networks(), data=st.data())
    def test_two_origin_search_is_min_of_single_searches(self, case, data):
        network, closed, first = case
        ids = sorted(network.node_ids())
        second = data.draw(st.sampled_from(ids), label="second")  # may equal first
        manager = GraphEpochManager(network)
        traffic = TrafficModel(seed=3)
        traffic.set_epochs(manager)
        if closed:
            manager.apply([Incident.closure(s, t) for s, t in closed])
        spec = data.draw(st.sampled_from(traffic.travel_time_bound_specs(9.0, 8.0)), label="spec")
        arcs = ArcGraph.of(network)
        weights = [spec.fn(edge) for edge in arcs.edges]
        # Dense ids run both kernel paths (a list adjacency indexes either way).
        spans = {arcs.span, 0}
        for adjacency in (arcs.out_arcs, arcs.in_arcs):
            full = nearest(
                settle_arcs(first, adjacency, weights), settle_arcs(second, adjacency, weights)
            )
            # Unbudgeted, and a budget exactly equal to one node's distance.
            for budget in (INF, data.draw(st.sampled_from(sorted(full.values())), label="budget")):
                expected = nearest(
                    settle_arcs(first, adjacency, weights, budget),
                    settle_arcs(second, adjacency, weights, budget),
                )
                for span in spans:
                    fused = settle_arcs((first, second), adjacency, weights, budget, span)
                    assert bits(fused) == bits(expected)
        # ``full`` is now the backward pair, the distances many_to_one serves.
        budget = data.draw(st.sampled_from([INF, *full.values()]), label="engine budget")
        for backend in ("dijkstra", "ch"):

            def engine() -> DistanceEngine:
                fresh = DistanceEngine(network, backend=backend)
                fresh.attach_epochs(manager)
                return fresh

            got = engine().many_to_one(ids, (first, second), spec, max_cost=budget)
            expected = nearest(
                engine().many_to_one(ids, first, spec, max_cost=budget),
                engine().many_to_one(ids, second, spec, max_cost=budget),
            )
            assert bits(got) == bits(expected)


def assert_stopped(got: dict[int, float], expected: dict[int, float], targets) -> None:
    """``got`` is a search stopped at ``targets``; ``expected`` is the
    unstopped reference under the same budget.

    Every requested node has the reference label (or is absent from
    both), every returned label is the reference's, and nothing past the
    farthest target is returned: a stop leaks no tentative label.  A
    search with a target the reference never reached ran to the budget.
    """
    assert {t: got[t].hex() for t in targets if t in got} == {
        t: expected[t].hex() for t in targets if t in expected
    }
    assert bits(got) == {node: expected[node].hex() for node in got}
    if all(t in expected for t in targets):
        horizon = max(expected[t] for t in targets)
        assert all(d <= horizon for d in got.values())
    else:
        assert bits(got) == bits(expected)


class TestTargetStop:
    """A search stopped once its targets are settled answers them exactly."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=small_networks(), data=st.data())
    def test_stopped_search_matches_reference(self, case, data):
        network, closed, first = case
        ids = sorted(network.node_ids())
        second = data.draw(st.sampled_from(ids), label="second")  # may equal first
        manager = GraphEpochManager(network)
        traffic = TrafficModel(seed=3)
        traffic.set_epochs(manager)
        if closed:
            manager.apply([Incident.closure(s, t) for s, t in closed])
        spec = data.draw(
            st.sampled_from(
                [*traffic.travel_time_bound_specs(9.0, 8.0), WeightSpec.of(EdgeWeight.DISTANCE_KM)]
            ),
            label="spec",
        )
        # Duplicates allowed; an origin may be among them.
        targets = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=6), label="targets")
        arcs = ArcGraph.of(network)
        weights = [spec.fn(edge) for edge in arcs.edges]
        for adjacency, reference in (
            (arcs.out_arcs, dijkstra_all),
            (arcs.in_arcs, dijkstra_all_backward),
        ):
            for origin in (first, (first, second)):

                def ref(budget: float) -> dict[int, float]:
                    if isinstance(origin, tuple):
                        return nearest(*(reference(network, o, spec.fn, budget) for o in origin))
                    return reference(network, origin, spec.fn, budget)

                # Unbudgeted, or a budget exactly equal to one node's distance.
                budget = data.draw(st.sampled_from([INF, *sorted(ref(INF).values())]))
                expected = ref(budget)
                for span in {arcs.span, 0}:
                    got = settle_arcs(origin, adjacency, weights, budget, span, targets)
                    assert_stopped(got, expected, targets)

    # 0 -> 1 is zero-length, 2 and 3 tie at 1.0, 4 sits at 2.0 by two
    # paths, 4 -> 5 is closed and 6 is isolated.
    EDGES = ((0, 1, 0.0), (0, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0), (3, 4, 1.0), (4, 5, 1.0))

    @pytest.mark.parametrize(
        "targets, budget",
        [
            ([4], 2.0),  # a target exactly at the budget
            ([4], 1.5),  # a target just over the budget
            ([6], INF),  # unreachable
            ([5], INF),  # behind a closure
            ([0], INF),  # the origin itself
            ([3, 3, 2], INF),  # duplicates, tied at 1.0
            ([1, 6], 2.0),  # one settled, one unreachable
        ],
    )
    def test_edge_cases(self, targets, budget):
        network, arcs, weights = self.edge_case_graph()
        for adjacency, reference, origin in (
            (arcs.out_arcs, dijkstra_all, 0),
            (arcs.in_arcs, dijkstra_all_backward, 4),
        ):
            expected = reference(network, origin, self.cost, budget)
            for span in (arcs.span, 0):
                got = settle_arcs(origin, adjacency, weights, budget, span, targets)
                assert_stopped(got, expected, targets)

    def test_empty_targets_settle_nothing(self):
        _, arcs, weights = self.edge_case_graph()
        for span in (arcs.span, 0):
            assert settle_arcs(0, arcs.out_arcs, weights, INF, span, ()) == {}

    @staticmethod
    def cost(edge: RoadEdge) -> float:
        return INF if (edge.source, edge.target) == (4, 5) else edge.length_km

    @classmethod
    def edge_case_graph(cls) -> tuple[RoadNetwork, ArcGraph, list[float]]:
        network = RoadNetwork()
        for node in range(7):
            network.add_node(node, Point(float(node), 0.0))
        for source, target, length in cls.EDGES:
            network.add_edge(source, target, length_km=length)
        arcs = ArcGraph.of(network)
        return network, arcs, [cls.cost(edge) for edge in arcs.edges]


@pytest.fixture(scope="module")
def city():
    return build_city_network(NetworkSpec(width_km=8.0, height_km=6.0, block_km=1.2, seed=4))


class TestPriceOnce:
    """Each metric is priced once per weight key, then only indexed."""

    def test_batch_spec_segment_makes_no_fn_calls(self, city, monkeypatch):
        traffic = TrafficModel(seed=5)
        calls: Counter[str] = Counter()

        def counted(spec: WeightSpec) -> WeightSpec:
            assert spec.batch is not None
            batch = spec.batch

            def fn(edge: RoadEdge) -> float:
                calls["fn"] += 1
                return spec.fn(edge)

            def priced(edges):
                calls["batch"] += 1
                return batch(edges)

            return WeightSpec(spec.key, fn, priced, spec.epoch_version)

        original = traffic.travel_time_bound_specs
        monkeypatch.setattr(
            traffic,
            "travel_time_bound_specs",
            lambda time_h, now_h: tuple(counted(s) for s in original(time_h, now_h)),
        )
        registry = generate_catalog(city, CatalogSpec(charger_count=20, seed=4))
        nodes = sorted(city.node_ids())
        trip = Trip.route(city, nodes[0], nodes[-1], departure_time_h=8.0)
        segments = trip.segments(segment_km=2.0)
        # A segment with a next one: both rejoin points share one return
        # search per bound, so 2 outbound + 2 return; the last segment
        # rejoins only its own end and pays the same 4.
        for segment, next_segment in ((segments[0], segments[1]), (segments[-1], None)):
            calls.clear()
            engine = DistanceEngine(city)
            estimator = DeroutingEstimator(city, traffic, engine=engine)
            estimator.batch_estimate(
                segment, registry.all(), time_h=8.3, now_h=8.0, next_segment=next_segment
            )
            assert engine.stats.searches == 4
            assert calls == Counter(batch=2)  # one pricing per metric, zero fn calls

    def test_raw_edge_weight_calls_fn_once_per_arc_per_metric(self, city, monkeypatch):
        calls: Counter[EdgeWeight] = Counter()
        weight = RoadEdge.weight

        def counted(edge: RoadEdge, kind: EdgeWeight) -> float:
            calls[kind] += 1
            return weight(edge, kind)

        monkeypatch.setattr(RoadEdge, "weight", counted)
        engine = DistanceEngine(city)
        nodes = sorted(city.node_ids())
        for kind in (EdgeWeight.DISTANCE_KM, EdgeWeight.TRAVEL_TIME_H):
            for source in nodes[:4]:
                engine.one_to_many(source, nodes, kind, max_cost=3.0)
                engine.many_to_one(nodes, source, kind)
        assert engine.stats.searches == 16
        assert calls == {
            EdgeWeight.DISTANCE_KM: city.edge_count,
            EdgeWeight.TRAVEL_TIME_H: city.edge_count,
        }

    def test_epoch_fence_drops_the_cost_vector(self, city):
        manager = GraphEpochManager(city)
        traffic = TrafficModel(seed=2)
        traffic.set_epochs(manager)
        engine = DistanceEngine(city)
        engine.attach_epochs(manager)
        nodes = sorted(city.node_ids())
        live = traffic.travel_time_spec(9.0)
        engine.one_to_many(nodes[0], nodes, live, max_cost=0.2)
        engine.one_to_many(nodes[0], nodes, EdgeWeight.DISTANCE_KM, max_cost=2.0)
        assert live.key in engine._priced and EdgeWeight.DISTANCE_KM in engine._priced
        edge = next(city.edges())
        manager.apply([Incident.congestion(edge.source, edge.target, 3.0)])
        invalidations = engine.stats.epoch_invalidations
        engine.one_to_many(nodes[0], nodes, EdgeWeight.DISTANCE_KM, max_cost=2.0)
        # The live metric's map and vector are gone; the static one stays warm.
        assert live.key not in engine._priced
        assert EdgeWeight.DISTANCE_KM in engine._priced
        assert engine.stats.epoch_invalidations == invalidations + 2
        engine.clear()
        assert len(engine._priced) == 0

    def test_reused_key_under_new_version_drops_the_cost_vector(self, city):
        engine = DistanceEngine(city)
        nodes = sorted(city.node_ids())
        old = WeightSpec("tt", lambda e: e.length_km, epoch_version=1)
        new = WeightSpec("tt", lambda e: 2.0 * e.length_km, epoch_version=2)
        first = engine.one_to_many(nodes[0], nodes, old)
        second = engine.one_to_many(nodes[0], nodes, new)
        assert second != first
        assert second == DistanceEngine(city).one_to_many(nodes[0], nodes, new)

    def test_grown_network_is_repriced(self):
        network = RoadNetwork()
        for node in range(3):
            network.add_node(node, Point(float(node), 0.0))
        network.add_edge(0, 1, length_km=1.0)
        engine = DistanceEngine(network)
        assert engine.one_to_many(0, [1, 2], EdgeWeight.DISTANCE_KM) == {1: 1.0}
        network.add_edge(1, 2, length_km=2.0)
        engine.clear()  # drop the settled map; the arcs are rebuilt on their own
        assert engine.one_to_many(0, [1, 2], EdgeWeight.DISTANCE_KM) == {1: 1.0, 2: 3.0}

    def test_unknown_node_raises(self, city):
        with pytest.raises(KeyError):
            DistanceEngine(city).one_to_many(10**9, [0], EdgeWeight.DISTANCE_KM)


class TestEstimatorsKeepNoMemo:
    def test_l_and_a_estimators_hold_no_memo(self, city):
        """``L`` and ``A`` are priced per pool by array kernels; neither
        estimator keeps a per-charger memo, and the memo bound is gone."""
        registry = generate_catalog(city, CatalogSpec(charger_count=37, seed=2))
        env = ChargingEnvironment(city, registry, seed=2)
        for estimator in (env.sustainable, env.availability):
            assert not [name for name in vars(estimator) if "memo" in name]
            assert not [v for v in vars(estimator).values() if isinstance(v, LRU)]
        assert not hasattr(component, "MEMO_ENTRIES_PER_CHARGER")
