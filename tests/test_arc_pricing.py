"""Price each metric once, and settle over the arcs with one array kernel.

The engine's Dijkstra backend never calls a cost function per
relaxation.  It prices a metric once per weight key into a per-arc cost
vector and settles over the network's position-indexed arc arrays with
the stacked frontier kernel (``settle_frontier``).  These tests pin:

* bitwise equality of the raw (unquantised) labels with
  ``dijkstra_all``/``dijkstra_all_backward`` under the spec's own
  callable, on arbitrary small graphs with dense and non-dense ids;
* that a search seeded at two nodes (a segment's two rejoin points)
  equals the elementwise minimum of the two single-node searches;
* that a search stopped at its targets answers them exactly and
  returns only final labels;
* that a stacked call equals its queries run one at a time;
* the "price once" contract itself, counted at the cost functions;
* the fences that drop a priced vector with the rest of a key's state;
* that the ``L``/``A`` estimators keep no per-charger memo (they price whole pools).
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chargers.plugshare import CatalogSpec, generate_catalog
from repro.core.environment import ChargingEnvironment
from repro.estimation import component
from repro.estimation.availability import HOUR_COLUMNS
from repro.estimation.derouting import DeroutingEstimator
from repro.estimation.traffic import TrafficModel
from repro.lru import LRU
from repro.network.builders import NetworkSpec, build_city_network
from repro.network.contraction import ContractionHierarchy
from repro.network.distance_engine import (
    BACKENDS,
    DISTANCE_QUANTUM,
    DistanceEngine,
    Search,
    WeightSpec,
)
from repro.network.epochs import GraphEpochManager, Incident
from repro.network.graph import EdgeWeight, RoadEdge, RoadNetwork
from repro.network.path import Trip
from repro.network.shortest_path import (
    ArcGraph,
    FrontierQuery,
    Labels,
    dijkstra_all,
    dijkstra_all_backward,
    settle_frontier,
)
from repro.spatial.geometry import Point

INF = float("inf")


def bits(settled: dict[int, float]) -> dict[int, str]:
    """A settled map with every distance as its exact bit pattern."""
    return {node: d.hex() for node, d in settled.items()}


def as_map(arcs: ArcGraph, labels: Labels) -> dict[int, float]:
    """A kernel result keyed by node id."""
    ids = arcs.ids.tolist()
    return {ids[p]: d for p, d in zip(labels.positions.tolist(), labels.values.tolist())}


def query(arcs: ArcGraph, origin, forward: bool, costs) -> FrontierQuery:
    origins = origin if isinstance(origin, tuple) else (origin,)
    return FrontierQuery(arcs.positions(origins), forward, np.asarray(costs, dtype=np.float64))


def kernel(arcs: ArcGraph, origin, forward: bool, costs, budget=INF, targets=None) -> Labels:
    """One search of the stacked kernel, on its own."""
    wanted = None if targets is None else arcs.positions(targets)
    [labels] = settle_frontier(arcs, [query(arcs, origin, forward, costs)], budget, wanted)
    return labels


def raw_labels(engine: DistanceEngine, spec, origin, forward: bool, budget: float):
    """The engine's unquantised labels for one search over every node."""
    nodes = sorted(engine.network.node_ids())
    [row] = engine._labels([spec], [Search(spec, origin, forward)], nodes, budget)
    return {node: d for node, d in zip(nodes, row.tolist()) if d != INF}


@st.composite
def small_networks(draw):
    """A random directed graph with zero-length edges, tied lengths, self
    loops and optionally non-contiguous node ids, plus edges to close and
    an origin."""
    n = draw(st.integers(2, 9))
    sparse = draw(st.booleans())
    # Sparse ids: positions, not ids, index the kernel's arrays.
    ids = [7 + 5_000 * i for i in range(n)] if sparse else list(range(n))
    network = RoadNetwork()
    for i, node in enumerate(ids):
        network.add_node(node, Point(float(i), float(i % 3)))
    pairs = draw(
        st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=3 * n, unique=True)
    )
    lengths = st.one_of(
        st.just(0.0), st.sampled_from([1.0, 2.0]), st.floats(0.0, 5.0, allow_nan=False)
    )
    for source, target in pairs:
        network.add_edge(
            source,
            target,
            length_km=draw(lengths),
            speed_kmh=draw(st.sampled_from([20.0, 35.0, 50.0, 80.0])),
        )
    closed = draw(st.lists(st.sampled_from(pairs), max_size=2, unique=True)) if pairs else []
    return network, closed, draw(st.sampled_from(ids))


def live_traffic(network: RoadNetwork, closed) -> tuple[GraphEpochManager, TrafficModel]:
    """A traffic model over ``network`` with ``closed`` edges closed."""
    manager = GraphEpochManager(network)
    traffic = TrafficModel(seed=3)
    traffic.set_epochs(manager)
    if closed:
        # A live-graph closure: the metric's factor on these edges is inf.
        manager.apply([Incident.closure(s, t) for s, t in closed])
    return manager, traffic


class TestSettledMapsMatchRawDijkstra:
    """Engine labels equal raw Dijkstra under ``spec.fn``, bit for bit."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=small_networks(), data=st.data())
    def test_both_directions_bitwise(self, case, data):
        network, closed, origin = case
        manager, traffic = live_traffic(network, closed)
        engine = DistanceEngine(network)
        specs = [
            WeightSpec.of(EdgeWeight.DISTANCE_KM),
            *traffic.travel_time_bound_specs(9.0, 8.0),
            traffic.travel_time_spec(17.5),
        ]
        nodes = sorted(network.node_ids())
        for spec in specs:
            for forward, reference in ((True, dijkstra_all), (False, dijkstra_all_backward)):
                full = reference(network, origin, spec.fn)
                # Unbudgeted, through the cached path.
                assert bits(raw_labels(engine, spec, origin, forward, INF)) == bits(full)
                # A budget exactly equal to one node's distance (a fresh
                # engine: this one would serve the cached unbudgeted map).
                exact = data.draw(st.sampled_from(sorted(full.values())), label="budget")
                got = raw_labels(DistanceEngine(network), spec, origin, forward, exact)
                assert bits(got) == bits(reference(network, origin, spec.fn, max_cost=exact))
                # The public path: the quantum-inflated budget, quantised,
                # and nothing served past the cutoff.
                [row] = DistanceEngine(network).distance_rows(
                    [Search(spec, origin, forward)], nodes, exact
                )
                ref = reference(network, origin, spec.fn, max_cost=exact + DISTANCE_QUANTUM)
                assert bits({n: d for n, d in zip(nodes, row.tolist()) if d != INF}) == bits(
                    {n: round(d, 9) for n, d in ref.items() if round(d, 9) <= exact}
                )

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
        ball = raw_labels(engine, spec, 0, True, INF)
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
        manager, traffic = live_traffic(network, closed)
        spec = data.draw(st.sampled_from(traffic.travel_time_bound_specs(9.0, 8.0)), label="spec")
        arcs = ArcGraph.of(network)
        weights = [spec.fn(edge) for edge in arcs.edges]
        for forward in (True, False):

            def search(origin, budget: float) -> dict[int, float]:
                return as_map(arcs, kernel(arcs, origin, forward, weights, budget))

            full = nearest(search(first, INF), search(second, INF))
            # Unbudgeted, and a budget exactly equal to one node's distance.
            for budget in (INF, data.draw(st.sampled_from(sorted(full.values())), label="budget")):
                expected = nearest(search(first, budget), search(second, budget))
                assert bits(search((first, second), budget)) == bits(expected)
        # ``full`` is now the backward pair, the distances many_to_one serves.
        budget = data.draw(st.sampled_from([INF, *full.values()]), label="engine budget")
        for backend in ("dijkstra", "ch"):

            def engine() -> DistanceEngine:
                return DistanceEngine(network, backend=backend)

            got = engine().many_to_one(ids, (first, second), spec, max_cost=budget)
            expected = nearest(
                engine().many_to_one(ids, first, spec, max_cost=budget),
                engine().many_to_one(ids, second, spec, max_cost=budget),
            )
            assert bits(got) == bits(expected)


def assert_stopped(arcs: ArcGraph, labels: Labels, expected: dict[int, float], targets) -> None:
    """``labels`` is a search stopped at ``targets``; ``expected`` is the
    unstopped reference under the same budget.

    Every requested node has the reference label (or is absent from
    both), every returned label is the reference's and at most the
    horizon, and every reference label below the horizon is returned: a
    stop leaks no tentative label and drops no final one.  A search with
    a target the reference never reached ran to the budget.
    """
    got = as_map(arcs, labels)
    assert {t: got[t].hex() for t in targets if t in got} == {
        t: expected[t].hex() for t in targets if t in expected
    }
    assert bits(got) == {node: expected[node].hex() for node in got}
    assert all(d <= labels.horizon for d in got.values())
    assert {n for n, d in expected.items() if d < labels.horizon} <= got.keys()
    if all(t in expected for t in targets):
        assert all(expected[t] <= labels.horizon for t in targets)
    else:
        assert labels.complete
        assert bits(got) == bits(expected)


class TestTargetStop:
    """A search stopped once its targets are final answers them exactly."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=small_networks(), data=st.data())
    def test_stopped_search_matches_reference(self, case, data):
        network, closed, first = case
        ids = sorted(network.node_ids())
        second = data.draw(st.sampled_from(ids), label="second")  # may equal first
        manager, traffic = live_traffic(network, closed)
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
        for forward, reference in ((True, dijkstra_all), (False, dijkstra_all_backward)):
            for origin in (first, (first, second)):

                def ref(budget: float) -> dict[int, float]:
                    if isinstance(origin, tuple):
                        return nearest(*(reference(network, o, spec.fn, budget) for o in origin))
                    return reference(network, origin, spec.fn, budget)

                # Unbudgeted, or a budget exactly equal to one node's distance.
                budget = data.draw(st.sampled_from([INF, *sorted(ref(INF).values())]))
                labels = kernel(arcs, origin, forward, weights, budget, targets)
                assert_stopped(arcs, labels, ref(budget), targets)

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
        for forward, reference, origin in ((True, dijkstra_all, 0), (False, dijkstra_all_backward, 4)):
            expected = reference(network, origin, self.cost, budget)
            labels = kernel(arcs, origin, forward, weights, budget, targets)
            assert_stopped(arcs, labels, expected, targets)

    def test_empty_targets_settle_nothing(self):
        _, arcs, weights = self.edge_case_graph()
        labels = kernel(arcs, 0, True, weights, INF, ())
        assert as_map(arcs, labels) == {}
        assert not labels.complete

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


class TestStackedKernel:
    """Several searches in one call: each block is its own search."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=small_networks(), data=st.data())
    def test_stacked_call_equals_single_calls_and_reference(self, case, data):
        network, closed, first = case
        ids = sorted(network.node_ids())
        _, traffic = live_traffic(network, closed)
        specs = [*traffic.travel_time_bound_specs(9.0, 8.0), WeightSpec.of(EdgeWeight.DISTANCE_KM)]
        arcs = ArcGraph.of(network)
        priced = [np.array([spec.fn(edge) for edge in arcs.edges]) for spec in specs]
        origin_nodes = st.sampled_from(ids)
        origins = st.one_of(origin_nodes, st.tuples(origin_nodes, origin_nodes))
        draws = data.draw(
            st.lists(
                st.tuples(origins, st.booleans(), st.integers(0, len(specs) - 1)),
                min_size=1,
                max_size=4,
            ),
            label="queries",
        )
        targets = data.draw(
            st.one_of(st.none(), st.lists(st.sampled_from(ids), max_size=5)), label="targets"
        )
        budget = data.draw(st.sampled_from([INF, 0.0, 0.05, 1.0]), label="budget")
        queries = [query(arcs, origin, forward, priced[m]) for origin, forward, m in draws]
        wanted = None if targets is None else arcs.positions(targets)
        stacked = settle_frontier(arcs, queries, budget, wanted)
        assert np.isinf(arcs.labels).all()  # the scratch is clean again
        for (origin, forward, m), one, labels in zip(draws, queries, stacked):
            [alone] = settle_frontier(arcs, [one], budget, wanted)
            assert bits(as_map(arcs, labels)) == bits(as_map(arcs, alone))
            assert labels.horizon == alone.horizon
            reference = dijkstra_all if forward else dijkstra_all_backward
            pair = origin if isinstance(origin, tuple) else (origin, origin)
            expected = nearest(*(reference(network, o, specs[m].fn, budget) for o in pair))
            if targets == []:
                assert as_map(arcs, labels) == {}
            elif targets is None:
                assert labels.complete
                assert bits(as_map(arcs, labels)) == bits(expected)
            else:
                assert_stopped(arcs, labels, expected, targets)

    def test_each_query_stops_at_its_own_round(self):
        # A path 0 -> 1 -> ... -> 9 of unit arcs: a query priced at twice
        # the cost of its sibling stops later, and each keeps only the
        # labels its own stop made final.
        network = RoadNetwork()
        for node in range(10):
            network.add_node(node, Point(float(node), 0.0))
        for node in range(9):
            network.add_edge(node, node + 1, length_km=1.0)
        arcs = ArcGraph.of(network)
        unit = np.ones(len(arcs.edges))
        near, far = settle_frontier(
            arcs,
            [query(arcs, 0, True, unit), query(arcs, 0, True, 2 * unit)],
            INF,
            arcs.positions([3]),
        )
        assert as_map(arcs, near) == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
        assert as_map(arcs, far) == {0: 0.0, 1: 2.0, 2: 4.0, 3: 6.0}
        assert (near.horizon, far.horizon) == (3.0, 6.0)


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
        nodes = sorted(city.node_ids())
        static = WeightSpec.of(EdgeWeight.DISTANCE_KM).identity
        live = traffic.travel_time_spec(9.0)
        engine.one_to_many(nodes[0], nodes, live, max_cost=0.2)
        engine.one_to_many(nodes[0], nodes, EdgeWeight.DISTANCE_KM, max_cost=2.0)
        assert live.identity in engine._priced and static in engine._priced
        edge = next(city.edges())
        manager.apply([Incident.congestion(edge.source, edge.target, 3.0)])
        invalidations = engine.stats.epoch_invalidations
        # A static query alone keeps the live metric: no newer version seen.
        engine.one_to_many(nodes[0], nodes, EdgeWeight.DISTANCE_KM, max_cost=2.0)
        assert live.identity in engine._priced
        assert engine.stats.epoch_invalidations == invalidations
        # The first query carrying the newer version drops the live map and
        # vector; the static one stays warm.
        newer = traffic.travel_time_spec(9.0)
        engine.one_to_many(nodes[0], nodes, newer, max_cost=0.2)
        assert live.identity not in engine._priced and newer.identity in engine._priced
        assert static in engine._priced
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
        # On both backends, with and without clear(): the memo, the arcs
        # and a hierarchy the engine built all follow the network.
        for backend, clear in itertools.product(BACKENDS, (False, True)):
            network = RoadNetwork()
            for node in range(3):
                network.add_node(node, Point(float(node), 0.0))
            network.add_edge(0, 1, length_km=1.0)
            engine = DistanceEngine(network, backend=backend)
            assert engine.one_to_many(0, [1, 2], EdgeWeight.DISTANCE_KM) == {1: 1.0}
            network.add_edge(1, 2, length_km=2.0)
            if clear:
                engine.clear()
            assert engine.one_to_many(0, [1, 2], EdgeWeight.DISTANCE_KM) == {1: 1.0, 2: 3.0}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_shortcut_added_to_a_line_is_served(self, backend):
        # 0-1-2-3 at 1 km a link; a 0.5 km arc 0 -> 3 added after the
        # first answer must replace it, memo and hierarchy alike.
        network = RoadNetwork()
        for node in range(4):
            network.add_node(node, Point(float(node), 0.0))
        for node in range(3):
            network.add_edge(node, node + 1, length_km=1.0)
        engine = DistanceEngine(network, backend=backend)
        assert engine.one_to_many(0, [3], EdgeWeight.DISTANCE_KM) == {3: 3.0}
        network.add_edge(0, 3, length_km=0.5)
        assert engine.one_to_many(0, [3], EdgeWeight.DISTANCE_KM) == {3: 0.5}

    def test_a_given_hierarchy_refuses_a_grown_network(self):
        network = RoadNetwork()
        for node in range(3):
            network.add_node(node, Point(float(node), 0.0))
        network.add_edge(0, 1, length_km=1.0)
        hierarchy = ContractionHierarchy.build(network)
        engine = DistanceEngine(network, backend="ch", hierarchy=hierarchy)
        assert engine.one_to_many(0, [1], EdgeWeight.DISTANCE_KM) == {1: 1.0}
        network.add_edge(1, 2, length_km=2.0)
        with pytest.raises(ValueError):
            engine.one_to_many(0, [1, 2], EdgeWeight.DISTANCE_KM)

    def test_unknown_node_raises(self, city):
        with pytest.raises(KeyError):
            DistanceEngine(city).one_to_many(10**9, [0], EdgeWeight.DISTANCE_KM)


class TestEstimatorsKeepNoMemo:
    def test_l_and_a_estimators_hold_no_memo(self, city):
        """``L`` and ``A`` are priced per pool by array kernels; neither
        estimator keeps a per-charger memo, and the memo bound is gone.
        The one cache left is availability's hour columns: one entry per
        hour of the week over the whole store, never one per charger."""
        registry = generate_catalog(city, CatalogSpec(charger_count=37, seed=2))
        env = ChargingEnvironment(city, registry, seed=2)
        for estimator in (env.sustainable, env.availability):
            assert not [name for name in vars(estimator) if "memo" in name]
        assert not [v for v in vars(env.sustainable).values() if isinstance(v, LRU)]
        caches = [v for v in vars(env.availability).values() if isinstance(v, LRU)]
        assert caches == [env.availability._hours]
        pool = registry.within_radius(Point(4.0, 3.0), 50.0)
        for eta_h in (9.5, 9.75, 10.5):
            env.availability.batch_estimate(pool, eta_h, 9.0)
        assert len(env.availability._hours) == 2
        assert env.availability._hours.capacity == HOUR_COLUMNS
        assert not hasattr(component, "MEMO_ENTRIES_PER_CHARGER")
