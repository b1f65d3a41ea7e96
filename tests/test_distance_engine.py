"""DistanceEngine: backend equivalence, caching semantics, and the LRU.

The acceptance property of the whole hierarchical engine is here: on
seeded networks, the derouting intervals ``[D_min, D_max]`` produced with
``backend="ch"`` are *bitwise identical* to the Dijkstra backend's — the
quantisation contract (``DISTANCE_DECIMALS``) is what turns "equal up to
float noise" into ``==``.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.chargers.plugshare import CatalogSpec, generate_catalog
from repro.core.environment import ChargingEnvironment
from repro.estimation.derouting import DeroutingEstimator
from repro.estimation.traffic import TrafficModel
from repro.network.builders import (
    NetworkSpec,
    build_city_network,
    build_grid_network,
    build_radial_network,
)
from repro.network.distance_engine import (
    BACKENDS,
    DISTANCE_QUANTUM,
    DistanceEngine,
    WeightSpec,
)
from repro.network.graph import EdgeWeight
from repro.network.path import Trip


@pytest.fixture(scope="module")
def grid():
    return build_grid_network(7, 7, block_km=1.0, speed_kmh=60.0)


class TestWeightSpec:
    def test_of_passes_spec_through(self):
        spec = WeightSpec(key="k", fn=lambda e: 1.0)
        assert WeightSpec.of(spec) is spec

    def test_of_wraps_edge_weight(self):
        spec = WeightSpec.of(EdgeWeight.DISTANCE_KM)
        assert spec.key is EdgeWeight.DISTANCE_KM

    def test_of_rejects_raw_callable(self):
        with pytest.raises(TypeError, match="WeightSpec"):
            WeightSpec.of(lambda e: 1.0)


class TestEngineBasics:
    def test_rejects_unknown_backend(self, grid):
        with pytest.raises(ValueError, match="backend"):
            DistanceEngine(grid, backend="bfs")

    def test_one_to_many_matches_raw_dijkstra_quantised(self, grid):
        from repro.network.shortest_path import dijkstra_all

        engine = DistanceEngine(grid)
        targets = sorted(grid.node_ids())[::3]
        got = engine.one_to_many(0, targets, EdgeWeight.DISTANCE_KM, max_cost=6.0)
        ref = dijkstra_all(grid, 0, EdgeWeight.DISTANCE_KM, max_cost=6.0)
        assert got == {
            t: round(ref[t], 9) for t in targets if t in ref and round(ref[t], 9) <= 6.0
        }

    def test_cache_hit_on_repeat_query(self, grid):
        engine = DistanceEngine(grid)
        targets = [5, 12, 30]
        engine.one_to_many(0, targets, EdgeWeight.DISTANCE_KM, max_cost=5.0)
        misses = engine.stats.cache_misses
        engine.one_to_many(0, [30, 44], EdgeWeight.DISTANCE_KM, max_cost=5.0)
        assert engine.stats.cache_misses == misses
        assert engine.stats.cache_hits >= 1

    def test_budget_aware_reuse(self, grid):
        engine = DistanceEngine(grid)
        engine.one_to_many(0, [5], EdgeWeight.DISTANCE_KM, max_cost=8.0)
        searches = engine.stats.searches
        # A *smaller* budget is answerable from the cached wider ball...
        engine.one_to_many(0, [5], EdgeWeight.DISTANCE_KM, max_cost=3.0)
        assert engine.stats.searches == searches
        # ...a wider one forces a recompute.
        engine.one_to_many(0, [5], EdgeWeight.DISTANCE_KM, max_cost=10.0)
        assert engine.stats.searches == searches + 1

    def test_narrow_budget_filters_cached_wide_ball(self, grid):
        engine = DistanceEngine(grid)
        wide = engine.one_to_many(0, grid.node_ids(), EdgeWeight.DISTANCE_KM, max_cost=12.0)
        narrow = engine.one_to_many(0, grid.node_ids(), EdgeWeight.DISTANCE_KM, max_cost=3.0)
        assert narrow == {n: d for n, d in wide.items() if d <= 3.0}

    def test_set_backend_clears_caches(self, grid):
        engine = DistanceEngine(grid)
        engine.one_to_many(0, [5], EdgeWeight.DISTANCE_KM, max_cost=5.0)
        assert engine.cached_maps > 0
        engine.set_backend("ch")
        assert engine.cached_maps == 0
        assert engine.backend == "ch"

    def test_stats_hit_rate_zero_lookups(self):
        # Regression: a fresh engine must report 0.0, not divide by zero.
        engine = DistanceEngine(build_grid_network(2, 2))
        assert engine.stats.lookups == 0
        assert engine.stats.hit_rate == 0.0
        assert engine.stats.as_dict()["hit_rate"] == 0.0


class TestLRU:
    def test_capacity_bounds_cached_nodes(self, grid):
        # Each full ball on the 7x7 grid settles 49 nodes; cap at ~3 balls.
        engine = DistanceEngine(grid, capacity_nodes=150)
        for source in range(10):
            engine.one_to_many(source, [48], EdgeWeight.DISTANCE_KM, max_cost=20.0)
        assert engine.cached_nodes <= 150
        assert engine.stats.evictions >= 7

    def test_eviction_is_lru_ordered(self, grid):
        engine = DistanceEngine(grid, capacity_nodes=150)
        engine.one_to_many(0, [48], EdgeWeight.DISTANCE_KM, max_cost=20.0)
        engine.one_to_many(1, [48], EdgeWeight.DISTANCE_KM, max_cost=20.0)
        engine.one_to_many(2, [48], EdgeWeight.DISTANCE_KM, max_cost=20.0)
        # Touch source 0 so source 1 is the least recently used...
        engine.one_to_many(0, [24], EdgeWeight.DISTANCE_KM, max_cost=20.0)
        engine.one_to_many(3, [48], EdgeWeight.DISTANCE_KM, max_cost=20.0)
        searches = engine.stats.searches
        engine.one_to_many(0, [24], EdgeWeight.DISTANCE_KM, max_cost=20.0)
        assert engine.stats.searches == searches  # survivor: still cached
        engine.one_to_many(1, [24], EdgeWeight.DISTANCE_KM, max_cost=20.0)
        assert engine.stats.searches == searches + 1  # victim: recomputed

    def test_single_oversized_entry_is_kept(self, grid):
        # An entry larger than the whole capacity must still be served
        # (and be the only resident), not evicted out from under the call.
        engine = DistanceEngine(grid, capacity_nodes=10)
        out = engine.one_to_many(0, grid.node_ids(), EdgeWeight.DISTANCE_KM, max_cost=30.0)
        assert len(out) == 49
        assert engine.cached_maps == 1

    def test_default_bound_scales_with_network(self, grid):
        # Without capacity_nodes the bound is 64 settled nodes per network
        # node; 128 distinct metrics of 49-node balls must evict to fit it.
        engine = DistanceEngine(grid)
        bound = 64 * grid.node_count
        for i in range(128):
            spec = WeightSpec(
                key=("scaled", i),
                fn=lambda edge, s=1.0 + i: s * edge.weight(EdgeWeight.DISTANCE_KM),
            )
            engine.one_to_many(0, [48], spec)
            assert engine.cached_nodes <= bound
        assert engine.stats.evictions > 0

    def test_customization_cache_bounded(self, grid):
        engine = DistanceEngine(grid, backend="ch", max_customizations=2)
        traffic = TrafficModel(seed=0)
        for hour in (8.0, 9.0, 10.0, 11.0):
            spec = traffic.travel_time_spec(hour)
            engine.one_to_many(0, [5], spec, max_cost=5.0)
        assert engine.stats.customisations == 4
        assert engine.stats.evictions >= 2


class TestStatsCounting:
    """The 0.5-hit-rate regression: stats must separate cold from warm.

    Every public query accounts *exactly one* settled-map lookup per
    participating (weight, node, direction) map on the Dijkstra backend
    (never two — an inflated denominator pins the aggregate hit rate at
    a meaningless constant), and the CH backend accounts exactly one
    pair probe per pool member.  A warm repeat of an identical workload
    must therefore be a 100 % hit phase, not drag the rate toward 0.5.
    """

    def test_dijkstra_one_lookup_per_query(self, grid):
        engine = DistanceEngine(grid)
        engine.one_to_many(0, [5, 12, 30], EdgeWeight.DISTANCE_KM, max_cost=5.0)
        assert engine.stats.lookups == 1  # one (weight, source, 'f') map
        assert engine.stats.cache_misses == 1
        engine.many_to_one([5, 12], 0, EdgeWeight.DISTANCE_KM, max_cost=5.0)
        assert engine.stats.lookups == 2  # one (weight, target, 'b') map
        engine.one_to_many(0, [12], EdgeWeight.DISTANCE_KM, max_cost=5.0)
        assert engine.stats.lookups == 3
        assert engine.stats.cache_hits == 1

    def test_dijkstra_warm_repeat_is_all_hits(self, grid):
        engine = DistanceEngine(grid)
        workload = [(src, [12, 30]) for src in range(4)]
        for src, targets in workload:
            engine.one_to_many(src, targets, EdgeWeight.DISTANCE_KM, max_cost=8.0)
        cold_hits = engine.stats.cache_hits
        cold_lookups = engine.stats.lookups
        assert cold_hits == 0
        for src, targets in workload:
            engine.one_to_many(src, targets, EdgeWeight.DISTANCE_KM, max_cost=8.0)
        warm_hits = engine.stats.cache_hits - cold_hits
        warm_lookups = engine.stats.lookups - cold_lookups
        # The warm *delta* is a 100% hit phase; the old single aggregate
        # read would have reported (0 + n) / 2n = 0.5 here.
        assert warm_lookups == len(workload)
        assert warm_hits == warm_lookups

    def test_ch_one_pair_probe_per_pool_member(self, grid):
        engine = DistanceEngine(grid, backend="ch")
        pool = [5, 12, 30]
        engine.one_to_many(0, pool, EdgeWeight.DISTANCE_KM, max_cost=8.0)
        cold_probes = engine.stats.pair_hits + engine.stats.pair_misses
        assert cold_probes == len(pool)
        assert engine.stats.pair_hits == 0
        engine.one_to_many(0, pool, EdgeWeight.DISTANCE_KM, max_cost=8.0)
        warm_hits = engine.stats.pair_hits
        warm_probes = engine.stats.pair_hits + engine.stats.pair_misses - cold_probes
        assert warm_probes == len(pool)
        assert warm_hits == warm_probes


class TestPrepare:
    """engine.prepare(): stacked customisation of several metrics at once."""

    def test_customises_all_specs_in_one_stacked_sweep(self, grid):
        engine = DistanceEngine(grid, backend="ch")
        traffic = TrafficModel(seed=6)
        lo, hi = traffic.travel_time_bound_specs(9.0, 8.0)
        # prepare() is deferred: no sweep happens until the first query...
        engine.prepare(lo, hi)
        assert engine.stats.customisations == 0
        # ...which then customises the whole announced group in one
        # stacked sweep, so the sibling spec is already resident.
        engine.one_to_many(0, [5, 30], lo, max_cost=5.0)
        assert engine.stats.customisations == 2
        engine.one_to_many(0, [5, 30], hi, max_cost=5.0)
        assert engine.stats.customisations == 2  # hi rode along with lo
        assert engine.stats.customisation_hits >= 2

    def test_prepared_results_match_unprepared(self, grid):
        traffic = TrafficModel(seed=6)
        lo, hi = traffic.travel_time_bound_specs(10.0, 9.5)
        prepared = DistanceEngine(grid, backend="ch")
        prepared.prepare(lo, hi)
        lazy = DistanceEngine(grid, backend="ch")
        for spec in (lo, hi):
            assert prepared.one_to_many(0, grid.node_ids(), spec, max_cost=2.0) == (
                lazy.one_to_many(0, grid.node_ids(), spec, max_cost=2.0)
            )

    def test_idempotent_and_deduplicating(self, grid):
        engine = DistanceEngine(grid, backend="ch")
        traffic = TrafficModel(seed=6)
        lo, hi = traffic.travel_time_bound_specs(9.0, 8.0)
        engine.prepare(lo, hi, lo)
        engine.prepare(lo, hi)
        engine.one_to_many(0, [5], lo, max_cost=5.0)
        assert engine.stats.customisations == 2
        # Re-announcing already-customised specs must not re-sweep them.
        engine.prepare(lo, hi)
        engine.one_to_many(1, [5], hi, max_cost=5.0)
        assert engine.stats.customisations == 2

    def test_noop_on_dijkstra_backend(self, grid):
        engine = DistanceEngine(grid)
        traffic = TrafficModel(seed=6)
        engine.prepare(*traffic.travel_time_bound_specs(9.0, 8.0))
        assert engine.stats.customisations == 0
        assert engine.cached_maps == 0


class TestBackendEquality:
    """CH and Dijkstra return identical (quantised) maps — bitwise."""

    @pytest.mark.parametrize("seed", [2, 11, 29])
    def test_city_networks_random_queries(self, seed):
        net = build_city_network(
            NetworkSpec(width_km=8.0, height_km=6.0, block_km=1.2, seed=seed)
        )
        traffic = TrafficModel(seed=seed)
        spec_lo, spec_hi = traffic.travel_time_bound_specs(9.0, 8.0)
        engines = {b: DistanceEngine(net, backend=b) for b in BACKENDS}
        rng = random.Random(seed)
        nodes = sorted(net.node_ids())
        for _ in range(5):
            anchor = rng.choice(nodes)
            pool = rng.sample(nodes, 10)
            budget = rng.uniform(0.05, 0.6)
            for spec in (spec_lo, spec_hi):
                o2m = {
                    b: e.one_to_many(anchor, pool, spec, max_cost=budget)
                    for b, e in engines.items()
                }
                assert o2m["dijkstra"] == o2m["ch"]
                m2o = {
                    b: e.many_to_one(pool, anchor, spec, max_cost=budget)
                    for b, e in engines.items()
                }
                assert m2o["dijkstra"] == m2o["ch"]

    def test_radial_network(self):
        net = build_radial_network(rings=4, spokes=6)
        nodes = sorted(net.node_ids())
        engines = {b: DistanceEngine(net, backend=b) for b in BACKENDS}
        got = {
            b: e.many_to_many(nodes[:5], nodes[-5:], EdgeWeight.TRAVEL_TIME_H, max_cost=1.0)
            for b, e in engines.items()
        }
        assert got["dijkstra"] == got["ch"]

    def test_batch_evaluator_bitwise_matches_scalar(self, grid):
        """The vectorised customisation input equals the scalar cost fn
        element-for-element — the precondition for backend bit-equality."""
        from repro.network.contraction import ContractionHierarchy

        ch = ContractionHierarchy.build(grid)
        traffic = TrafficModel(seed=4)
        for spec in (
            traffic.travel_time_spec(8.5),
            *traffic.travel_time_bound_specs(9.5, 8.0),
        ):
            batch = spec.batch(ch.original_edges)
            for arc, edge in enumerate(ch.original_edges):
                if edge is None:
                    assert math.isinf(batch[arc])
                else:
                    assert batch[arc] == spec.fn(edge)  # bitwise, not approx


def _assert_bitwise_equal(cost_d, cost_c):
    assert cost_d.charger_ids.tolist() == cost_c.charger_ids.tolist()
    # Bitwise equality of the interval endpoints, not approx.
    assert cost_d.hours.lo.tobytes() == cost_c.hours.lo.tobytes()
    assert cost_d.hours.hi.tobytes() == cost_c.hours.hi.tobytes()
    assert cost_d.normalised.lo.tobytes() == cost_c.normalised.lo.tobytes()
    assert cost_d.normalised.hi.tobytes() == cost_c.normalised.hi.tobytes()


class TestDeroutingIntervalEquality:
    """Acceptance: identical D intervals across backends on seeded worlds."""

    @pytest.mark.parametrize("seed", [5, 13])
    def test_batch_estimate_identical(self, seed):
        net = build_city_network(
            NetworkSpec(width_km=10.0, height_km=8.0, block_km=1.3, seed=seed)
        )
        registry = generate_catalog(net, CatalogSpec(charger_count=25, seed=seed))
        traffic = TrafficModel(seed=seed)
        chargers = registry.all()
        nodes = sorted(net.node_ids())
        trip = Trip.route(net, nodes[0], nodes[-1], departure_time_h=8.0)
        segment = trip.segments(segment_km=2.0)[0]
        results = {}
        for backend in BACKENDS:
            estimator = DeroutingEstimator(
                net, traffic, engine=DistanceEngine(net, backend=backend)
            )
            results[backend] = estimator.batch_estimate(
                segment, chargers, time_h=8.4, now_h=8.0
            )
        _assert_bitwise_equal(results["dijkstra"], results["ch"])

    def test_full_environment_true_components_identical(self):
        net = build_city_network(
            NetworkSpec(width_km=8.0, height_km=8.0, block_km=1.5, seed=3)
        )
        registry = generate_catalog(net, CatalogSpec(charger_count=15, seed=3))
        pools = {}
        for backend in BACKENDS:
            env = ChargingEnvironment(net, registry, seed=3, engine=backend)
            nodes = sorted(net.node_ids())
            trip = Trip.route(net, nodes[0], nodes[-1], departure_time_h=9.0)
            segment = trip.segments(segment_km=2.0)[0]
            pools[backend] = env.true_components_pool(segment, registry.all(), 9.2)
        assert pools["dijkstra"] == pools["ch"]

    def test_grid_trip_probes_identical(self):
        """A regular grid, where many shortest paths tie: two segments of
        a corner-to-corner trip, priced at two ETAs."""
        net = build_grid_network(10, 10, block_km=1.0, speed_kmh=50.0)
        registry = generate_catalog(net, CatalogSpec(charger_count=4, seed=7))
        nodes = sorted(net.node_ids())
        trip = Trip.route(net, nodes[0], nodes[-1], departure_time_h=8.0)
        segments = trip.segments(3.0)
        probes = [segments[0], segments[len(segments) // 2]]
        results = {}
        for backend in BACKENDS:
            env = ChargingEnvironment(net, registry, seed=0, engine=backend)
            results[backend] = [
                env.derouting.batch_estimate(
                    segment,
                    registry.all(),
                    time_h=trip.departure_time_h + 0.2 * (i + 1),
                    now_h=trip.departure_time_h,
                )
                for i, segment in enumerate(probes)
            ]
        for cost_d, cost_c in zip(results["dijkstra"], results["ch"]):
            _assert_bitwise_equal(cost_d, cost_c)


class TestEnvironmentWiring:
    def test_environment_shares_one_engine(self, grid):
        registry = generate_catalog(grid, CatalogSpec(charger_count=5, seed=1))
        env = ChargingEnvironment(grid, registry, seed=1)
        assert env.derouting.engine is env.engine
        env.set_engine_backend("ch")
        assert env.engine.backend == "ch"

    def test_quantum_is_sane(self):
        assert DISTANCE_QUANTUM == pytest.approx(1e-9)
