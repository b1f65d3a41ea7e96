"""Live-graph epochs: atomic bumps, ratio bounds, fencing, widening.

Three guarantees from ``docs/live_graph.md`` are pinned here:

* :class:`GraphEpochManager` bumps ``epoch`` on every apply but
  ``weights_version`` only on real edge-cost changes, and every
  transition's ``[ratio_lo, ratio_hi]`` brackets how far any
  shortest-path cost can have moved;
* the :class:`DistanceEngine` pair-join cache and whole-query memo can
  never serve distances across a weight change, even when a
  ``WeightSpec`` key is *reused* with different semantics (the PR 8
  cache audit);
* degraded-mode widened Offering Tables contain the fresh-epoch
  intervals and never reverse a certain ordering, across random incident
  sequences (Hypothesis property).
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chargers.plugshare import CatalogSpec, generate_catalog
from repro.core.ecocharge import EcoChargeConfig
from repro.core.environment import ChargingEnvironment
from repro.estimation.traffic import TrafficModel
from repro.network.builders import build_grid_network
from repro.network.distance_engine import BACKENDS, DistanceEngine, WeightSpec
from repro.network.epochs import (
    VACUOUS_BOUND,
    GraphEpochManager,
    Incident,
    IncidentStream,
)
from repro.network.graph import EdgeWeight
from repro.network.path import Trip
from repro.server.eis import EcoChargeInformationServer
from repro.server.scheduling.brownout import widen_table_for_epoch


@pytest.fixture(scope="module")
def grid():
    return build_grid_network(6, 6, block_km=1.0, speed_kmh=60.0)


@pytest.fixture(scope="module")
def edges(grid):
    return sorted((e.source, e.target) for e in grid.edges())


@pytest.fixture(scope="module")
def registry(grid):
    return generate_catalog(grid, CatalogSpec(charger_count=20, hotspots=2, seed=7))


# ---------------------------------------------------------------------------
# Incident
# ---------------------------------------------------------------------------


class TestIncident:
    def test_rejects_nonpositive_multiplier(self):
        with pytest.raises(ValueError, match="positive"):
            Incident(0, 1, 0.0)
        with pytest.raises(ValueError, match="positive"):
            Incident(0, 1, -2.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            Incident(0, 1, math.nan)

    def test_congestion_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Incident.congestion(0, 1, math.inf)

    def test_closure_and_reopening(self):
        closure = Incident.closure(0, 1)
        assert closure.is_closure and math.isinf(closure.multiplier)
        reopening = Incident.reopening(0, 1)
        assert reopening.is_reopening and reopening.multiplier == 1.0


# ---------------------------------------------------------------------------
# GraphEpochManager
# ---------------------------------------------------------------------------


class TestGraphEpochManager:
    def test_epoch_bumps_every_apply_weights_only_on_change(self, grid, edges):
        manager = GraphEpochManager(grid)
        s, t = edges[0]
        manager.apply(())
        assert (manager.epoch, manager.weights_version) == (1, 0)
        manager.apply([Incident.congestion(s, t, 2.0)])
        assert (manager.epoch, manager.weights_version) == (2, 1)

    def test_noop_transition_record(self, grid):
        manager = GraphEpochManager(grid)
        transition = manager.apply(())
        assert transition.is_noop and not transition.is_vacuous
        assert (transition.ratio_lo, transition.ratio_hi) == (1.0, 1.0)
        assert manager.stats.noop_epochs == 1

    def test_net_unchanged_batch_is_noop(self, grid, edges):
        """Congest-then-reopen in one batch nets to nothing — the bump
        must be a no-op so serving can prove zero cache cost."""
        manager = GraphEpochManager(grid)
        s, t = edges[0]
        transition = manager.apply(
            [Incident.congestion(s, t, 2.0), Incident.reopening(s, t)]
        )
        assert transition.is_noop
        assert manager.weights_version == 0
        assert manager.factor(s, t) == 1.0

    def test_unknown_edge_rejected_before_any_mutation(self, grid, edges):
        manager = GraphEpochManager(grid)
        s, t = edges[0]
        with pytest.raises(KeyError):
            manager.apply(
                [Incident.congestion(s, t, 2.0), Incident.congestion(-1, -2, 2.0)]
            )
        assert manager.epoch == 0
        assert manager.factor(s, t) == 1.0

    def test_factor_table_is_copy_on_write(self, grid, edges):
        """A captured factor table keeps pricing its admission epoch —
        later bumps must never mutate it (torn reads impossible)."""
        manager = GraphEpochManager(grid)
        s, t = edges[0]
        version, captured = manager.snapshot()
        manager.apply([Incident.congestion(s, t, 3.0)])
        assert version == 0 and (s, t) not in captured
        assert manager.factor(s, t) == 3.0

    def test_reopening_clears_factor(self, grid, edges):
        manager = GraphEpochManager(grid)
        s, t = edges[0]
        manager.apply([Incident.congestion(s, t, 2.0)])
        manager.apply([Incident.reopening(s, t)])
        assert manager.factor(s, t) == 1.0
        assert manager.active_incidents() == {}

    def test_bound_since_multiplies_per_transition_brackets(self, grid, edges):
        manager = GraphEpochManager(grid)
        s, t = edges[0]
        manager.apply([Incident.congestion(s, t, 2.0)])   # ratio 2.0
        assert manager.bound_since(0) == (1.0, 2.0)
        manager.apply([Incident.congestion(s, t, 0.5)])   # ratio 0.25
        assert manager.bound_since(0) == (0.25, 2.0)
        assert manager.bound_since(1) == (0.25, 1.0)
        assert manager.bound_since(manager.epoch) == (1.0, 1.0)

    def test_closure_is_vacuous_and_reopening_ratio_zero(self, grid, edges):
        manager = GraphEpochManager(grid)
        s, t = edges[0]
        closure = manager.apply([Incident.closure(s, t)])
        assert closure.is_vacuous and math.isinf(manager.bound_since(0)[1])
        assert manager.is_closed(s, t)
        reopening = manager.apply([Incident.reopening(s, t)])
        assert reopening.ratio_lo == 0.0
        assert not manager.is_closed(s, t)

    def test_future_epoch_rejected(self, grid):
        manager = GraphEpochManager(grid)
        with pytest.raises(ValueError, match="future"):
            manager.bound_since(5)

    def test_history_eviction_returns_vacuous_bound(self, grid, edges):
        manager = GraphEpochManager(grid, max_history=1)
        s, t = edges[0]
        manager.apply([Incident.congestion(s, t, 2.0)])
        manager.apply([Incident.congestion(s, t, 3.0)])
        assert manager.bound_since(0) == VACUOUS_BOUND
        assert manager.bound_since(1) == (1.0, 1.5)

    def test_stats_counters(self, grid, edges):
        manager = GraphEpochManager(grid)
        s, t = edges[0]
        manager.apply(())
        manager.apply([Incident.closure(s, t)])
        manager.apply([Incident.reopening(s, t)])
        stats = manager.stats.as_dict()
        assert stats["epochs"] == 3
        assert stats["noop_epochs"] == 1
        assert stats["weight_epochs"] == 2
        assert stats["incidents_applied"] == 2
        assert stats["closures_applied"] == 1
        assert stats["reopenings_applied"] == 1


# ---------------------------------------------------------------------------
# IncidentStream
# ---------------------------------------------------------------------------


class TestIncidentStream:
    def test_same_seed_same_storm(self, grid):
        a = IncidentStream(grid, seed=3)
        b = IncidentStream(grid, seed=3)
        assert [a.next_batch(4) for _ in range(5)] == [b.next_batch(4) for _ in range(5)]

    def test_batches_apply_cleanly_and_closures_stay_bounded(self, grid):
        manager = GraphEpochManager(grid)
        stream = IncidentStream(grid, seed=1, max_closed=2)
        for _ in range(12):
            manager.apply(stream.next_batch(4))
            closed = sum(
                1 for factor in manager.active_incidents().values()
                if math.isinf(factor)
            )
            assert closed <= 2

    def test_empty_batch_supports_noop_proofs(self, grid):
        stream = IncidentStream(grid, seed=0, closure_rate=0.0)
        assert stream.next_batch(0) == ()


# ---------------------------------------------------------------------------
# satellite audit: the engine's pair-join cache and whole-query memo can
# never serve distances across a weight change
# ---------------------------------------------------------------------------


class TestWeightChangeCacheAudit:
    """The pair-join cache is keyed by the weight key and its version;
    these tests pin that a reused key (same key, different metric) fences
    the pair joins, settled maps and customisations instead of serving
    stale joins."""

    @staticmethod
    def _endpoints(grid):
        nodes = sorted(grid.node_ids())
        return nodes[0], nodes[1:12]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reused_key_never_serves_old_distances(self, grid, backend):
        engine = DistanceEngine(grid, backend=backend)
        source, targets = self._endpoints(grid)

        def base_cost(edge):
            return edge.weight(EdgeWeight.TRAVEL_TIME_H)

        spec_v0 = WeightSpec(key=("live", "tt"), fn=base_cost, epoch_version=0)
        first = engine.one_to_many(source, targets, spec_v0)
        again = engine.one_to_many(source, targets, spec_v0)  # warm the pairs
        assert again == first

        spec_v1 = WeightSpec(
            key=("live", "tt"),                       # the *same* interned key
            fn=lambda edge: 2.0 * base_cost(edge),    # but a changed metric
            epoch_version=1,
        )
        doubled = engine.one_to_many(source, targets, spec_v1)
        assert set(doubled) == set(first)
        for node, distance in first.items():
            assert doubled[node] == pytest.approx(2.0 * distance, abs=1e-6)
        assert engine.stats.epoch_invalidations > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_many_to_one_is_fenced_too(self, grid, backend):
        engine = DistanceEngine(grid, backend=backend)
        target, sources = self._endpoints(grid)

        def base_cost(edge):
            return edge.weight(EdgeWeight.TRAVEL_TIME_H)

        spec_v0 = WeightSpec(key="m2o", fn=base_cost, epoch_version=0)
        first = engine.many_to_one(sources, target, spec_v0)
        spec_v1 = WeightSpec(
            key="m2o", fn=lambda edge: 3.0 * base_cost(edge), epoch_version=1
        )
        tripled = engine.many_to_one(sources, target, spec_v1)
        for node, distance in first.items():
            assert tripled[node] == pytest.approx(3.0 * distance, abs=1e-6)

    def test_same_key_same_version_reuses_cached_state(self, grid):
        engine = DistanceEngine(grid, backend="ch")
        source, targets = self._endpoints(grid)
        spec = WeightSpec(
            key="stable",
            fn=lambda edge: edge.weight(EdgeWeight.TRAVEL_TIME_H),
            epoch_version=7,
        )
        first = engine.one_to_many(source, targets, spec)
        fences_before = engine.stats.epoch_invalidations
        clone = WeightSpec(
            key="stable",
            fn=lambda edge: edge.weight(EdgeWeight.TRAVEL_TIME_H),
            epoch_version=7,
        )
        assert engine.one_to_many(source, targets, clone) == first
        assert engine.stats.epoch_invalidations == fences_before

    def test_static_specs_never_fence(self, grid):
        engine = DistanceEngine(grid, backend="dijkstra")
        source, targets = self._endpoints(grid)
        first = engine.one_to_many(source, targets, EdgeWeight.TRAVEL_TIME_H)
        assert engine.one_to_many(source, targets, EdgeWeight.TRAVEL_TIME_H) == first
        assert engine.stats.epoch_invalidations == 0


# ---------------------------------------------------------------------------
# environment integration: no-op transparency and weight-change fencing
# ---------------------------------------------------------------------------


class TestEnvironmentEpochs:
    @staticmethod
    def _trip(grid):
        nodes = sorted(grid.node_ids())
        return Trip.route(grid, nodes[0], nodes[-1], departure_time_h=10.0)

    def test_noop_bump_is_bitwise_free(self, grid, registry):
        environment = ChargingEnvironment(grid, registry, seed=5)
        manager = GraphEpochManager(grid)
        environment.set_epochs(manager)
        server = EcoChargeInformationServer(environment)
        config = EcoChargeConfig(k=3, radius_km=10.0)
        trip = self._trip(grid)
        before = server.rank_trip(trip, config).tables
        manager.apply(())
        after = server.rank_trip(trip, config).tables
        assert after == before
        assert environment.engine.stats.epoch_invalidations == 0
        assert environment.current_epoch() == 1
        assert environment.weights_token() == 0

    def test_real_incident_fences_and_recomputes(self, grid, registry, edges):
        environment = ChargingEnvironment(grid, registry, seed=5)
        manager = GraphEpochManager(grid)
        environment.set_epochs(manager)
        server = EcoChargeInformationServer(environment)
        config = EcoChargeConfig(k=3, radius_km=10.0)
        trip = self._trip(grid)
        server.rank_trip(trip, config)
        manager.apply([Incident.congestion(s, t, 4.0) for s, t in edges[:8]])
        assert environment.weights_token() == 1
        tables = server.rank_trip(trip, config).tables
        assert tables and all(table.entries for table in tables)
        assert environment.engine.stats.epoch_invalidations > 0


class TestOneManagerPerEnvironment:
    def test_a_second_manager_is_refused(self, grid, registry):
        # Two managers both number their weights versions from 0: a spec
        # of the second would name distances priced under the first.
        environment = ChargingEnvironment(grid, registry, seed=5)
        nodes = sorted(grid.node_ids())
        first = GraphEpochManager(grid)
        environment.set_epochs(first)
        environment.set_epochs(first)  # the same manager again is a no-op
        first.apply([Incident.closure(e.source, e.target) for e in grid.out_edges(nodes[0])])
        spec = environment.traffic.travel_time_spec(9.0)
        assert environment.engine.one_to_many(nodes[0], nodes, spec) == {nodes[0]: 0.0}
        with pytest.raises(ValueError):
            environment.set_epochs(GraphEpochManager(grid))
        assert environment.epochs is first
        # Nor can the second manager reach the traffic model directly.
        with pytest.raises(ValueError):
            environment.traffic.set_epochs(GraphEpochManager(grid))
        assert environment.traffic.travel_time_spec(9.0).identity == spec.identity


# ---------------------------------------------------------------------------
# property: a warm engine answers every spec as a cold engine does, across
# random incident sequences (the versioned cache identity at work)
# ---------------------------------------------------------------------------


class TestVersionedCacheIdentity:
    """Engine caches are keyed by ``(key, epoch_version)``: whatever the
    incidents, a warm engine's answer under a current spec — or under a
    stale one queried after a newer version retired its entries — is a
    cold engine's answer."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_warm_answers_equal_cold(self, grid, edges, backend, data):
        incident = st.one_of(
            st.builds(
                lambda edge, multiplier: Incident.congestion(*edge, multiplier),
                st.sampled_from(edges),
                st.sampled_from([0.5, 2.0, 4.0]),
            ),
            st.builds(lambda edge: Incident.closure(*edge), st.sampled_from(edges)),
            st.builds(lambda edge: Incident.reopening(*edge), st.sampled_from(edges)),
        )
        batches = data.draw(st.lists(st.lists(incident, max_size=3), min_size=1, max_size=4))
        nodes = sorted(grid.node_ids())
        manager = GraphEpochManager(grid)
        traffic = TrafficModel(seed=4)
        traffic.set_epochs(manager)
        engine = DistanceEngine(grid, backend=backend)
        stale = None
        for batch in [[], *batches]:
            manager.apply(batch)
            specs = [*traffic.travel_time_bound_specs(9.0, 8.0), traffic.travel_time_spec(9.0)]
            engine.prepare(*specs)
            origin = data.draw(st.sampled_from(nodes), label="origin")
            budget = data.draw(st.sampled_from([0.05, 0.1, math.inf]), label="budget")
            queried = [*specs, EdgeWeight.TRAVEL_TIME_H]
            if stale is not None:
                queried.append(stale)
            for spec in queried:
                cold = DistanceEngine(grid, backend=backend)
                assert engine.one_to_many(origin, nodes, spec, budget) == cold.one_to_many(
                    origin, nodes, spec, budget
                )
                assert engine.many_to_one(nodes, origin, spec, budget) == cold.many_to_one(
                    nodes, origin, spec, budget
                )
            stale = specs[0]


# ---------------------------------------------------------------------------
# satellite property: widened tables contain fresh-epoch intervals and
# preserve certainly-better ordering (Hypothesis, random incident runs)
# ---------------------------------------------------------------------------


def _score_bounds(entry) -> tuple[float, float]:
    lo = min(entry.score.sc_min, entry.score.sc_max)
    hi = max(entry.score.sc_min, entry.score.sc_max)
    return lo, hi


def _certainly_better(a, b) -> bool:
    """True when every scenario scores ``a`` strictly above ``b``."""
    a_lo, _ = _score_bounds(a)
    _, b_hi = _score_bounds(b)
    return a_lo > b_hi


class TestWidenedTableProperty:
    CONFIG = EcoChargeConfig(k=3, radius_km=10.0)

    @pytest.fixture(scope="class")
    def base(self, grid, registry):
        """Epoch-0 tables: what a degraded serve would widen."""
        environment = ChargingEnvironment(grid, registry, seed=5)
        server = EcoChargeInformationServer(environment)
        trip = TestEnvironmentEpochs._trip(grid)
        return trip, server.rank_trip(trip, self.CONFIG).tables

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_widened_contains_fresh_and_preserves_certain_order(
        self, data, grid, registry, edges, base
    ):
        trip, base_tables = base
        picks = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(edges),
                    st.floats(
                        0.4, 4.0, allow_nan=False, allow_infinity=False
                    ),
                ),
                min_size=1,
                max_size=5,
            )
        )
        batches = data.draw(st.integers(1, 3))

        manager = GraphEpochManager(grid)
        for index in range(batches):
            manager.apply(
                tuple(
                    Incident.congestion(s, t, multiplier)
                    for (s, t), multiplier in picks[index::batches]
                )
            )
        lo, hi = manager.bound_since(0)
        assert 0.0 < lo <= 1.0 <= hi < math.inf

        environment = ChargingEnvironment(grid, registry, seed=5)
        environment.set_epochs(manager)
        fresh_tables = {
            table.segment_index: table
            for table in EcoChargeInformationServer(environment).rank_trip(
                trip, self.CONFIG
            ).tables
        }
        for table in base_tables:
            fresh = fresh_tables.get(table.segment_index)
            if fresh is None:
                continue
            widened = widen_table_for_epoch(table, lo, hi, self.CONFIG.weights)
            common = [
                (entry, fresh.get(entry.charger_id))
                for entry in widened.entries
                if fresh.get(entry.charger_id) is not None
            ]
            # Containment: widened ⊇ fresh, per charger served both ways.
            for entry, truth in common:
                assert truth.derouting.within_bounds(
                    entry.derouting.lo, entry.derouting.hi, tol=1e-8
                )
            # Ordering: widening may only *lose* certainty, never invert
            # a certain preference the fresh epoch holds.
            for (wide_a, fresh_a), (wide_b, fresh_b) in itertools.combinations(
                common, 2
            ):
                if _certainly_better(fresh_a, fresh_b):
                    assert not _certainly_better(wide_b, wide_a)
                if _certainly_better(fresh_b, fresh_a):
                    assert not _certainly_better(wide_a, wide_b)
