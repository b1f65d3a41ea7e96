"""EcoCharge algorithm integration tests: Algorithm 1 + dynamic caching."""

import pytest

from repro.core.baselines import BruteForceRanker
from repro.core.ecocharge import EcoCharge, EcoChargeConfig, EcoChargeRanker
from repro.core.environment import ChargingEnvironment
from repro.core.ranking import run_over_trip
from repro.core.scoring import Weights
from repro.interval_array import ComponentArrays
from repro.intervals import Interval

from .scalar_oracle import (
    ComponentScores,
    ScalarEcoCharge,
    assert_rows_bitequal,
    assert_tables_bitequal,
    price_rows,
    reduce_rows,
    rows,
)


@pytest.fixture()
def ranker(small_environment):
    return EcoChargeRanker(
        small_environment, EcoChargeConfig(k=3, radius_km=10.0, range_km=5.0)
    )


class TestConfig:
    def test_defaults_match_paper(self):
        config = EcoChargeConfig()
        assert config.radius_km == 50.0  # R
        assert config.range_km == 5.0  # Q
        assert config.weights == Weights.equal()

    def test_validation(self):
        with pytest.raises(ValueError):
            EcoChargeConfig(k=0)
        with pytest.raises(ValueError):
            EcoChargeConfig(radius_km=0.0)
        with pytest.raises(ValueError):
            EcoChargeConfig(range_km=-1.0)
        with pytest.raises(ValueError):
            EcoChargeConfig(segment_km=0.0)
        with pytest.raises(ValueError):
            EcoChargeConfig(cache_ttl_h=0.0)


class TestRankSegment:
    def test_table_has_k_entries(self, small_environment, sample_trip, ranker):
        segment = sample_trip.segments()[0]
        table = ranker.rank_segment(sample_trip, segment, eta_h=10.2, now_h=10.0)
        assert len(table) == 3

    def test_entries_within_radius(self, small_environment, sample_trip, ranker):
        segment = sample_trip.segments()[0]
        table = ranker.rank_segment(sample_trip, segment, eta_h=10.2, now_h=10.0)
        for entry in table:
            assert entry.charger.point.distance_to(segment.midpoint) <= 10.0 + 1e-6

    def test_first_call_computes_then_adapts(self, small_environment, sample_trip, ranker):
        segments = sample_trip.segments()
        t0 = ranker.rank_segment(sample_trip, segments[0], eta_h=10.1, now_h=10.0)
        assert not t0.is_adapted
        t1 = ranker.rank_segment(
            sample_trip, segments[1], eta_h=10.2, now_h=10.0
        )
        # Consecutive 4 km segments are within Q = 5 km.
        assert t1.is_adapted and t1.adapted_from == 0

    def test_reset_clears_cache(self, small_environment, sample_trip, ranker):
        segments = sample_trip.segments()
        ranker.rank_segment(sample_trip, segments[0], eta_h=10.1, now_h=10.0)
        ranker.reset()
        table = ranker.rank_segment(sample_trip, segments[1], eta_h=10.2, now_h=10.0)
        assert not table.is_adapted

    def test_ttl_expiry_forces_recompute(self, small_environment, sample_trip):
        ranker = EcoChargeRanker(
            small_environment,
            EcoChargeConfig(k=3, radius_km=10.0, range_km=50.0, cache_ttl_h=0.05),
        )
        segments = sample_trip.segments()
        ranker.rank_segment(sample_trip, segments[0], eta_h=10.0, now_h=10.0)
        table = ranker.rank_segment(sample_trip, segments[1], eta_h=10.5, now_h=10.0)
        assert not table.is_adapted
        assert ranker.cache_stats.expirations == 1

    def test_ranking_is_descending(self, small_environment, sample_trip, ranker):
        segment = sample_trip.segments()[0]
        table = ranker.rank_segment(sample_trip, segment, eta_h=10.2, now_h=10.0)
        sc_maxes = [e.score.sc_max for e in table]
        assert sc_maxes == sorted(sc_maxes, reverse=True)

    def test_tiny_radius_falls_back_to_nearest(self, small_environment, sample_trip):
        ranker = EcoChargeRanker(
            small_environment, EcoChargeConfig(k=2, radius_km=0.001, range_km=5.0)
        )
        segment = sample_trip.segments()[0]
        table = ranker.rank_segment(sample_trip, segment, eta_h=10.2, now_h=10.0)
        assert len(table) == 2  # nearest-k fallback, never an empty offering


class TestCachePoolLimit:
    def test_limit_validation(self):
        with pytest.raises(ValueError):
            EcoChargeConfig(k=5, cache_pool_limit=3)

    def test_limit_bounds_cached_pool(self, small_environment, sample_trip):
        ranker = EcoChargeRanker(
            small_environment,
            EcoChargeConfig(k=3, radius_km=12.0, cache_pool_limit=6),
        )
        segment = sample_trip.segments()[0]
        ranker.rank_segment(sample_trip, segment, eta_h=10.2, now_h=10.0)
        cached = ranker._cache.current
        assert cached is not None
        assert len(cached.pool) == 6
        assert len(cached.components) == 6

    def test_unlimited_stores_full_pool(self, small_environment, sample_trip):
        ranker = EcoChargeRanker(
            small_environment, EcoChargeConfig(k=3, radius_km=12.0)
        )
        segment = sample_trip.segments()[0]
        ranker.rank_segment(sample_trip, segment, eta_h=10.2, now_h=10.0)
        cached = ranker._cache.current
        pool_size = len(
            small_environment.registry.within_radius(segment.midpoint, 12.0)
        )
        assert len(cached.pool) == pool_size

    def test_adaptation_still_works_with_limit(self, small_environment, sample_trip):
        ranker = EcoChargeRanker(
            small_environment,
            EcoChargeConfig(k=3, radius_km=12.0, range_km=5.0, cache_pool_limit=9),
        )
        segments = sample_trip.segments()
        ranker.rank_segment(sample_trip, segments[0], eta_h=10.1, now_h=10.0)
        adapted = ranker.rank_segment(sample_trip, segments[1], eta_h=10.2, now_h=10.0)
        assert adapted.is_adapted
        assert len(adapted) == 3

    def test_kept_pool_matches_scalar_reference(self, small_environment, sample_trip):
        """``cache_pool_limit = 2k`` keeps the 2k best candidates by
        midpoint score, in the order of a stable scalar sort."""
        config = EcoChargeConfig(k=3, radius_km=12.0, cache_pool_limit=6)
        ranker = EcoChargeRanker(small_environment, config)
        segment = sample_trip.segments()[0]
        ranker.rank_segment(sample_trip, segment, eta_h=10.2, now_h=10.0)
        pool = small_environment.registry.within_radius(segment.midpoint, 12.0)
        assert len(pool) > 6
        priced = price_rows(
            small_environment, segment, pool, 10.2, 10.0,
            search_budget_h=ranker._budget_h,
        )
        kept_pool, kept = reduce_rows(pool, priced, 6, config.weights)
        cached = ranker.cache_entry
        assert [c.charger_id for c in cached.pool] == [c.charger_id for c in kept_pool]
        assert_rows_bitequal(kept, rows(cached.components))

    def test_midpoint_ties_keep_pool_order(self, small_environment, small_registry):
        chargers = small_registry.all()[:8]

        def comp(charger, level):
            iv = Interval(level, min(1.0, level + 0.1))
            return ComponentScores(charger.charger_id, iv, iv, Interval(0.3, 0.4))

        # Rows 1, 3, 4 and 6 tie exactly; the stable sort keeps 1 and 3.
        levels = [0.9, 0.5, 0.1, 0.5, 0.5, 0.7, 0.5, 0.2]
        components = [comp(c, level) for c, level in zip(chargers, levels)]
        config = EcoChargeConfig(k=2, cache_pool_limit=4)
        ranker = EcoChargeRanker(small_environment, config)
        kept_pool, kept = ranker._reduce_for_cache(
            chargers, ComponentArrays.from_scores(components)
        )
        ref_pool, ref = reduce_rows(chargers, components, 4, config.weights)
        expected = [chargers[i].charger_id for i in (0, 5, 1, 3)]
        assert [c.charger_id for c in ref_pool] == expected
        assert [c.charger_id for c in kept_pool] == expected
        assert_rows_bitequal(ref, rows(kept))

    @pytest.mark.parametrize("backend", ["dijkstra", "ch"])
    def test_limited_tables_match_scalar_reference(
        self, small_network, small_registry, sample_trip, backend
    ):
        """Computed and adapted tables over a reduced cached pool equal
        the scalar reference's, bit for bit."""
        config = EcoChargeConfig(k=3, radius_km=12.0, range_km=5.0, cache_pool_limit=6)
        tables = {}
        for ranker_cls in (ScalarEcoCharge, EcoChargeRanker):
            environment = ChargingEnvironment(
                small_network, small_registry, seed=5, engine=backend
            )
            ranker = ranker_cls(environment, config)
            tables[ranker_cls] = run_over_trip(ranker, environment, sample_trip).tables
        assert any(t.is_adapted for t in tables[EcoChargeRanker])
        assert_tables_bitequal(tables[ScalarEcoCharge], tables[EcoChargeRanker])

    def test_limited_adaptation_close_to_exact(self, small_environment, sample_trip):
        """The reduced pool's adapted selection should overlap strongly
        with the full-pool adapted selection."""
        segments = sample_trip.segments()

        def adapted_ids(limit):
            ranker = EcoChargeRanker(
                small_environment,
                EcoChargeConfig(
                    k=5, radius_km=12.0, range_km=5.0, cache_pool_limit=limit
                ),
            )
            ranker.rank_segment(sample_trip, segments[0], eta_h=10.1, now_h=10.0)
            return set(
                ranker.rank_segment(
                    sample_trip, segments[1], eta_h=10.2, now_h=10.0
                ).charger_ids()
            )

        overlap = adapted_ids(None) & adapted_ids(15)
        assert len(overlap) >= 4  # of 5


class TestAdaptationQuality:
    def test_adapted_table_close_to_recomputed(self, small_environment, sample_trip):
        """An adapted table's selection should largely agree with a fresh
        full computation at the same location (the drift the Q-opt
        experiment quantifies is small at Q = 5 km)."""
        config = EcoChargeConfig(k=5, radius_km=15.0, range_km=5.0)
        cached = EcoChargeRanker(small_environment, config)
        fresh = EcoChargeRanker(small_environment, config)
        segments = sample_trip.segments()
        etas = small_environment.eta.segment_etas(sample_trip)

        cached.rank_segment(sample_trip, segments[0], etas[0].expected_h, 10.0)
        adapted = cached.rank_segment(sample_trip, segments[1], etas[1].expected_h, 10.0)
        assert adapted.is_adapted

        recomputed = fresh.rank_segment(
            sample_trip, segments[1], etas[1].expected_h, 10.0
        )
        overlap = set(adapted.charger_ids()) & set(recomputed.charger_ids())
        assert len(overlap) >= 3  # of 5


class TestFacade:
    def test_plan_produces_one_table_per_segment(self, small_environment, sample_trip):
        framework = EcoCharge(
            small_environment, EcoChargeConfig(k=3, radius_km=12.0, segment_km=3.0)
        )
        run = framework.plan(sample_trip)
        assert len(run.tables) == len(sample_trip.segments(3.0))
        assert run.ranker_name == "ecocharge"

    def test_plan_uses_cache(self, small_environment, sample_trip):
        framework = EcoCharge(
            small_environment, EcoChargeConfig(k=3, radius_km=12.0, range_km=5.0)
        )
        framework.plan(sample_trip)
        assert framework.cache_stats.hits >= 1

    def test_offering_for_single_segment(self, small_environment, sample_trip):
        framework = EcoCharge(small_environment, EcoChargeConfig(k=3, radius_km=12.0))
        segment = sample_trip.segments()[1]
        table = framework.offering_for(sample_trip, segment)
        assert table.segment_index == 1
        assert len(table) == 3


class TestAgainstBruteForce:
    def test_full_coverage_matches_brute_force_top1(self, small_environment, sample_trip):
        """With R covering the whole environment, Q tiny (no caching), and
        unbounded budgets, EcoCharge's top choice per segment equals Brute
        Force's (same pool, same scores, same ranking)."""
        bounds = small_environment.registry.bounds
        big_r = max(bounds.width, bounds.height) * 2
        eco = EcoChargeRanker(
            small_environment,
            EcoChargeConfig(k=3, radius_km=big_r, range_km=0.001),
        )
        brute = BruteForceRanker(small_environment, k=3)
        eco_run = run_over_trip(eco, small_environment, sample_trip)
        brute_run = run_over_trip(brute, small_environment, sample_trip)
        for eco_table, brute_table in zip(eco_run.tables, brute_run.tables):
            assert not eco_table.is_adapted
            assert eco_table.best.charger_id == brute_table.best.charger_id
