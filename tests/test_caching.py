"""Dynamic cache unit tests (Q-range and TTL validity, statistics)."""

import pytest

from repro.core.caching import CachedSolution, CacheStats, DynamicCache
from repro.interval_array import ComponentArrays
from repro.spatial.geometry import Point


def _solution(origin=Point(0, 0), at_h=10.0, segment_index=0):
    return CachedSolution(
        segment_index=segment_index,
        origin=origin,
        generated_at_h=at_h,
        eta_h=at_h,
        radius_km=50.0,
        pool=(),
        components=ComponentArrays.from_scores(()),
    )


class TestDynamicCache:
    def test_empty_lookup_misses(self):
        cache = DynamicCache(range_km=5.0, ttl_h=1.0)
        assert cache.lookup(Point(0, 0), now_h=10.0, epoch=0) is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0

    def test_hit_within_range_and_ttl(self):
        cache = DynamicCache(range_km=5.0, ttl_h=1.0)
        cache.store(_solution())
        hit = cache.lookup(Point(3.0, 0.0), now_h=10.5, epoch=0)
        assert hit is not None
        assert cache.stats.hits == 1

    def test_miss_beyond_q(self):
        cache = DynamicCache(range_km=5.0, ttl_h=1.0)
        cache.store(_solution())
        assert cache.lookup(Point(6.0, 0.0), now_h=10.1, epoch=0) is None
        assert cache.stats.out_of_range == 1
        # Entry survives an out-of-range miss (a later nearby query may hit).
        assert cache.current is not None

    def test_miss_after_ttl_evicts(self):
        cache = DynamicCache(range_km=5.0, ttl_h=1.0)
        cache.store(_solution(at_h=10.0))
        assert cache.lookup(Point(0.0, 0.0), now_h=11.5, epoch=0) is None
        assert cache.stats.expirations == 1
        assert cache.current is None

    def test_lookup_fences_on_epoch_first(self):
        cache = DynamicCache(range_km=5.0, ttl_h=1.0)
        cache.store(_solution())
        # Within Q and TTL, but computed on weights token 0: a lookup on
        # token 1 drops it before the admission test.
        assert cache.lookup(Point(0.0, 0.0), now_h=10.0, epoch=1) is None
        assert cache.stats.epoch_invalidations == 1
        assert cache.stats.misses == 1
        assert cache.current is None

    def test_boundary_conditions_inclusive(self):
        cache = DynamicCache(range_km=5.0, ttl_h=1.0)
        cache.store(_solution(at_h=10.0))
        # Exactly Q away and exactly TTL old still hits.
        assert cache.lookup(Point(5.0, 0.0), now_h=11.0, epoch=0) is not None

    def test_store_replaces(self):
        cache = DynamicCache(range_km=5.0, ttl_h=1.0)
        cache.store(_solution(segment_index=0))
        cache.store(_solution(segment_index=1))
        assert cache.current.segment_index == 1

    def test_clear_resets_stats(self):
        cache = DynamicCache(range_km=5.0, ttl_h=1.0)
        cache.store(_solution())
        cache.lookup(Point(0, 0), now_h=10.0, epoch=0)
        cache.clear()
        assert cache.current is None
        assert cache.stats.lookups == 0

    def test_hit_rate_zero_lookups_is_zero(self):
        # Regression: a never-queried cache reports 0.0, never ZeroDivisionError.
        stats = CacheStats()
        assert stats.lookups == 0
        assert stats.hit_rate == 0.0

    def test_hit_rate(self):
        cache = DynamicCache(range_km=5.0, ttl_h=1.0)
        assert cache.stats.hit_rate == 0.0
        cache.store(_solution())
        cache.lookup(Point(0, 0), 10.0, epoch=0)
        cache.lookup(Point(100, 0), 10.0, epoch=0)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicCache(range_km=0.0)
        with pytest.raises(ValueError):
            DynamicCache(range_km=1.0, ttl_h=0.0)
