"""Server tier tests: simulated APIs, response cache, EIS, client, modes."""

import pytest

from repro.core.ecocharge import EcoChargeConfig
from repro.server.api import ApiUsage
from repro.server.cache import ResponseCache
from repro.server.client import EcoChargeClient
from repro.server.eis import EcoChargeInformationServer
from repro.server.modes import (
    LATENCY_MODELS,
    DeploymentMode,
    LatencyModel,
    compare_modes,
    simulate_mode,
)
from repro.spatial.geometry import Point


class TestResponseCache:
    def test_lookup_counts_hits_and_misses(self):
        cache = ResponseCache(ttl_h=1.0)
        assert cache.lookup("k", 10.0) is None
        cache.put("k", 10.0, 42)
        for __ in range(2):
            cached = cache.lookup("k", 10.5)
            assert cached is not None
            assert (cached.value, cached.stored_h, cached.age_h) == (42, 10.0, 0.5)
        assert cache.stats.hits == 2 and cache.stats.misses == 1

    def test_ttl_expiry_recomputes(self):
        cache = ResponseCache(ttl_h=0.5)
        cache.put("k", 10.0, "old")
        assert cache.lookup("k", 10.5) is not None  # the TTL bound is inclusive
        assert cache.lookup("k", 11.0) is None  # past the TTL: a miss
        cache.put("k", 11.0, "new")
        cached = cache.lookup("k", 11.0)
        assert cached is not None and cached.value == "new"
        assert cache.stats.hits == 2 and cache.stats.misses == 1

    def test_expired_entry_kept_for_stale_lookup(self):
        cache = ResponseCache(ttl_h=0.5)
        cache.put("k", 10.0, "old")
        # A miss past the TTL must leave the expired entry in place for
        # the serve-stale error path.
        assert cache.lookup("k", 11.0) is None
        stale = cache.lookup_stale("k", 11.0, max_stale_h=2.0)
        assert stale is not None and stale.value == "old"
        assert stale.age_h == pytest.approx(1.0)

    def test_spatial_key_buckets(self):
        a = ResponseCache.spatial_key("w", Point(1.0, 1.0), 10.0)
        b = ResponseCache.spatial_key("w", Point(1.5, 1.2), 10.1)
        c = ResponseCache.spatial_key("w", Point(9.0, 9.0), 10.0)
        assert a == b
        assert a != c

    def test_eviction_bounds_size(self):
        cache = ResponseCache(ttl_h=10.0, max_entries=5)
        for i in range(10):
            cache.put(("k", i), now_h=float(i), value=i)
        assert len(cache) == 5
        assert cache.stats.evictions == 5

    def test_eviction_drops_stalest(self):
        cache = ResponseCache(ttl_h=10.0, max_entries=2)
        cache.put("a", 1.0, "a")
        cache.put("b", 2.0, "b")
        cache.put("c", 3.0, "c")
        assert cache.lookup("a", 3.0) is None
        cached = cache.lookup("b", 3.0)
        assert cached is not None and cached.value == "b"
        assert cache.stats.evictions == 1

    def test_lru_reads_refresh_recency(self):
        cache = ResponseCache(ttl_h=10.0, max_entries=2)
        cache.put("hot", 1.0, "hot")
        cache.put("cold", 2.0, "cold")
        # Reading "hot" makes it the most recently *used* even though
        # "cold" was written later; the next insert must evict "cold".
        assert cache.lookup("hot", 3.0) is not None
        cache.put("new", 4.0, "new")
        assert cache.lookup("hot", 4.0) is not None
        assert cache.lookup("cold", 4.0) is None

    def test_recency_is_access_order_within_one_now_h(self):
        # Accesses that share one now_h still order by when they
        # happened: "a" is read after "b" is written, so "b" is evicted.
        cache = ResponseCache(ttl_h=10.0, max_entries=2)
        cache.put("a", 5.0, "a")
        cache.put("b", 5.0, "b")
        assert cache.lookup("a", 5.0) is not None
        cache.put("c", 5.0, "c")
        assert cache.lookup("a", 5.0) is not None
        assert cache.lookup("b", 5.0) is None
        assert cache.stats.evictions == 1

    def test_lookup_stale_respects_bound(self):
        cache = ResponseCache(ttl_h=0.5)
        cache.put("k", 10.0, "v")
        assert cache.lookup_stale("k", 13.0, max_stale_h=2.0) is None
        assert cache.lookup_stale("k", 13.0, max_stale_h=None) is not None
        assert cache.stats.stale_hits == 1

    def test_clear(self):
        cache = ResponseCache()
        cache.put("a", 1.0, "a")
        cache.clear()
        assert len(cache) == 0 and cache.stats.misses == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ResponseCache(ttl_h=0.0)
        with pytest.raises(ValueError):
            ResponseCache(max_entries=0)


class TestEis:
    @pytest.fixture()
    def eis(self, small_environment):
        return EcoChargeInformationServer(small_environment)

    def test_snapshot_contents(self, eis):
        snap = eis.region_snapshot(Point(5, 5), radius_km=6.0, eta_h=11.0, now_h=10.0)
        assert snap.charger_count > 0
        assert set(snap.availability) == {c.charger_id for c in snap.chargers}
        for charger in snap.chargers:
            assert charger.point.distance_to(Point(5, 5)) <= 6.0 + 1e-6

    def test_snapshot_cached_for_nearby_requests(self, eis):
        eis.region_snapshot(Point(5.0, 5.0), 6.0, eta_h=11.0, now_h=10.0)
        before = eis.usage.total
        eis.region_snapshot(Point(5.1, 5.1), 6.0, eta_h=11.05, now_h=10.0)
        assert eis.usage.total == before  # served from cache
        assert eis.upstream_calls_saved() >= 1

    def test_distinct_regions_hit_upstream(self, eis):
        eis.region_snapshot(Point(2, 2), 4.0, eta_h=11.0, now_h=10.0)
        before = eis.usage.total
        eis.region_snapshot(Point(12, 9), 4.0, eta_h=11.0, now_h=10.0)
        assert eis.usage.total > before

    def test_requests_counted(self, eis):
        eis.region_snapshot(Point(2, 2), 4.0, 11.0, 10.0)
        eis.region_snapshot(Point(2, 2), 4.0, 11.0, 10.0)
        assert eis.requests_served == 2

    def test_traffic_model_cached_per_slot(self, eis):
        a = eis.traffic_model(10.0)
        before = eis.usage.traffic_calls
        b = eis.traffic_model(10.1)  # same quarter-hour slot
        assert b is a and eis.usage.traffic_calls == before

    def test_rank_trip_keeps_one_ranker_per_config(self, eis, sample_trip):
        # These configs agree on (k, R, Q, weights, segment) and differ in
        # the cache TTL: one shorter than a segment's drive forbids every
        # adaptation, which a shared ranker would not.
        config = EcoChargeConfig(k=3, segment_km=1.0)
        assert eis.rank_trip(sample_trip, config).adapted_count > 0
        expiring = EcoChargeConfig(k=3, segment_km=1.0, cache_ttl_h=1e-6)
        assert eis.rank_trip(sample_trip, expiring).adapted_count == 0
        assert eis.rank_trip(sample_trip, config).adapted_count > 0

    def test_api_usage_counter(self):
        usage = ApiUsage()
        usage.weather_calls += 2
        usage.busy_calls += 3
        assert usage.total == 5


class TestClient:
    def test_plan_trip_accounts_sessions(self, small_environment, sample_trip):
        eis = EcoChargeInformationServer(small_environment)
        client = EcoChargeClient(
            eis, EcoChargeConfig(k=3, radius_km=10.0, range_km=5.0)
        )
        run = client.plan_trip(sample_trip)
        stats = client.stats
        assert stats.tables_generated + stats.tables_adapted == len(run.tables)
        assert stats.snapshots_fetched == stats.tables_generated
        assert stats.payload_kb > 0

    def test_cache_benefit_positive(self, small_environment, sample_trip):
        eis = EcoChargeInformationServer(small_environment)
        client = EcoChargeClient(
            eis, EcoChargeConfig(k=3, radius_km=10.0, range_km=6.0)
        )
        client.plan_trip(sample_trip)
        assert client.stats.cache_benefit > 0.0

    def test_new_trip_resets_stats(self, small_environment, sample_trip):
        eis = EcoChargeInformationServer(small_environment)
        client = EcoChargeClient(eis, EcoChargeConfig(k=3, radius_km=10.0))
        client.plan_trip(sample_trip)
        first = client.stats.snapshots_fetched
        client.plan_trip(sample_trip)
        assert client.stats.snapshots_fetched == first  # not accumulated


class TestModes:
    def test_all_modes_report(self, small_environment, sample_trip):
        reports = compare_modes(
            small_environment, sample_trip, EcoChargeConfig(k=3, radius_km=10.0)
        )
        assert set(reports) == set(DeploymentMode)
        for report in reports.values():
            assert report.segments == len(sample_trip.segments())
            assert report.total_ms > 0

    def test_server_mode_fastest_compute(self, small_environment, sample_trip):
        config = EcoChargeConfig(k=3, radius_km=10.0)
        server = simulate_mode(small_environment, sample_trip, DeploymentMode.SERVER, config)
        edge = simulate_mode(small_environment, sample_trip, DeploymentMode.EDGE, config)
        # Phone-class compute is slower than datacenter compute.
        assert edge.compute_ms > server.compute_ms

    def test_custom_latency_model(self, small_environment, sample_trip):
        config = EcoChargeConfig(k=3, radius_km=10.0)
        offline = LatencyModel(round_trip_ms=0.0, per_kb_ms=0.0, compute_factor=1.0)
        report = simulate_mode(
            small_environment, sample_trip, DeploymentMode.EMBEDDED, config, offline
        )
        assert report.network_ms == 0.0

    def test_per_segment_ms(self, small_environment, sample_trip):
        report = simulate_mode(
            small_environment, sample_trip, DeploymentMode.SERVER,
            EcoChargeConfig(k=3, radius_km=10.0),
        )
        assert report.per_segment_ms == pytest.approx(report.total_ms / report.segments)

    def test_latency_models_defined_for_all_modes(self):
        assert set(LATENCY_MODELS) == set(DeploymentMode)
