"""A candidate pool as rows of the registry's charger column store.

The radius filter is one vectorised mask over the store's coordinates.
These tests hold it to the quadtree oracle, ``query_radius`` plus the
``squared_distance_to`` sort (exact ties keep the quadtree's pre-order),
and hold each estimator to the same bits whether it reads a registry
pool or the same chargers as a plain list.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chargers.charger import Charger
from repro.chargers.plugshare import generate_catalog
from repro.chargers.pool import ChargerColumns, ChargerPool
from repro.chargers.registry import ChargerRegistry
from repro.estimation.availability import (
    HOUR_COLUMNS,
    HOURS_PER_WEEK,
    AvailabilityEstimator,
)
from repro.network.builders import build_city_network
from repro.spatial.bbox import BoundingBox
from repro.spatial.geometry import Point
from repro.trajectories.datasets import PROFILES


def hexes(values) -> list[str]:
    """``float.hex`` per value: exact, and tells -0.0 from 0.0."""
    return [float(v).hex() for v in values]


def oracle(registry: ChargerRegistry, center: Point, radius: float) -> list[Charger]:
    """The quadtree's radius query, nearest first, ties in pre-order."""
    hits = registry.index().query_radius(center, radius)
    hits.sort(key=lambda pair: pair[0].squared_distance_to(center))
    return [charger for __, charger in hits]


def assert_same_pool(pool: ChargerPool, expected: list[Charger]) -> None:
    assert [id(c) for c in pool] == [id(c) for c in expected]
    assert pool.charger_ids.tolist() == [c.charger_id for c in expected]
    assert pool.node_ids.tolist() == [c.node_id for c in expected]


class TestWithinRadius:
    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_matches_quadtree_on_profile_catalogs(self, name):
        profile = PROFILES[name]
        registry = generate_catalog(build_city_network(profile.network), profile.catalog)
        rng = np.random.default_rng(31)
        bounds = registry.bounds
        chargers = registry.all()
        centers = [
            Point(float(x), float(y))
            for x, y in zip(
                rng.uniform(bounds.min_x, bounds.max_x, 12),
                rng.uniform(bounds.min_y, bounds.max_y, 12),
            )
        ]
        # A charger's own site: distance 0, and ties with its neighbours.
        centers += [chargers[i].point for i in rng.integers(0, len(chargers), 4)]
        for center in centers:
            for radius in (0.0, 0.7, 3.0, 12.0, 50.0):
                assert_same_pool(
                    registry.within_radius(center, radius), oracle(registry, center, radius)
                )

    @settings(max_examples=150, deadline=None)
    @given(
        sites=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=60
        ),
        center=st.tuples(st.integers(-2, 14), st.integers(-2, 14)),
        radius=st.one_of(st.integers(0, 18).map(float), st.just(-1.0)),
    )
    def test_matches_quadtree_on_generated_catalogs(self, sites, center, radius):
        """Integer sites pile up (co-located chargers), and an integer
        radius puts sites exactly at distance ``R`` (3-4-5 offsets and
        axis offsets); a radius of -1 stands for "exactly the distance
        to the first site"."""
        chargers = [
            Charger(charger_id=i, point=Point(float(x), float(y)), node_id=i, rate_kw=22.0)
            for i, (x, y) in enumerate(sites)
        ]
        registry = ChargerRegistry(chargers, BoundingBox(-1.0, -1.0, 13.0, 13.0))
        probe = Point(float(center[0]), float(center[1]))
        if radius < 0:
            radius = probe.distance_to(chargers[0].point)
        assert_same_pool(registry.within_radius(probe, radius), oracle(registry, probe, radius))

    def test_matches_quadtree_after_add_and_remove(self, small_network):
        registry = generate_catalog(small_network, PROFILES["oldenburg"].catalog)
        anchor = registry.all()[7]
        probe = Point(anchor.point.x + 0.3, anchor.point.y - 0.4)
        before = registry.columns()
        assert_same_pool(registry.within_radius(probe, 5.0), oracle(registry, probe, 5.0))

        twin = Charger(charger_id=10_000, point=anchor.point, node_id=anchor.node_id, rate_kw=50.0)
        registry.add(twin)
        assert registry.columns() is not before
        pool = registry.within_radius(probe, 5.0)
        assert twin in list(pool)
        assert_same_pool(pool, oracle(registry, probe, 5.0))

        registry.remove(anchor.charger_id)
        pool = registry.within_radius(probe, 5.0)
        assert anchor not in list(pool) and twin in list(pool)
        assert_same_pool(pool, oracle(registry, probe, 5.0))
        assert len(registry.columns()) == len(registry)

    def test_negative_radius_rejected(self, small_registry):
        with pytest.raises(ValueError):
            small_registry.within_radius(Point(0.0, 0.0), -0.5)


class TestChargerPool:
    def test_is_a_read_only_charger_sequence(self, small_registry):
        pool = small_registry.within_radius(Point(8.0, 6.0), 4.0)
        chargers = list(pool)
        assert len(pool) == len(chargers) > 2
        assert pool[0] is chargers[0] and pool[-1] is chargers[-1]
        assert list(pool[1:3]) == chargers[1:3]
        assert list(pool.take([2, 0])) == [chargers[2], chargers[0]]
        assert pool.rate_kw.tolist() == [c.rate_kw for c in chargers]
        assert pool.solar_capacity_kw.tolist() == [c.solar_capacity_kw for c in chargers]
        assert pool.plugs.tolist() == [c.plugs for c in chargers]
        with pytest.raises(ValueError):
            pool.rows[0] = 0
        with pytest.raises(ValueError):
            pool.columns.x[0] = 0.0

    def test_of_keeps_a_pool_and_converts_a_sequence(self, small_registry):
        pool = small_registry.within_radius(Point(8.0, 6.0), 4.0)
        assert ChargerPool.of(pool) is pool
        plain = ChargerPool.of(list(pool))
        assert plain.columns is not pool.columns
        assert list(plain) == list(pool)
        assert plain.rows.tolist() == list(range(len(pool)))
        assert len(ChargerPool.of([])) == 0

    def test_store_rows_follow_quadtree_pre_order(self, small_registry):
        columns = small_registry.columns()
        assert isinstance(columns, ChargerColumns)
        assert [id(c) for c in columns.chargers] == [
            id(item) for __, item in small_registry.index()
        ]


# ---------------------------------------------------------------------------
# Estimators: a registry pool and the same chargers as a list, bit for bit
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pools(small_registry):
    """Registry pools, a registry pool reordered, and a one-row pool."""
    near = small_registry.within_radius(Point(8.0, 6.0), 6.0)
    wide = small_registry.within_radius(Point(3.0, 9.0), 40.0)
    return {
        "near": near,
        "wide": wide,
        "reordered": wide.take(np.arange(len(wide))[::-3]),
        "one": near[:1],
    }


class TestEstimatorsReadPoolsAndLists:
    @pytest.mark.parametrize("name", ["near", "wide", "reordered", "one"])
    @pytest.mark.parametrize("eta_h, now_h", [(12.25, 10.0), (26.0, 25.0), (13.0, 13.0)])
    def test_sustainable(self, small_environment, pools, name, eta_h, now_h):
        estimator = small_environment.sustainable
        pool = pools[name]
        got = estimator.batch_estimate(pool, eta_h, now_h)
        want = estimator.batch_estimate(list(pool), eta_h, now_h)
        assert hexes(got.lo) == hexes(want.lo) and hexes(got.hi) == hexes(want.hi)

    @pytest.mark.parametrize("name", ["near", "wide", "reordered", "one"])
    @pytest.mark.parametrize("eta_h, now_h", [(12.25, 10.0), (167.5, 160.0), (168.2, 168.2)])
    def test_availability(self, small_environment, pools, name, eta_h, now_h):
        estimator = small_environment.availability
        pool = pools[name]
        got = estimator.batch_estimate(pool, eta_h, now_h)
        want = estimator.batch_estimate(list(pool), eta_h, now_h)
        assert hexes(got.lo) == hexes(want.lo) and hexes(got.hi) == hexes(want.hi)

    @pytest.mark.parametrize("name", ["near", "wide", "reordered", "one"])
    def test_derouting(self, small_environment, sample_trip, pools, name):
        estimator = small_environment.derouting
        first, second = sample_trip.segments()[:2]
        pool = pools[name]
        got = estimator.batch_estimate(first, pool, 10.4, 10.0, second, search_budget_h=0.5)
        want = estimator.batch_estimate(first, list(pool), 10.4, 10.0, second, search_budget_h=0.5)
        assert got.charger_ids.tolist() == want.charger_ids.tolist()
        for a, b in ((got.hours, want.hours), (got.normalised, want.normalised)):
            assert hexes(a.lo) == hexes(b.lo) and hexes(a.hi) == hexes(b.hi)


class TestHourColumns:
    @pytest.mark.parametrize("time_h", [0.0, 9.99, 166.2, 167.0, 167.99, 168.0, 168.5, 335.5])
    def test_column_equals_per_charger_power(self, small_environment, small_registry, time_h):
        """The hour's column gathered by row is ``1 - busy ** plugs`` per
        charger, across the wrap from hour 167 to hour 0."""
        estimator = small_environment.availability
        pool = small_registry.within_radius(Point(8.0, 6.0), 40.0)
        hour = int(time_h) % HOURS_PER_WEEK
        expected = [
            1.0 - estimator.timetable(c.charger_id).busyness[hour] ** c.plugs for c in pool
        ]
        exact = estimator.batch_estimate(pool, time_h, time_h)
        assert hexes(exact.lo) == hexes(expected) == hexes(exact.hi)
        assert hexes(estimator.true_availability(c, time_h) for c in pool) == hexes(expected)

    def test_wrap_reads_the_same_column(self, small_environment, small_registry):
        estimator = small_environment.availability
        pool = small_registry.within_radius(Point(8.0, 6.0), 40.0)
        for a, b in ((167.5, 335.5), (0.5, 168.5)):
            assert hexes(estimator.batch_estimate(pool, a, a).lo) == hexes(
                estimator.batch_estimate(pool, b, b).lo
            )

    def test_columns_are_bounded(self, small_registry):
        estimator = AvailabilityEstimator(small_registry, seed=2)
        pool = small_registry.within_radius(Point(8.0, 6.0), 40.0)
        for hour in range(HOURS_PER_WEEK + 5):
            estimator.batch_estimate(pool, hour + 0.5, hour + 0.5)
        assert len(estimator._hours) == HOUR_COLUMNS

    def test_site_added_after_the_estimator_is_priced(self, small_network):
        registry = generate_catalog(small_network, PROFILES["oldenburg"].catalog)
        stale = AvailabilityEstimator(registry, seed=3)
        anchor = registry.all()[0]
        registry.add(
            Charger(charger_id=10_000, point=anchor.point, node_id=anchor.node_id, rate_kw=22.0, plugs=3)
        )
        pool = registry.within_radius(anchor.point, 2.0)
        assert 10_000 in pool.charger_ids.tolist()
        fresh = AvailabilityEstimator(registry, seed=3)
        for time_h in (9.5, 17.25):
            assert hexes(stale.batch_estimate(pool, time_h, time_h).lo) == hexes(
                fresh.batch_estimate(pool, time_h, time_h).lo
            )


def test_concurrent_first_use_agrees(small_network):
    """Threads racing to build a fresh registry's store and to fill and
    evict an estimator's hour columns all get the single-threaded
    answer."""
    registry = generate_catalog(small_network, PROFILES["oldenburg"].catalog)
    estimator = AvailabilityEstimator(registry, seed=5)
    probe = Point(8.0, 6.0)
    reference = ChargerRegistry(registry.all(), registry.bounds)
    reference_pool = reference.within_radius(probe, 30.0)
    reference_estimator = AvailabilityEstimator(reference, seed=5)
    times = [hour + 0.5 for hour in range(0, HOURS_PER_WEEK, 5)]  # more hours than columns
    expected = {t: hexes(reference_estimator.batch_estimate(reference_pool, t, t).lo) for t in times}
    mismatches: list[float] = []
    done: list[int] = []
    lock = threading.Lock()

    def work(offset: int) -> None:
        for t in times[offset:] + times[:offset]:
            pool = registry.within_radius(probe, 30.0)
            ok = pool.charger_ids.tolist() == reference_pool.charger_ids.tolist()
            ok = ok and hexes(estimator.batch_estimate(pool, t, t).lo) == expected[t]
            with lock:
                if not ok:
                    mismatches.append(t)
                done.append(offset)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert len(done) == 6 * len(times)
    assert mismatches == []
