"""Spatial index tests: quadtree and k-d tree against brute force.

The central invariant: every index answers kNN and radius queries
exactly like the exhaustive reference on the same data.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.bbox import BoundingBox
from repro.spatial.geometry import Point
from repro.spatial.kdtree import KDTree
from repro.spatial.knn import brute_force_knn, brute_force_radius
from repro.spatial.quadtree import QuadTree, QuadTreeStats

BOUNDS = BoundingBox(0.0, 0.0, 100.0, 100.0)


def _random_entries(n: int, seed: int) -> list[tuple[Point, int]]:
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 100.0, size=n)
    ys = rng.uniform(0.0, 100.0, size=n)
    return [(Point(float(x), float(y)), i) for i, (x, y) in enumerate(zip(xs, ys))]


def _build_quadtree(entries):
    tree: QuadTree[int] = QuadTree(BOUNDS, capacity=4)
    for point, item in entries:
        tree.insert(point, item)
    return tree


INDEX_BUILDERS = {
    "quadtree": _build_quadtree,
    "kdtree": lambda entries: KDTree(entries),
}


@pytest.fixture(scope="module")
def entries():
    return _random_entries(300, seed=1)


@pytest.mark.parametrize("kind", sorted(INDEX_BUILDERS))
class TestAgainstBruteForce:
    def test_knn_matches_reference(self, entries, kind):
        index = INDEX_BUILDERS[kind](entries)
        rng = np.random.default_rng(2)
        # Queries inside the indexed box, then from a span that mostly
        # lies outside it (a trip point beyond the chargers' bounds).
        for lo, hi in ((0.0, 100.0), (-300.0, 400.0)):
            for __ in range(25):
                q = Point(float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)))
                k = int(rng.integers(1, 12))
                got = index.nearest(q, k)
                want = brute_force_knn(entries, q, k)
                assert [item for __, __, item in got] == [item for __, __, item in want]

    def test_knn_distances_sorted(self, entries, kind):
        index = INDEX_BUILDERS[kind](entries)
        result = index.nearest(Point(50, 50), 10)
        distances = [d for d, __, __ in result]
        assert distances == sorted(distances)

    def test_radius_matches_reference(self, entries, kind):
        index = INDEX_BUILDERS[kind](entries)
        rng = np.random.default_rng(3)
        for __ in range(25):
            q = Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            r = float(rng.uniform(0.5, 30.0))
            got = {item for __, item in index.query_radius(q, r)}
            want = {item for __, item in brute_force_radius(entries, q, r)}
            assert got == want

    def test_knn_k_larger_than_size(self, kind):
        small = _random_entries(5, seed=9)
        index = INDEX_BUILDERS[kind](small)
        assert len(index.nearest(Point(0, 0), 50)) == 5

    def test_zero_radius_hits_only_colocated(self, entries, kind):
        index = INDEX_BUILDERS[kind](entries)
        point = entries[0][0]
        hits = index.query_radius(point, 0.0)
        assert (point, entries[0][1]) in hits


class TestQuadTreeSpecifics:
    def test_len_and_iter(self, entries):
        tree = _build_quadtree(entries)
        assert len(tree) == len(entries)
        assert sorted(item for __, item in tree) == sorted(i for __, i in entries)

    def test_insert_out_of_bounds_raises(self):
        tree: QuadTree[int] = QuadTree(BOUNDS)
        with pytest.raises(ValueError):
            tree.insert(Point(101, 0), 0)

    def test_remove_existing(self, entries):
        tree = _build_quadtree(entries)
        point, item = entries[10]
        assert tree.remove(point, item)
        assert len(tree) == len(entries) - 1
        assert item not in {i for __, i in tree.query_radius(point, 0.01)}

    def test_remove_missing_returns_false(self):
        tree: QuadTree[int] = QuadTree(BOUNDS)
        tree.insert(Point(1, 1), 0)
        assert not tree.remove(Point(2, 2), 99)

    def test_colocated_points_respect_max_depth(self):
        tree: QuadTree[int] = QuadTree(BOUNDS, capacity=2, max_depth=5)
        for i in range(50):
            tree.insert(Point(10.0, 10.0), i)
        assert len(tree) == 50
        assert tree.depth() <= 5
        assert len(tree.query_radius(Point(10, 10), 0.1)) == 50

    def test_split_creates_children(self):
        tree: QuadTree[int] = QuadTree(BOUNDS, capacity=2)
        pts = [Point(10, 10), Point(90, 90), Point(10, 90), Point(90, 10)]
        for i, p in enumerate(pts):
            tree.insert(p, i)
        assert tree.node_count() > 1

    def test_stats(self, entries):
        tree = _build_quadtree(entries)
        stats = QuadTreeStats.of(tree)
        assert stats.size == len(entries)
        assert stats.nodes == tree.node_count()
        assert stats.capacity == 4

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            QuadTree(BOUNDS, capacity=0)
        with pytest.raises(ValueError):
            QuadTree(BOUNDS, max_depth=0)
        tree: QuadTree[int] = QuadTree(BOUNDS)
        with pytest.raises(ValueError):
            tree.nearest(Point(0, 0), k=0)
        with pytest.raises(ValueError):
            tree.query_radius(Point(0, 0), -1.0)


class TestKDTreeSpecifics:
    def test_empty_tree(self):
        tree: KDTree[int] = KDTree([])
        assert len(tree) == 0
        assert tree.nearest(Point(0, 0), 3) == []
        assert tree.query_radius(Point(0, 0), 10.0) == []

    def test_single_entry(self):
        tree = KDTree([(Point(5, 5), "only")])
        assert tree.nearest(Point(0, 0), 1)[0][2] == "only"

    def test_duplicate_points(self):
        tree = KDTree([(Point(1, 1), i) for i in range(4)])
        assert len(tree.nearest(Point(1, 1), 4)) == 4


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ),
        min_size=1,
        max_size=60,
    ),
    st.integers(min_value=1, max_value=8),
    st.tuples(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    ),
)
def test_property_all_indexes_agree(raw_points, k, raw_query):
    """For arbitrary point sets, both indexes return the same kNN
    distances as brute force (items may differ under exact distance ties,
    so the invariant is on the distance multiset)."""
    entries = [(Point(x, y), i) for i, (x, y) in enumerate(raw_points)]
    query = Point(*raw_query)
    want = [round(d, 9) for d, __, __ in brute_force_knn(entries, query, k)]
    for build in INDEX_BUILDERS.values():
        got = [round(d, 9) for d, __, __ in build(entries).nearest(query, k)]
        assert got == want
