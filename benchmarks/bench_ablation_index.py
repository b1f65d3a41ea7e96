"""Index ablation — quadtree node capacity and the radius filter's kind.

DESIGN.md calls out the quadtree leaf capacity as a tunable: small leaves
mean deeper trees (more pointer chasing per query), large leaves mean more
linear scanning per leaf.  The capacity sweep times the quadtree's kNN,
which ``ChargerRegistry.nearest`` and the Index-Quadtree baseline use.

The second sweep times Algorithm 1's radius filter (a pool nearest first,
ties in store order) three ways: the quadtree's ``query_radius`` plus a
sort, the k-d tree's plus the same sort, and the registry's column store
(one vectorised distance mask plus a stable ``argsort``), which is what
``ChargerRegistry.within_radius`` runs.  The catalogs are uniform at
dense-pool's size and R (800 chargers on a 42 km map, R = 50 km),
big-net-adapt's (1,000 on 70 km, R = 10 km), and 20,000 chargers at
big-net-adapt's density and R.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chargers.charger import Charger
from repro.chargers.registry import ChargerRegistry
from repro.spatial.bbox import BoundingBox
from repro.spatial.geometry import Point
from repro.spatial.kdtree import KDTree
from repro.spatial.quadtree import QuadTree

BOUNDS = BoundingBox(0.0, 0.0, 100.0, 100.0)
N_POINTS = 2000
N_QUERIES = 200


def _entries():
    rng = np.random.default_rng(12)
    return [
        (Point(float(x), float(y)), i)
        for i, (x, y) in enumerate(
            zip(rng.uniform(0, 100, N_POINTS), rng.uniform(0, 100, N_POINTS))
        )
    ]


def _queries():
    rng = np.random.default_rng(13)
    return [
        Point(float(x), float(y))
        for x, y in zip(rng.uniform(0, 100, N_QUERIES), rng.uniform(0, 100, N_QUERIES))
    ]


@pytest.mark.parametrize("capacity", [2, 8, 32, 128])
def test_quadtree_capacity_knn(benchmark, capacity):
    entries = _entries()
    queries = _queries()
    tree: QuadTree[int] = QuadTree(BOUNDS, capacity=capacity)
    for point, item in entries:
        tree.insert(point, item)

    def run():
        for q in queries:
            tree.nearest(q, 5)

    benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["capacity"] = capacity
    benchmark.extra_info["depth"] = tree.depth()
    benchmark.extra_info["nodes"] = tree.node_count()


#: name -> (chargers, map side in km, radius R in km)
SCENARIOS = {
    "dense-pool": (800, 42.0, 50.0),
    "big-net-adapt": (1_000, 70.0, 10.0),
    "20k": (20_000, 313.0, 10.0),
}


def _catalog(count: int, side_km: float) -> list[Charger]:
    rng = np.random.default_rng(14)
    return [
        Charger(charger_id=i, point=Point(float(x), float(y)), node_id=i, rate_kw=22.0)
        for i, (x, y) in enumerate(
            zip(rng.uniform(0, side_km, count), rng.uniform(0, side_km, count))
        )
    ]


def _sorted_hits(query):
    """A tree's radius query as the filter's pool: nearest first."""

    def run(center: Point, radius: float) -> list[Charger]:
        hits = query(center, radius)
        hits.sort(key=lambda pair: pair[0].squared_distance_to(center))
        return [charger for __, charger in hits]

    return run


def _quadtree(chargers: list[Charger], side_km: float):
    tree: QuadTree[Charger] = QuadTree(BoundingBox(0.0, 0.0, side_km, side_km), capacity=8)
    for charger in chargers:
        tree.insert(charger.point, charger)
    return _sorted_hits(tree.query_radius)


def _kdtree(chargers: list[Charger], side_km: float):
    return _sorted_hits(KDTree([(charger.point, charger) for charger in chargers]).query_radius)


def _columns(chargers: list[Charger], side_km: float):
    registry = ChargerRegistry(chargers, BoundingBox(0.0, 0.0, side_km, side_km))
    registry.columns()  # built with the index, outside the timed queries
    return registry.within_radius


KINDS = {
    "columns": _columns,
    "kdtree": _kdtree,
    "quadtree": _quadtree,
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_radius_filter(benchmark, kind, scenario):
    count, side_km, radius_km = SCENARIOS[scenario]
    chargers = _catalog(count, side_km)
    filter_pool = KINDS[kind](chargers, side_km)
    rng = np.random.default_rng(15)
    queries = [
        Point(float(x), float(y))
        for x, y in zip(rng.uniform(0, side_km, N_QUERIES), rng.uniform(0, side_km, N_QUERIES))
    ]

    def run():
        for q in queries:
            filter_pool(q, radius_km)

    benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["kind"] = kind
    benchmark.extra_info["scenario"] = scenario
    benchmark.extra_info["mean_pool"] = sum(len(filter_pool(q, radius_km)) for q in queries) / N_QUERIES
