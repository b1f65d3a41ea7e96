"""Index ablation — quadtree node capacity and index-structure choice.

DESIGN.md calls out the quadtree leaf capacity as a tunable: small leaves
mean deeper trees (more pointer chasing per query), large leaves mean more
linear scanning per leaf.  The second sweep compares the quadtree the
charger registry uses with the k-d tree the road network uses, on the
registry's actual query mix (radius search dominates EcoCharge's filtering
phase).
"""

from __future__ import annotations

import numpy as np
import pytest

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


def _build_quadtree(entries):
    tree: QuadTree[int] = QuadTree(BOUNDS, capacity=8)
    for point, item in entries:
        tree.insert(point, item)
    return tree


STRUCTURES = {
    "quadtree": _build_quadtree,
    "kdtree": KDTree,
}


@pytest.mark.parametrize("structure", sorted(STRUCTURES))
def test_index_structure_radius_queries(benchmark, structure):
    entries = _entries()
    queries = _queries()
    index = STRUCTURES[structure](entries)

    def run():
        for q in queries:
            index.query_radius(q, 10.0)

    benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["structure"] = structure
