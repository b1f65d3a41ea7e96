"""Exhaustive kNN and radius search.

These are the references the two spatial indexes are tested against:
:class:`~repro.spatial.quadtree.QuadTree`, the charger registry's index
behind Algorithm 1's Filtering step, and
:class:`~repro.spatial.kdtree.KDTree`, which snaps points and GPS fixes
onto road-network nodes.
"""

from __future__ import annotations

import heapq
from typing import Iterable, TypeVar

from .geometry import Point

T = TypeVar("T")


def brute_force_knn(
    entries: Iterable[tuple[Point, T]], center: Point, k: int = 1
) -> list[tuple[float, Point, T]]:
    """Exhaustive kNN over arbitrary (point, item) pairs.

    The reference implementation every index is validated against in the
    test suite.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    heap: list[tuple[float, int, Point, T]] = []
    for order, (point, item) in enumerate(entries):
        dist = point.distance_to(center)
        if len(heap) < k:
            heapq.heappush(heap, (-dist, order, point, item))
        elif dist < -heap[0][0]:
            heapq.heapreplace(heap, (-dist, order, point, item))
    return sorted(((-d, p, i) for d, __, p, i in heap), key=lambda t: t[0])


def brute_force_radius(
    entries: Iterable[tuple[Point, T]], center: Point, radius: float
) -> list[tuple[Point, T]]:
    """Exhaustive radius search; reference for index validation."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    r2 = radius * radius
    return [
        (point, item)
        for point, item in entries
        if point.squared_distance_to(center) <= r2
    ]
