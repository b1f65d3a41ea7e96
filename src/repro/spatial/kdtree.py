"""Static k-d tree over planar points.

A bulk-loaded balanced 2-d tree used where the point set is known up front
(the road network's nodes, for snapping points and GPS fixes onto the
graph).  The charger registry uses the incremental
:class:`~repro.spatial.quadtree.QuadTree` instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Generic, Sequence, TypeVar

from .geometry import Point

T = TypeVar("T")


@dataclass(slots=True)
class _KDNode(Generic[T]):
    point: Point
    item: T
    axis: int
    left: "_KDNode[T] | None" = None
    right: "_KDNode[T] | None" = None


class KDTree(Generic[T]):
    """Balanced k-d tree bulk-loaded by median splitting."""

    def __init__(self, entries: Sequence[tuple[Point, T]]) -> None:
        self._size = len(entries)
        self._root = self._build(list(entries), axis=0)

    def __len__(self) -> int:
        return self._size

    @classmethod
    def _build(
        cls, entries: list[tuple[Point, T]], axis: int
    ) -> "_KDNode[T] | None":
        if not entries:
            return None
        key = (lambda e: e[0].x) if axis == 0 else (lambda e: e[0].y)
        entries.sort(key=key)
        mid = len(entries) // 2
        point, item = entries[mid]
        node = _KDNode(point, item, axis)
        node.left = cls._build(entries[:mid], 1 - axis)
        node.right = cls._build(entries[mid + 1 :], 1 - axis)
        return node

    def nearest(self, center: Point, k: int = 1) -> list[tuple[float, Point, T]]:
        """kNN via branch-and-bound descent with a bounded max-heap."""
        if k < 1:
            raise ValueError("k must be at least 1")
        # Max-heap on negated distance; tiebreak by insertion order.
        best: list[tuple[float, int, Point, T]] = []
        counter = [0]

        def visit(node: _KDNode[T] | None) -> None:
            if node is None:
                return
            dist = node.point.distance_to(center)
            if len(best) < k:
                heapq.heappush(best, (-dist, counter[0], node.point, node.item))
                counter[0] += 1
            elif dist < -best[0][0]:
                heapq.heapreplace(best, (-dist, counter[0], node.point, node.item))
                counter[0] += 1
            diff = (center.x - node.point.x) if node.axis == 0 else (center.y - node.point.y)
            near, far = (node.left, node.right) if diff < 0 else (node.right, node.left)
            visit(near)
            # The far subtree can only help if the splitting plane is closer
            # than the current kth-best distance (or we still lack k hits).
            if len(best) < k or abs(diff) < -best[0][0]:
                visit(far)

        visit(self._root)
        return sorted(((-d, p, i) for d, __, p, i in best), key=lambda t: t[0])

    def query_radius(self, center: Point, radius: float) -> list[tuple[Point, T]]:
        """All entries within ``radius`` of ``center``."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        results: list[tuple[Point, T]] = []
        r2 = radius * radius

        def visit(node: _KDNode[T] | None) -> None:
            if node is None:
                return
            if node.point.squared_distance_to(center) <= r2:
                results.append((node.point, node.item))
            diff = (center.x - node.point.x) if node.axis == 0 else (center.y - node.point.y)
            if diff - radius < 0:
                visit(node.left)
            if diff + radius >= 0:
                visit(node.right)

        visit(self._root)
        return results
