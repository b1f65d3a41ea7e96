"""Point-region (PR) quadtree.

This is the index behind the paper's *Index-Quadtree* baseline (Section
V-A): a tree that recursively partitions 2-D space into four quadrants,
bringing charger lookup from ``O(n)`` brute force down to logarithmic
behaviour for range and kNN queries.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Generic, Iterator, TypeVar

from .bbox import BoundingBox
from .geometry import Point

T = TypeVar("T")


@dataclass(slots=True)
class _Entry(Generic[T]):
    point: Point
    item: T


class _Node(Generic[T]):
    __slots__ = ("bounds", "entries", "children", "depth")

    def __init__(self, bounds: BoundingBox, depth: int) -> None:
        self.bounds = bounds
        self.entries: list[_Entry[T]] = []
        self.children: tuple["_Node[T]", ...] | None = None
        self.depth = depth

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class QuadTree(Generic[T]):
    """PR quadtree over planar points.

    Parameters
    ----------
    bounds:
        The spatial extent indexed.  Inserting a point outside raises
        ``ValueError``.
    capacity:
        Leaf capacity before splitting (paper-style small fanout; default 8).
    max_depth:
        Hard split limit so co-located points cannot recurse forever.
    """

    def __init__(self, bounds: BoundingBox, capacity: int = 8, max_depth: int = 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.bounds = bounds
        self.capacity = capacity
        self.max_depth = max_depth
        self._root: _Node[T] = _Node(bounds, depth=0)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[tuple[Point, T]]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            for entry in node.entries:
                yield entry.point, entry.item
            if node.children is not None:
                stack.extend(node.children)

    def insert(self, point: Point, item: T) -> None:
        """Insert ``item`` at ``point``."""
        if not self.bounds.contains(point):
            raise ValueError(f"point {point} outside index bounds {self.bounds}")
        node = self._root
        while True:
            if node.is_leaf:
                node.entries.append(_Entry(point, item))
                self._size += 1
                if len(node.entries) > self.capacity and node.depth < self.max_depth:
                    self._split(node)
                return
            node = self._child_for(node, point)

    def remove(self, point: Point, item: T) -> bool:
        """Remove one entry matching ``(point, item)``.

        Returns True when an entry was removed.  Leaves are not merged back
        (the workloads here are insert-heavy; removal exists for cache
        invalidation tests).
        """
        node = self._root
        while node is not None:
            for i, entry in enumerate(node.entries):
                if entry.point == point and entry.item == item:
                    node.entries.pop(i)
                    self._size -= 1
                    return True
            if node.is_leaf:
                return False
            node = self._child_for(node, point)
        return False

    def _split(self, node: _Node[T]) -> None:
        node.children = tuple(
            _Node(quad, node.depth + 1) for quad in node.bounds.quadrants()
        )
        entries, node.entries = node.entries, []
        for entry in entries:
            self._child_for(node, entry.point).entries.append(entry)
        # Over-full children are split lazily on the next insert that lands
        # in them, keeping the split cost amortised.

    @staticmethod
    def _child_for(node: _Node[T], point: Point) -> _Node[T]:
        assert node.children is not None
        cx, cy = node.bounds.center.x, node.bounds.center.y
        if point.y >= cy:
            return node.children[1] if point.x >= cx else node.children[0]
        return node.children[3] if point.x >= cx else node.children[2]

    def query_radius(self, center: Point, radius: float) -> list[tuple[Point, T]]:
        """All entries within Euclidean ``radius`` of ``center``."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        results: list[tuple[Point, T]] = []
        stack = [self._root]
        r2 = radius * radius
        while stack:
            node = stack.pop()
            if not node.bounds.intersects_circle(center, radius):
                continue
            for entry in node.entries:
                if entry.point.squared_distance_to(center) <= r2:
                    results.append((entry.point, entry.item))
            if node.children is not None:
                stack.extend(node.children)
        return results

    def nearest(self, center: Point, k: int = 1) -> list[tuple[float, Point, T]]:
        """Best-first kNN search.

        Returns up to ``k`` ``(distance, point, item)`` triples sorted by
        ascending distance.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        counter = itertools.count()
        # Heap of (min possible distance, tiebreak, node-or-entry).
        heap: list[tuple[float, int, object]] = [
            (self._root.bounds.min_distance_to(center), next(counter), self._root)
        ]
        results: list[tuple[float, Point, T]] = []
        while heap and len(results) < k:
            dist, __, obj = heapq.heappop(heap)
            if isinstance(obj, _Node):
                for entry in obj.entries:
                    heapq.heappush(
                        heap, (entry.point.distance_to(center), next(counter), entry)
                    )
                if obj.children is not None:
                    for child in obj.children:
                        heapq.heappush(
                            heap,
                            (child.bounds.min_distance_to(center), next(counter), child),
                        )
            else:
                entry = obj  # type: ignore[assignment]
                results.append((dist, entry.point, entry.item))
        return results

    def depth(self) -> int:
        """Maximum depth of the tree (0 for a single-leaf tree)."""
        best = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            best = max(best, node.depth)
            if node.children is not None:
                stack.extend(node.children)
        return best

    def node_count(self) -> int:
        """Total number of tree nodes (leaves and branches)."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if node.children is not None:
                stack.extend(node.children)
        return count


@dataclass(slots=True)
class QuadTreeStats:
    """Summary statistics used by the index ablation bench."""

    size: int
    depth: int
    nodes: int
    capacity: int

    @classmethod
    def of(cls, tree: QuadTree) -> "QuadTreeStats":
        return cls(size=len(tree), depth=tree.depth(), nodes=tree.node_count(), capacity=tree.capacity)
