"""Uniform grid index.

The CkNN literature the paper builds on (Xiong et al., Mouratidis et al.,
Yu et al. — Section VI-B) indexes moving objects with an in-memory regular
grid and answers kNN by iteratively deepening a range search around the
query cell.  This module provides that substrate; EcoCharge uses it for
charger candidate generation when a quadtree is not requested.
"""

from __future__ import annotations

import math
from typing import Generic, Iterator, TypeVar

from .bbox import BoundingBox
from .geometry import Point

T = TypeVar("T")


class GridIndex(Generic[T]):
    """Fixed-resolution uniform grid over a bounding box."""

    def __init__(self, bounds: BoundingBox, cell_size_km: float) -> None:
        if cell_size_km <= 0:
            raise ValueError("cell_size_km must be positive")
        self.bounds = bounds
        self.cell_size = cell_size_km
        self.cols = max(1, math.ceil(bounds.width / cell_size_km))
        self.rows = max(1, math.ceil(bounds.height / cell_size_km))
        self._cells: dict[tuple[int, int], list[tuple[Point, T]]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[tuple[Point, T]]:
        for cell in self._cells.values():
            yield from cell

    def _cell_of(self, point: Point) -> tuple[int, int]:
        col = int((point.x - self.bounds.min_x) / self.cell_size)
        row = int((point.y - self.bounds.min_y) / self.cell_size)
        return (min(max(col, 0), self.cols - 1), min(max(row, 0), self.rows - 1))

    def insert(self, point: Point, item: T) -> None:
        """Insert ``item`` at ``point`` (ValueError outside bounds)."""
        if not self.bounds.contains(point):
            raise ValueError(f"point {point} outside index bounds {self.bounds}")
        self._cells.setdefault(self._cell_of(point), []).append((point, item))
        self._size += 1

    def remove(self, point: Point, item: T) -> bool:
        """Remove one matching entry; True when something was removed."""
        cell = self._cells.get(self._cell_of(point))
        if not cell:
            return False
        for i, (p, stored) in enumerate(cell):
            if p == point and stored == item:
                cell.pop(i)
                self._size -= 1
                return True
        return False

    def query_radius(self, center: Point, radius: float) -> list[tuple[Point, T]]:
        """All entries within ``radius`` of ``center``."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        col_lo = int((center.x - radius - self.bounds.min_x) / self.cell_size)
        col_hi = int((center.x + radius - self.bounds.min_x) / self.cell_size)
        row_lo = int((center.y - radius - self.bounds.min_y) / self.cell_size)
        row_hi = int((center.y + radius - self.bounds.min_y) / self.cell_size)
        r2 = radius * radius
        results: list[tuple[Point, T]] = []
        for col in range(max(0, col_lo), min(self.cols - 1, col_hi) + 1):
            for row in range(max(0, row_lo), min(self.rows - 1, row_hi) + 1):
                for point, item in self._cells.get((col, row), ()):
                    if point.squared_distance_to(center) <= r2:
                        results.append((point, item))
        return results

    def query_range(self, box: BoundingBox) -> list[tuple[Point, T]]:
        """All entries whose point lies inside ``box``."""
        col_lo = int((box.min_x - self.bounds.min_x) / self.cell_size)
        col_hi = int((box.max_x - self.bounds.min_x) / self.cell_size)
        row_lo = int((box.min_y - self.bounds.min_y) / self.cell_size)
        row_hi = int((box.max_y - self.bounds.min_y) / self.cell_size)
        results: list[tuple[Point, T]] = []
        for col in range(max(0, col_lo), min(self.cols - 1, col_hi) + 1):
            for row in range(max(0, row_lo), min(self.rows - 1, row_hi) + 1):
                for point, item in self._cells.get((col, row), ()):
                    if box.contains(point):
                        results.append((point, item))
        return results

    def nearest(self, center: Point, k: int = 1) -> list[tuple[float, Point, T]]:
        """kNN by iterative range deepening.

        Expands the search radius ring by ring (the stateless strategy of
        the grid-based CkNN monitoring papers) until ``k`` hits are
        confirmed or the radius passes the farthest corner of the bounds:
        every entry lies inside them, so the last ring holds them all,
        also for a query outside the box.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        if self._size == 0:
            return []
        b = self.bounds
        radius = self.cell_size
        max_radius = math.hypot(
            max(center.x - b.min_x, b.max_x - center.x),
            max(center.y - b.min_y, b.max_y - center.y),
        )
        while True:
            hits = self.query_radius(center, radius)
            if len(hits) >= k or radius > max_radius:
                hits.sort(key=lambda pair: pair[0].squared_distance_to(center))
                return [
                    (point.distance_to(center), point, item) for point, item in hits[:k]
                ]
            radius *= 2.0

    def occupied_cells(self) -> int:
        """Number of grid cells currently holding entries."""
        return sum(1 for cell in self._cells.values() if cell)
