"""Spatially indexed registry of the charger set ``B``."""

from __future__ import annotations

from typing import Iterable, Iterator

from ..spatial.bbox import BoundingBox
from ..spatial.geometry import Point
from ..spatial.quadtree import QuadTree
from .charger import Charger


class ChargerRegistry:
    """The set ``B`` of all chargers, indexed by one quadtree.

    The registry is the single source of truth the baselines differ over:
    Brute-Force scans :meth:`all`, Index-Quadtree asks the quadtree, and
    EcoCharge uses radius queries bounded by the user radius ``R``.
    """

    def __init__(self, chargers: Iterable[Charger], bounds: BoundingBox | None = None):
        self._chargers: dict[int, Charger] = {}
        for charger in chargers:
            if charger.charger_id in self._chargers:
                raise ValueError(f"duplicate charger id {charger.charger_id}")
            self._chargers[charger.charger_id] = charger
        if not self._chargers:
            raise ValueError("a registry needs at least one charger")
        if bounds is None:
            bounds = BoundingBox.from_points(
                c.point for c in self._chargers.values()
            ).expanded(1.0)
        self.bounds = bounds
        self._index: QuadTree[Charger] | None = None

    def __len__(self) -> int:
        return len(self._chargers)

    def __iter__(self) -> Iterator[Charger]:
        yield from self._chargers.values()

    def __contains__(self, charger_id: int) -> bool:
        return charger_id in self._chargers

    def get(self, charger_id: int) -> Charger:
        """The charger with ``charger_id`` (KeyError if absent)."""
        return self._chargers[charger_id]

    def all(self) -> list[Charger]:
        """Every charger — the brute-force search space."""
        return list(self._chargers.values())

    # -- mutation ------------------------------------------------------------

    def add(self, charger: Charger) -> None:
        """Register a new charger (e.g., a site coming online mid-day).

        The spatial index is invalidated and rebuilt lazily; solution
        caches held by rankers are *not* — their TTL bounds the staleness,
        mirroring how the production system learns of new sites on the
        next catalog refresh.
        """
        if charger.charger_id in self._chargers:
            raise ValueError(f"duplicate charger id {charger.charger_id}")
        if not self.bounds.contains(charger.point):
            raise ValueError(
                f"charger {charger.charger_id} at {charger.point} lies outside "
                f"the registry bounds {self.bounds}"
            )
        self._chargers[charger.charger_id] = charger
        self._index = None

    def remove(self, charger_id: int) -> Charger:
        """Deregister a charger (site offline); returns the removed entry."""
        if len(self._chargers) <= 1:
            raise ValueError("a registry must keep at least one charger")
        try:
            charger = self._chargers.pop(charger_id)
        except KeyError:
            raise KeyError(f"no charger with id {charger_id}") from None
        self._index = None
        return charger

    def index(self) -> QuadTree[Charger]:
        """The quadtree over the registry, built on first use."""
        if self._index is None:
            tree: QuadTree[Charger] = QuadTree(self.bounds)
            for charger in self._chargers.values():
                tree.insert(charger.point, charger)
            self._index = tree
        return self._index

    def within_radius(self, center: Point, radius_km: float) -> list[Charger]:
        """Chargers within ``radius_km`` of ``center``, nearest first."""
        hits = self.index().query_radius(center, radius_km)
        hits.sort(key=lambda pair: pair[0].squared_distance_to(center))
        return [charger for __, charger in hits]

    def nearest(self, center: Point, k: int = 1) -> list[Charger]:
        """The ``k`` nearest chargers to ``center``."""
        return [charger for __, __, charger in self.index().nearest(center, k)]

    def max_rate_kw(self) -> float:
        """Environment maximum charging rate, used to normalise ``L``."""
        return max(c.rate_kw for c in self._chargers.values())

    def max_solar_capacity_kw(self) -> float:
        """Largest attached solar array in the registry (kW)."""
        return max(c.solar_capacity_kw for c in self._chargers.values())
