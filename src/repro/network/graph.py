"""Directed weighted road network ``G = (V, E)``.

Mirrors the paper's system model (Section II-A): nodes carry spatial
coordinates, each edge ``(u, v)`` carries a weight representing the cost to
travel from ``u`` to ``v`` — length, time, energy or CO2, selectable at
query time through :class:`EdgeWeight`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..spatial.bbox import BoundingBox
from ..spatial.geometry import Point

#: Default drivetrain efficiency used to turn km into kWh.  0.18 kWh/km is a
#: typical compact-EV consumption figure; the CO2 variant applies the EU
#: grid-average intensity so the two weights stay proportional, as the paper
#: notes ("the minimization of D ... consequently the reduction of CO2").
DEFAULT_KWH_PER_KM = 0.18
DEFAULT_CO2_KG_PER_KWH = 0.25


class EdgeWeight(enum.Enum):
    """Selectable notion of travel cost on an edge."""

    DISTANCE_KM = "distance_km"
    TRAVEL_TIME_H = "travel_time_h"
    ENERGY_KWH = "energy_kwh"
    CO2_KG = "co2_kg"


@dataclass(frozen=True, slots=True)
class RoadNode:
    """A vertex of the road network."""

    node_id: int
    point: Point

    @property
    def x(self) -> float:
        return self.point.x

    @property
    def y(self) -> float:
        return self.point.y


@dataclass(frozen=True, slots=True)
class RoadEdge:
    """A directed edge with static attributes.

    ``speed_kmh`` is the free-flow speed; time-varying congestion is applied
    on top by :mod:`repro.estimation.traffic`.
    """

    source: int
    target: int
    length_km: float
    speed_kmh: float = 50.0
    kwh_per_km: float = DEFAULT_KWH_PER_KM

    def __post_init__(self) -> None:
        # Written as range tests so NaN, which fails every comparison, is
        # rejected too: a NaN arc would read as unreachable in every search.
        if not (0 <= self.length_km < math.inf):
            raise ValueError("edge length must be finite and non-negative")
        if not (0 < self.speed_kmh < math.inf):
            raise ValueError("edge speed must be finite and positive")
        if not (0 <= self.kwh_per_km < math.inf):
            raise ValueError("energy factor must be finite and non-negative")

    def weight(self, kind: EdgeWeight) -> float:
        """Static cost of traversing this edge under ``kind``."""
        if kind is EdgeWeight.DISTANCE_KM:
            return self.length_km
        if kind is EdgeWeight.TRAVEL_TIME_H:
            return self.length_km / self.speed_kmh
        if kind is EdgeWeight.ENERGY_KWH:
            return self.length_km * self.kwh_per_km
        if kind is EdgeWeight.CO2_KG:
            return self.length_km * self.kwh_per_km * DEFAULT_CO2_KG_PER_KWH
        raise ValueError(f"unknown edge weight kind: {kind!r}")


class RoadNetwork:
    """In-memory directed road graph with spatial lookups."""

    def __init__(self) -> None:
        self._nodes: dict[int, RoadNode] = {}
        self._adjacency: dict[int, dict[int, RoadEdge]] = {}
        self._reverse: dict[int, dict[int, RoadEdge]] = {}
        self._edge_count = 0

    # -- construction ------------------------------------------------------

    def add_node(self, node_id: int, point: Point) -> RoadNode:
        """Create a node at ``point`` (ValueError on duplicate id or a
        non-finite coordinate, which would poison ``bounds()`` and every
        distance from the node)."""
        if not (math.isfinite(point.x) and math.isfinite(point.y)):
            raise ValueError(f"node {node_id} has a non-finite location {point}")
        if node_id in self._nodes:
            raise ValueError(f"node {node_id} already exists")
        node = RoadNode(node_id, point)
        self._nodes[node_id] = node
        self._adjacency[node_id] = {}
        self._reverse[node_id] = {}
        return node

    def add_edge(
        self,
        source: int,
        target: int,
        length_km: float | None = None,
        speed_kmh: float = 50.0,
        kwh_per_km: float = DEFAULT_KWH_PER_KM,
    ) -> RoadEdge:
        """Add a directed edge; length defaults to the Euclidean node gap."""
        if source not in self._nodes or target not in self._nodes:
            raise KeyError(f"both endpoints must exist before adding edge {source}->{target}")
        if target in self._adjacency[source]:
            raise ValueError(f"edge {source}->{target} already exists")
        if length_km is None:
            length_km = self._nodes[source].point.distance_to(self._nodes[target].point)
        edge = RoadEdge(source, target, length_km, speed_kmh, kwh_per_km)
        self._adjacency[source][target] = edge
        self._reverse[target][source] = edge
        self._edge_count += 1
        return edge

    def add_road(
        self,
        a: int,
        b: int,
        length_km: float | None = None,
        speed_kmh: float = 50.0,
        kwh_per_km: float = DEFAULT_KWH_PER_KM,
    ) -> tuple[RoadEdge, RoadEdge]:
        """Add a bidirectional road as two directed edges."""
        return (
            self.add_edge(a, b, length_km, speed_kmh, kwh_per_km),
            self.add_edge(b, a, length_km, speed_kmh, kwh_per_km),
        )

    # -- accessors ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def node(self, node_id: int) -> RoadNode:
        """The node with ``node_id`` (KeyError if absent)."""
        return self._nodes[node_id]

    def has_node(self, node_id: int) -> bool:
        """True when ``node_id`` exists."""
        return node_id in self._nodes

    def edge(self, source: int, target: int) -> RoadEdge:
        """The directed edge ``source -> target`` (KeyError if absent)."""
        return self._adjacency[source][target]

    def has_edge(self, source: int, target: int) -> bool:
        """True when the directed edge ``source -> target`` exists."""
        return source in self._adjacency and target in self._adjacency[source]

    def nodes(self) -> Iterator[RoadNode]:
        """Iterate over all nodes."""
        yield from self._nodes.values()

    def node_ids(self) -> Iterator[int]:
        """Iterate over all node ids."""
        yield from self._nodes.keys()

    def edges(self) -> Iterator[RoadEdge]:
        """Iterate over all directed edges."""
        for neighbours in self._adjacency.values():
            yield from neighbours.values()

    def out_edges(self, node_id: int) -> Iterator[RoadEdge]:
        """Edges leaving ``node_id``."""
        yield from self._adjacency[node_id].values()

    def in_edges(self, node_id: int) -> Iterator[RoadEdge]:
        """Edges entering ``node_id``."""
        yield from self._reverse[node_id].values()

    def neighbours(self, node_id: int) -> Iterator[int]:
        """Ids of nodes directly reachable from ``node_id``."""
        yield from self._adjacency[node_id].keys()

    def degree(self, node_id: int) -> int:
        """Out-degree of ``node_id``."""
        return len(self._adjacency[node_id])

    def bounds(self) -> BoundingBox:
        """Bounding box of all node coordinates."""
        return BoundingBox.from_points(node.point for node in self._nodes.values())

    # -- spatial helpers ---------------------------------------------------

    def nearest_node(self, point: Point) -> RoadNode:
        """Closest node by Euclidean distance (linear scan; callers that
        need repeated snapping should build an index via ``node_index``)."""
        if not self._nodes:
            raise ValueError("network has no nodes")
        return min(self._nodes.values(), key=lambda node: node.point.squared_distance_to(point))

    def node_index(self):
        """A :class:`~repro.spatial.kdtree.KDTree` over all nodes, for
        efficient repeated snapping of GPS points to the network."""
        from ..spatial.kdtree import KDTree

        return KDTree([(node.point, node.node_id) for node in self._nodes.values()])

    # -- integrity ---------------------------------------------------------

    def is_strongly_connected(self) -> bool:
        """True when every node can reach every other node."""
        if not self._nodes:
            return True
        start = next(iter(self._nodes))
        return (
            len(self._reachable(start, self._adjacency)) == len(self._nodes)
            and len(self._reachable(start, self._reverse)) == len(self._nodes)
        )

    @staticmethod
    def _reachable(start: int, adjacency: dict[int, dict[int, RoadEdge]]) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbour in adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return seen

    def largest_strongly_connected_component(self) -> set[int]:
        """Node ids of the largest SCC (Tarjan's algorithm, iterative)."""
        index_counter = 0
        indices: dict[int, int] = {}
        lowlink: dict[int, int] = {}
        on_stack: set[int] = set()
        stack: list[int] = []
        best: set[int] = set()

        for root in self._nodes:
            if root in indices:
                continue
            # Iterative Tarjan: work items are (node, iterator over children).
            work = [(root, iter(self._adjacency[root]))]
            indices[root] = lowlink[root] = index_counter
            index_counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, children = work[-1]
                advanced = False
                for child in children:
                    if child not in indices:
                        indices[child] = lowlink[child] = index_counter
                        index_counter += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(self._adjacency[child])))
                        advanced = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], indices[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == indices[node]:
                    component: set[int] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    if len(component) > len(best):
                        best = component
        return best

    def subgraph(self, node_ids: set[int]) -> "RoadNetwork":
        """Copy containing only ``node_ids`` and the edges between them."""
        sub = RoadNetwork()
        for node_id in node_ids:
            sub.add_node(node_id, self._nodes[node_id].point)
        for node_id in node_ids:
            for target, edge in self._adjacency[node_id].items():
                if target in node_ids:
                    sub.add_edge(node_id, target, edge.length_km, edge.speed_kmh, edge.kwh_per_km)
        return sub
