"""Shortest-path algorithms over :class:`~repro.network.graph.RoadNetwork`.

Derouting cost (Eq. 3) is a shortest-path problem: the cheapest way from
the vehicle's position to a prospective charger and back to the trip.
:func:`settle_arcs` is the flat kernel the
:class:`~repro.network.distance_engine.DistanceEngine` runs for it: it
reads each arc's cost from a vector priced once per metric, over an
``(neighbour, arc id)`` adjacency (:class:`ArcGraph` for the road network
itself, the upward graphs of :mod:`repro.network.contraction` for CH).

The other searches price every relaxed edge through a cost callable.
:func:`dijkstra` finds one path for trips, trajectories and the fleet
simulator; :func:`dijkstra_all` and :func:`dijkstra_all_backward` are
the reference oracles the engine's forward and backward searches are
tested against.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Mapping, Sequence, Union

from .graph import EdgeWeight, RoadEdge, RoadNetwork

#: Cost function signature; receives the edge being relaxed.  Time-varying
#: traffic plugs in here (see :mod:`repro.estimation.traffic`).
CostFn = Callable[[RoadEdge], float]

#: Per node, the ``(neighbour, arc id)`` pairs a search relaxes from it:
#: a list indexed by node id when the ids are dense, a dict otherwise.
ArcAdjacency = Union[
    Sequence[Sequence[tuple[int, int]]], Mapping[int, Sequence[tuple[int, int]]]
]


def dense_span(node_ids: Collection[int]) -> int:
    """Length of a flat array indexed by node id, or 0 for a dict.

    Ids pack into a flat array when they are non-negative and span at
    most about twice their count (every synthetic builder emits
    ``0..n-1``): the per-relaxation probe is then an index load, not a
    hash.
    """
    if not node_ids:
        return 0
    span = max(node_ids) + 1
    return span if span <= 2 * len(node_ids) + 1024 and min(node_ids) >= 0 else 0


def settle_arcs(
    origin: int | tuple[int, ...],
    adjacency: ArcAdjacency,
    weights: Sequence[float],
    max_cost: float = math.inf,
    span: int = 0,
    targets: Iterable[int] | None = None,
) -> dict[int, float]:
    """Truncated Dijkstra over a flat adjacency with per-arc cost ``weights``.

    The result maps every *settled* node (popped from the heap with its
    final label) to its cost.  A node is pushed only when its tentative
    cost is within ``max_cost``, so a search that runs out of heap has
    settled exactly the nodes within budget.  For non-negative costs each
    settled value is bitwise equal to :func:`dijkstra_all` under the same
    costs: a stale queue entry (``d > dist[node]``) is skipped where
    ``dijkstra_all`` skips a settled node, and the sums are the same.
    With ``span > 0`` (see :func:`dense_span`) distances live in a flat
    list indexed by node id; otherwise in a dict.  Both paths relax in
    the same order.

    With ``targets`` the heap stops as soon as every target has been
    settled, and the result holds only the nodes settled by then (an
    empty ``targets`` settles nothing).  Dijkstra settles each node once,
    with the label the unstopped search would give it, so stopping early
    changes no returned label.  A target that is unreachable or over
    budget is never settled, and the search runs to the budget as
    without ``targets``.

    A tuple ``origin`` seeds every node in it at ``0.0``: each settled
    value is then the distance from the *nearest* origin, bitwise equal
    to the minimum of the single-origin maps, because every label is the
    least left-to-right float sum over its paths and ``fl(a + w)`` is
    monotone in ``a``.
    """
    origins = tuple(dict.fromkeys(origin)) if isinstance(origin, tuple) else (origin,)
    remaining: set[int] = set() if targets is None else set(targets)
    if max_cost < 0.0 or (targets is not None and not remaining):
        return {}  # even the origins are over budget, or nothing is asked for
    inf = math.inf
    push, pop = heapq.heappush, heapq.heappop
    heap: list[tuple[float, int]] = sorted((0.0, node) for node in origins)
    settled: dict[int, float] = {}
    if span:
        dist = [inf] * span
        for node in origins:
            dist[node] = 0.0
        while heap:
            d, node = pop(heap)
            if d > dist[node]:
                continue  # stale queue entry, node already settled closer
            settled[node] = d
            if node in remaining:
                remaining.discard(node)
                if not remaining:
                    break
            for neighbour, arc_id in adjacency[node]:
                nd = d + weights[arc_id]
                if nd <= max_cost and nd < dist[neighbour]:
                    dist[neighbour] = nd
                    push(heap, (nd, neighbour))
        return settled
    best: dict[int, float] = dict.fromkeys(origins, 0.0)
    get = best.get
    while heap:
        d, node = pop(heap)
        if d > best[node]:
            continue  # stale queue entry, node already settled closer
        settled[node] = d
        if node in remaining:
            remaining.discard(node)
            if not remaining:
                break
        for neighbour, arc_id in adjacency[node]:
            nd = d + weights[arc_id]
            if nd <= max_cost and nd < get(neighbour, inf):
                best[neighbour] = nd
                push(heap, (nd, neighbour))
    return settled


@dataclass(frozen=True, slots=True)
class ArcGraph:
    """A road network's arcs, flattened once for :func:`settle_arcs`.

    ``edges[arc_id]`` is the edge behind each arc: one stable tuple, so a
    metric is priced once into a cost vector aligned with it (batch
    evaluators key their static per-arc arrays by its identity).
    ``out_arcs`` relaxes forward in ``out_edges`` order, ``in_arcs``
    backward in ``in_edges`` order, both over the same arc ids.
    ``shape`` is the ``(node_count, edge_count)`` the graph was built
    from, so a network grown afterwards is detected.
    """

    edges: tuple[RoadEdge, ...]
    out_arcs: ArcAdjacency
    in_arcs: ArcAdjacency
    span: int
    shape: tuple[int, int]

    @classmethod
    def of(cls, network: RoadNetwork) -> "ArcGraph":
        """Flatten ``network``'s adjacency into arc-id form."""
        node_ids = list(network.node_ids())
        edges: list[RoadEdge] = []
        out_arcs: dict[int, list[tuple[int, int]]] = {}
        for node in node_ids:
            row = out_arcs[node] = []
            for edge in network.out_edges(node):
                row.append((edge.target, len(edges)))
                edges.append(edge)
        arc_of = {(edge.source, edge.target): arc_id for arc_id, edge in enumerate(edges)}
        in_arcs = {
            node: [
                (edge.source, arc_of[(edge.source, edge.target)])
                for edge in network.in_edges(node)
            ]
            for node in node_ids
        }
        span = dense_span(node_ids)
        shape = (network.node_count, network.edge_count)
        if not span:
            return cls(tuple(edges), out_arcs, in_arcs, 0, shape)
        return cls(
            tuple(edges),
            [out_arcs.get(node, []) for node in range(span)],
            [in_arcs.get(node, []) for node in range(span)],
            span,
            shape,
        )


class NoPathError(Exception):
    """Raised when no path exists between the requested endpoints."""


@dataclass(frozen=True, slots=True)
class PathResult:
    """A shortest path: node sequence and its total cost."""

    nodes: tuple[int, ...]
    cost: float

    @property
    def hops(self) -> int:
        return max(0, len(self.nodes) - 1)


def _cost_fn(network: RoadNetwork, weight: EdgeWeight | CostFn) -> CostFn:
    if isinstance(weight, EdgeWeight):
        kind = weight
        return lambda edge: edge.weight(kind)
    return weight


def dijkstra(
    network: RoadNetwork,
    source: int,
    target: int,
    weight: EdgeWeight | CostFn = EdgeWeight.DISTANCE_KM,
) -> PathResult:
    """Point-to-point Dijkstra with early termination at ``target``."""
    cost_of = _cost_fn(network, weight)
    dist: dict[int, float] = {source: 0.0}
    parent: dict[int, int] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    settled: set[int] = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            return PathResult(_reconstruct(parent, source, target), d)
        for edge in network.out_edges(node):
            cost = cost_of(edge)
            if cost < 0:
                raise ValueError(f"negative edge cost on {edge.source}->{edge.target}")
            nd = d + cost
            if nd < dist.get(edge.target, math.inf):
                dist[edge.target] = nd
                parent[edge.target] = node
                heapq.heappush(heap, (nd, edge.target))
    raise NoPathError(f"no path from {source} to {target}")


def dijkstra_all(
    network: RoadNetwork,
    source: int,
    weight: EdgeWeight | CostFn = EdgeWeight.DISTANCE_KM,
    max_cost: float = math.inf,
) -> dict[int, float]:
    """Single-source shortest distances, optionally pruned at ``max_cost``.

    The reference oracle for the engine's forward search: it relaxes
    ``network.out_edges`` directly, with no arc vector or memo between
    the cost function and the result.
    """
    cost_of = _cost_fn(network, weight)
    dist: dict[int, float] = {source: 0.0}
    heap: list[tuple[float, int]] = [(0.0, source)]
    settled: set[int] = set()
    out: dict[int, float] = {}
    while heap:
        d, node = heapq.heappop(heap)
        if d > max_cost:
            break  # heap is cost-ordered: everything left is over budget
        if node in settled:
            continue
        settled.add(node)
        out[node] = d
        for edge in network.out_edges(node):
            nd = d + cost_of(edge)
            if nd <= max_cost and nd < dist.get(edge.target, math.inf):
                dist[edge.target] = nd
                heapq.heappush(heap, (nd, edge.target))
    return out


def dijkstra_all_backward(
    network: RoadNetwork,
    target: int,
    weight: EdgeWeight | CostFn = EdgeWeight.DISTANCE_KM,
    max_cost: float = math.inf,
) -> dict[int, float]:
    """Shortest distance from every node *to* ``target``.

    Runs Dijkstra over the reversed graph: the reference oracle for the
    engine's backward (``"b"``) search, which prices the return legs.
    """
    cost_of = _cost_fn(network, weight)
    dist: dict[int, float] = {target: 0.0}
    heap: list[tuple[float, int]] = [(0.0, target)]
    settled: set[int] = set()
    out: dict[int, float] = {}
    while heap:
        d, node = heapq.heappop(heap)
        if d > max_cost:
            break  # budget short-circuit: never scan the rest of the heap
        if node in settled:
            continue
        settled.add(node)
        out[node] = d
        for edge in network.in_edges(node):
            nd = d + cost_of(edge)
            if nd <= max_cost and nd < dist.get(edge.source, math.inf):
                dist[edge.source] = nd
                heapq.heappush(heap, (nd, edge.source))
    return out


def _reconstruct(parent: dict[int, int], source: int, target: int) -> tuple[int, ...]:
    nodes = [target]
    node = target
    while node != source:
        node = parent[node]
        nodes.append(node)
    nodes.reverse()
    return tuple(nodes)


def path_cost(
    network: RoadNetwork,
    nodes: Iterable[int],
    weight: EdgeWeight | CostFn = EdgeWeight.DISTANCE_KM,
) -> float:
    """Total cost of walking an explicit node sequence."""
    cost_of = _cost_fn(network, weight)
    node_list = list(nodes)
    return sum(cost_of(network.edge(a, b)) for a, b in zip(node_list, node_list[1:]))
