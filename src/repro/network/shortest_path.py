"""Shortest-path algorithms over :class:`~repro.network.graph.RoadNetwork`.

Derouting cost (Eq. 3) is a shortest-path problem: the cheapest way from
the vehicle's position to a prospective charger and back to the trip.
The :class:`~repro.network.distance_engine.DistanceEngine` runs it with
two kernels, each reading every arc's cost from a vector priced once per
metric.  :func:`settle_frontier` is the Dijkstra backend's one kernel:
it settles several searches at once over the road network's arcs in
array form (:class:`ArcGraph`) and returns label arrays
(:class:`Labels`).  :func:`settle_arcs` is a heap search over an
``(neighbour, arc id)`` adjacency, the upward graphs of
:mod:`repro.network.contraction` (CH).

The other searches price every relaxed edge through a cost callable.
:func:`dijkstra` finds one path for trips, trajectories and the fleet
simulator; :func:`dijkstra_all` and :func:`dijkstra_all_backward` are
the reference oracles the engine's forward and backward searches are
tested against.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Mapping, Sequence, Union

import numpy as np

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
    origin: int,
    adjacency: ArcAdjacency,
    weights: Sequence[float],
    max_cost: float = math.inf,
    span: int = 0,
) -> dict[int, float]:
    """Truncated Dijkstra over a flat adjacency with per-arc cost ``weights``:
    the contraction hierarchy's upward search spaces.

    The result maps every *settled* node (popped from the heap with its
    final label) to its cost.  A node is pushed only when its tentative
    cost is within ``max_cost``, so the search settles exactly the nodes
    within budget.  For non-negative costs each settled value is bitwise
    equal to :func:`dijkstra_all` under the same costs: a stale queue
    entry (``d > dist[node]``) is skipped where ``dijkstra_all`` skips a
    settled node, and the sums are the same.  With ``span > 0`` (see
    :func:`dense_span`) distances live in a flat list indexed by node id;
    otherwise in a dict.  Both paths relax in the same order.
    """
    if max_cost < 0.0:
        return {}  # even the origin is over budget
    inf = math.inf
    push, pop = heapq.heappush, heapq.heappop
    heap: list[tuple[float, int]] = [(0.0, origin)]
    settled: dict[int, float] = {}
    if span:
        dist = [inf] * span
        dist[origin] = 0.0
        while heap:
            d, node = pop(heap)
            if d > dist[node]:
                continue  # stale queue entry, node already settled closer
            settled[node] = d
            for neighbour, arc_id in adjacency[node]:
                nd = d + weights[arc_id]
                if nd <= max_cost and nd < dist[neighbour]:
                    dist[neighbour] = nd
                    push(heap, (nd, neighbour))
        return settled
    best: dict[int, float] = {origin: 0.0}
    get = best.get
    while heap:
        d, node = pop(heap)
        if d > best[node]:
            continue  # stale queue entry, node already settled closer
        settled[node] = d
        for neighbour, arc_id in adjacency[node]:
            nd = d + weights[arc_id]
            if nd <= max_cost and nd < get(neighbour, inf):
                best[neighbour] = nd
                push(heap, (nd, neighbour))
    return settled


_NO_POSITIONS = np.empty(0, dtype=np.int64)
_NO_LABELS = np.empty(0, dtype=np.float64)


@dataclass(frozen=True, slots=True)
class Labels:
    """One search's final labels: ``values[i]`` is the cost at node
    position ``positions[i]`` (ascending, see :class:`ArcGraph`).

    Every held value is final and at most ``horizon``, and every node
    whose final label is below ``horizon`` is held.  ``horizon`` is
    ``inf`` when the search ran to its budget (a node not held is then
    out of budget or unreachable), the stop value when it stopped at its
    targets, and ``-inf`` when it had no targets and settled nothing.
    """

    positions: np.ndarray
    values: np.ndarray
    horizon: float

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def complete(self) -> bool:
        return self.horizon == math.inf

    def at(self, positions: np.ndarray) -> np.ndarray:
        """The labels at ``positions``, ``inf`` where none is held."""
        held = self.positions
        if not len(held):
            return np.full(len(positions), math.inf)
        index = np.searchsorted(held, positions)
        np.minimum(index, len(held) - 1, out=index)
        return np.where(held[index] == positions, self.values[index], math.inf)


@dataclass(frozen=True, slots=True)
class FrontierQuery:
    """One search of a :func:`settle_frontier` call: seeded at ``0.0`` at
    every node position in ``origins``, relaxing the arcs leaving a node
    (``forward``) or entering it (backward, the costs *to* the origins),
    each at its entry of ``costs`` (one per :attr:`ArcGraph.edges` arc)."""

    origins: np.ndarray
    forward: bool
    costs: np.ndarray


@dataclass(slots=True)
class ArcGraph:
    """A road network's arcs in array form, built once for
    :func:`settle_frontier`.

    Nodes are indexed by *position*: ``ids[p]`` is the id of the node at
    position ``p``, ascending, so any node ids map to positions with one
    ``searchsorted`` (:meth:`positions`).  ``edges[arc]`` is the edge
    behind each arc id: one stable tuple, so a metric is priced once into
    a cost vector aligned with it (batch evaluators key their static
    per-arc arrays by its identity).

    Row ``p`` of the adjacency holds the arcs leaving position ``p`` in
    ``out_edges`` order, row ``n + p`` the arcs entering it in
    ``in_edges`` order (relaxed backward): ``heads`` is each arc's far
    end and ``arcs`` its id, padded to one width with ``p`` itself and the
    sentinel arc ``len(edges)``, which every search prices at ``inf``.
    ``shape`` is the ``(node_count, edge_count)`` the graph was built
    from, so a network grown afterwards is detected.

    The rest is the kernel's scratch, grown on demand: ``labels`` is the
    stacked label vector (``inf`` between calls; a call resets only the
    entries it touched), ``weights`` one cost row per query, and
    ``layouts`` the adjacency stacked for each sequence of query
    directions a call has used (:meth:`layout`).
    """

    edges: tuple[RoadEdge, ...]
    ids: np.ndarray
    heads: np.ndarray
    arcs: np.ndarray
    shape: tuple[int, int]
    labels: np.ndarray = field(default_factory=lambda: np.empty(0))
    weights: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    layouts: dict[tuple[bool, ...], tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @classmethod
    def of(cls, network: RoadNetwork) -> "ArcGraph":
        """Flatten ``network``'s adjacency into position-indexed arrays."""
        ids = sorted(network.node_ids())
        position = {node: p for p, node in enumerate(ids)}
        edges: list[RoadEdge] = []
        table: list[list[tuple[int, int]]] = [[] for _ in range(2 * len(ids))]
        for node in network.node_ids():
            row = table[position[node]]
            for edge in network.out_edges(node):
                row.append((position[edge.target], len(edges)))
                edges.append(edge)
        arc_of = {(edge.source, edge.target): arc for arc, edge in enumerate(edges)}
        for p, node in enumerate(ids):
            table[len(ids) + p] = [
                (position[edge.source], arc_of[(edge.source, edge.target)])
                for edge in network.in_edges(node)
            ]
        width = max((len(row) for row in table), default=0) or 1
        own = np.arange(len(table), dtype=np.int64) % max(1, len(ids))
        heads = np.repeat(own[:, None], width, axis=1)
        arcs = np.full((len(table), width), len(edges), dtype=np.int64)
        for r, row in enumerate(table):
            for c, (head, arc) in enumerate(row):
                heads[r, c] = head
                arcs[r, c] = arc
        shape = (network.node_count, network.edge_count)
        return cls(tuple(edges), np.array(ids, dtype=np.int64), heads, arcs, shape)

    @property
    def node_count(self) -> int:
        return len(self.ids)

    def positions(self, nodes: Iterable[int] | np.ndarray) -> np.ndarray:
        """The positions of ``nodes`` (an ``int64`` array is read as it
        is), ``-1`` for a node not in the graph."""
        if isinstance(nodes, np.ndarray):
            wanted = nodes.astype(np.int64, copy=False)
        else:
            wanted = np.fromiter(nodes, dtype=np.int64)
        if not len(self.ids):
            return np.full(len(wanted), -1, dtype=np.int64)
        index = np.searchsorted(self.ids, wanted)
        np.minimum(index, len(self.ids) - 1, out=index)
        index[self.ids[index] != wanted] = -1
        return index

    def layout(self, forward: tuple[bool, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The adjacency of a call whose queries relax in the directions
        ``forward``: row ``q * n + p`` is position ``p``'s row for query
        ``q``, its heads offset into query ``q``'s label block and its arc
        ids into query ``q``'s cost row, so a frontier of stacked label
        indices selects its rows directly."""
        stacked = self.layouts.get(forward)
        if stacked is None:
            n = self.node_count
            width = len(self.edges) + 1
            heads = [self.heads[0 if f else n :][:n] + q * n for q, f in enumerate(forward)]
            arcs = [self.arcs[0 if f else n :][:n] + q * width for q, f in enumerate(forward)]
            stacked = self.layouts[forward] = (np.concatenate(heads), np.concatenate(arcs))
        return stacked

    def scratch(self, queries: int) -> tuple[np.ndarray, np.ndarray]:
        """The label vector and cost rows for a call of ``queries``."""
        if len(self.labels) < queries * self.node_count:
            self.labels = np.full(queries * self.node_count, math.inf)
        if len(self.weights) < queries:
            self.weights = np.full((queries, len(self.edges) + 1), math.inf)
        return self.labels, self.weights


def _unique(values: np.ndarray) -> np.ndarray:
    """The distinct entries of an integer array, ascending: ``np.unique``
    by one sort, which is several times faster on frontier-sized arrays."""
    ordered = np.sort(values, axis=None)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def settle_frontier(
    graph: ArcGraph,
    queries: Sequence[FrontierQuery],
    max_cost: float = math.inf,
    targets: np.ndarray | None = None,
) -> list[Labels]:
    """Several truncated searches at once, by frontier rounds over arrays.

    The queries share one label vector, laid out as one block of
    :attr:`ArcGraph.node_count` labels per query.  Each round relaxes
    only the arcs leaving the current frontier (the labels the round
    before lowered): ``cand = D[frontier] + cost``, kept where it lowers
    the label at the far end and is within ``max_cost``, applied with
    ``np.minimum.at``; the lowered nodes, made unique, are the next
    frontier.  A search with no frontier left has reached every node
    within budget.

    Every label is the least left-to-right float sum over the paths to
    its node, as in :func:`dijkstra_all`: the rounds reach the fixed point
    of ``D[v] = min(D[v], fl(D[u] + w))``, and because ``fl(a + w)`` is
    monotone in ``a`` that fixed point is the least such sum, bit for bit.
    Several origins in one query give the distance from the nearest one.

    With ``targets`` (node positions, the same for every query) each
    query stops once none of its targets' labels is above its frontier's
    smallest label.  For non-negative costs every later label is at least
    that value, so each label at or below it is final; the query returns
    exactly those, with that value as its :attr:`Labels.horizon`.  The
    test is made per query, so each stops at its own round.  A target out
    of reach or over budget keeps its query running to the budget, and
    an empty ``targets`` settles nothing.  A NaN ``max_cost`` is refused.
    """
    if math.isnan(max_cost):
        raise ValueError("max_cost must not be NaN")
    count = len(queries)
    inf = math.inf
    if max_cost < 0.0 or (targets is not None and not len(targets)):
        horizon = inf if max_cost < 0.0 else -inf
        return [Labels(_NO_POSITIONS, _NO_LABELS, horizon) for _ in queries]
    n = graph.node_count
    labels, weights = graph.scratch(count)
    for row, query in enumerate(queries):
        weights[row, :-1] = query.costs
    flat_weights = weights.reshape(-1)
    heads_of, arcs_of = graph.layout(tuple(query.forward for query in queries))
    base = np.arange(count, dtype=np.int64) * n
    frontier = _unique(np.concatenate([q.origins + base[i] for i, q in enumerate(queries)]))
    touched = [frontier]
    labels[frontier] = 0.0
    try:
        horizon = np.full(count, inf)
        live = np.ones(count, dtype=bool)
        base_and_end = np.append(base, count * n)
        ceiling = float(np.nextafter(max_cost, inf))
        wanted = None
        if targets is not None:
            wanted = (base[:, None] + _unique(targets)).ravel()
            wanted_starts = np.searchsorted(wanted, base)
        while frontier.size:
            at = labels[frontier]
            if wanted is not None:
                # A query can stop only once all of its targets are reached.
                need = np.maximum.reduceat(labels[wanted], wanted_starts)
                ready = live & (need < inf)
                if ready.any():
                    bounds = np.searchsorted(frontier, base_and_end)
                    present = bounds[1:] > bounds[:-1]
                    lows = np.full(count, inf)
                    lows[present] = np.minimum.reduceat(at, bounds[:-1][present])
                    done = ready & (need <= lows)
                    if done.any():
                        horizon[done] = lows[done]
                        live &= ~done
                        keep = live[frontier // n]
                        frontier, at = frontier[keep], at[keep]
                        if not frontier.size:
                            break
            cand = at[:, None] + flat_weights[arcs_of[frontier]]
            heads = heads_of[frontier]
            bound = labels[heads]
            if ceiling < inf:
                # ``cand < ceiling`` is ``cand <= max_cost``.
                np.minimum(bound, ceiling, out=bound)
            better = cand < bound
            heads = heads[better]
            np.minimum.at(labels, heads, cand[better])
            frontier = _unique(heads)
            touched.append(frontier)
        held = _unique(np.concatenate(touched))
        bounds = np.searchsorted(held, base_and_end)
        out = []
        for q in range(count):
            at = held[bounds[q] : bounds[q + 1]]
            values = labels[at]
            stop = float(horizon[q])
            if stop < inf:
                final = values <= stop
                at, values = at[final], values[final]
            out.append(Labels(at - base[q], values, stop))
        return out
    finally:
        labels[np.concatenate(touched)] = inf


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
