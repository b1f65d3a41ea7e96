"""Contraction hierarchy over a :class:`~repro.network.graph.RoadNetwork`.

The derouting component ``D`` prices whole candidate pools per trip
segment; under plain Dijkstra every pricing pass costs |V| log |V| per
cost function.  A contraction hierarchy spends that work once: nodes are
ordered by an edge-difference heuristic and contracted bottom-up, adding a
shortcut for every lower triangle that contraction closes, in the style of
*customisable* contraction hierarchies (Dibbelt/Strasser/Wagner; see
PAPERS.md "Nearest-Neighbor Queries in Customizable Contraction
Hierarchies").  Because the shortcut *topology* is metric-independent, one
preprocessing pass serves every traffic cost function: plugging in a new
metric is a linear sweep over the recorded triangles
(:meth:`ContractionHierarchy.customize`), after which point queries touch
only the tiny upward search spaces.

Three query shapes are provided on the customised hierarchy, matching how
the ranking tick consumes distances:

* :meth:`CustomizedHierarchy.distance` — point to point;
* :meth:`CustomizedHierarchy.one_to_many` / :meth:`many_to_one` — one
  segment anchor (or rejoin node) against a charger pool;
* :meth:`CustomizedHierarchy.many_to_many` — the bucket-based pool x
  rejoin matrix.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import RoadEdge, RoadNetwork
from .shortest_path import CostFn, dense_span, settle_arcs


#: Regions at or below this size are contracted in plain id order — the
#: point where dissection bookkeeping outweighs the separator savings.
_ND_LEAF_SIZE = 8


def _nested_dissection_order(network: RoadNetwork) -> list[int]:
    """Geometric nested-dissection contraction order (separators last).

    Recursively halve the region along its wider coordinate axis; the
    vertex separator (nodes on the left half with a neighbour on the
    right) is contracted *after* both halves.  For road graphs the
    separators are O(sqrt(region)) — the fill-in (and with it triangle
    count, customisation time, and query search-space size) stays near
    the planar-graph optimum, where degree-greedy orderings degrade badly
    on regular grids.
    """
    points = {n: network.node(n).point for n in network.node_ids()}
    neighbours: dict[int, set[int]] = {n: set() for n in points}
    for edge in network.edges():
        if edge.source != edge.target:
            neighbours[edge.source].add(edge.target)
            neighbours[edge.target].add(edge.source)

    order: list[int] = []
    stack: list[tuple[list[int], bool]] = [(sorted(points), False)]
    while stack:
        region, is_leaf = stack.pop()
        if is_leaf or len(region) <= _ND_LEAF_SIZE:
            order.extend(sorted(region))
            continue
        xs = [points[n].x for n in region]
        ys = [points[n].y for n in region]
        axis = "x" if max(xs) - min(xs) >= max(ys) - min(ys) else "y"
        key = (lambda n: (points[n].x, n)) if axis == "x" else (
            lambda n: (points[n].y, n)
        )
        ordered = sorted(region, key=key)
        left = set(ordered[: len(ordered) // 2])
        right_set = set(ordered[len(ordered) // 2 :])
        separator = sorted(
            n for n in left if any(m in right_set for m in neighbours[n])
        )
        left_rest = [n for n in ordered[: len(ordered) // 2] if n not in set(separator)]
        right_rest = ordered[len(ordered) // 2 :]
        # LIFO stack: push separator first so it is *emitted* last.
        stack.append((separator, True))
        stack.append((right_rest, False))
        stack.append((left_rest, False))
    return order


@dataclass(frozen=True, slots=True)
class CHStats:
    """Size of one preprocessing pass."""

    nodes: int
    original_arcs: int
    shortcut_arcs: int
    triangles: int


class ContractionHierarchy:
    """Metric-independent contraction order, shortcuts, and triangles.

    Build once per network topology with :meth:`build`; derive per-metric
    weights with :meth:`customize`.  The instance is immutable after
    construction and safe to share between engines.
    """

    def __init__(
        self,
        rank: dict[int, int],
        arc_tails: list[int],
        arc_heads: list[int],
        arc_edges: list[RoadEdge | None],
        triangles: list[tuple[int, int, int]],
        original_arcs: int,
    ) -> None:
        self._rank = rank
        self._arc_tails = arc_tails
        self._arc_heads = arc_heads
        self._arc_edges = arc_edges
        self._triangles = triangles
        self._original_arcs = original_arcs
        #: Vectorised-sweep batches, built lazily on first customisation.
        self._sweep_batches: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None
        #: Row-replicated sweep plans for stacked customisation, keyed by
        #: row count (see :meth:`customize_many`).
        self._stacked_plans: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        # One stable tuple: batch evaluators key their static per-arc
        # arrays by the identity of this sequence.
        self._original_edges = tuple(arc_edges)
        # Forward search graph: arcs leaving ``tail`` toward higher rank.
        up_out: dict[int, list[tuple[int, int]]] = {n: [] for n in rank}
        # Backward search graph: arcs entering ``head`` from higher rank,
        # traversed head -> tail (i.e. the reverse of the downward arcs).
        up_in: dict[int, list[tuple[int, int]]] = {n: [] for n in rank}
        for arc_id, (tail, head) in enumerate(zip(arc_tails, arc_heads)):
            if rank[tail] < rank[head]:
                up_out[tail].append((head, arc_id))
            else:
                up_in[head].append((tail, arc_id))
        self._up_out = up_out
        self._up_in = up_in
        # Dense-id fast path for search spaces (see ``dense_span``).
        self._node_span = dense_span(rank)

    # -- preprocessing ------------------------------------------------------

    @classmethod
    def build(cls, network: RoadNetwork, ordering: str = "nd") -> "ContractionHierarchy":
        """Contract every node and record the closed lower triangles.

        ``ordering`` selects the contraction order: ``"nd"`` (default)
        uses geometric nested dissection over the node coordinates —
        separators are contracted last, which keeps both the shortcut
        count and the upward search spaces near the theoretical optimum
        for planar-ish road graphs; ``"edge_difference"`` is the classic
        greedy ``shortcuts_added - arcs_removed`` heuristic with lazy
        re-evaluation.  Both are deterministic (node-id tie-breaks).  No
        witness search is run: like CCH preprocessing, *every* lower
        triangle gets a shortcut so the topology stays valid for
        arbitrary non-negative metrics.
        """
        arc_tails: list[int] = []
        arc_heads: list[int] = []
        arc_edges: list[RoadEdge | None] = []
        fwd: dict[int, dict[int, int]] = {n: {} for n in network.node_ids()}
        bwd: dict[int, dict[int, int]] = {n: {} for n in network.node_ids()}
        for edge in network.edges():
            if edge.source == edge.target:
                continue  # self loops never lie on a shortest path
            arc_id = len(arc_tails)
            arc_tails.append(edge.source)
            arc_heads.append(edge.target)
            arc_edges.append(edge)
            fwd[edge.source][edge.target] = arc_id
            bwd[edge.target][edge.source] = arc_id
        original_arcs = len(arc_tails)

        rank: dict[int, int] = {}
        triangles: list[tuple[int, int, int]] = []

        def contract(node: int) -> None:
            rank[node] = len(rank)
            in_nbrs = list(bwd[node].items())
            out_nbrs = list(fwd[node].items())
            for u, __ in in_nbrs:
                del fwd[u][node]
            for w, __ in out_nbrs:
                del bwd[w][node]
            del fwd[node]
            del bwd[node]
            for u, arc_uv in in_nbrs:
                fu = fwd[u]
                for w, arc_vw in out_nbrs:
                    if u == w:
                        continue
                    arc_uw = fu.get(w)
                    if arc_uw is None:
                        arc_uw = len(arc_tails)
                        arc_tails.append(u)
                        arc_heads.append(w)
                        arc_edges.append(None)
                        fu[w] = arc_uw
                        bwd[w][u] = arc_uw
                    triangles.append((arc_uv, arc_vw, arc_uw))

        if ordering == "nd":
            for node in _nested_dissection_order(network):
                contract(node)
        elif ordering == "edge_difference":
            def edge_difference(node: int) -> int:
                added = 0
                outs = fwd[node]
                for u in bwd[node]:
                    fu = fwd[u]
                    for w in outs:
                        if u != w and w not in fu:
                            added += 1
                return added - len(bwd[node]) - len(outs)

            heap: list[tuple[int, int]] = [(edge_difference(n), n) for n in fwd]
            heapq.heapify(heap)
            while heap:
                __, node = heapq.heappop(heap)
                if node in rank:
                    continue
                current = edge_difference(node)
                if heap and current > heap[0][0]:
                    heapq.heappush(heap, (current, node))
                    continue
                contract(node)
        else:
            raise ValueError(
                f"unknown ordering {ordering!r}; expected 'nd' or 'edge_difference'"
            )
        return cls(rank, arc_tails, arc_heads, arc_edges, triangles, original_arcs)

    @property
    def stats(self) -> CHStats:
        return CHStats(
            nodes=len(self._rank),
            original_arcs=self._original_arcs,
            shortcut_arcs=len(self._arc_tails) - self._original_arcs,
            triangles=len(self._triangles),
        )

    @property
    def original_edges(self) -> tuple[RoadEdge | None, ...]:
        """Per-arc source edge (``None`` for shortcuts), customisation input.

        The same tuple object is returned on every access so vectorised
        evaluators can key their static arrays by its identity.
        """
        return self._original_edges

    def rank_of(self, node: int) -> int:
        """Contraction rank of ``node`` (0 = contracted first)."""
        return self._rank[node]

    # -- customisation ------------------------------------------------------

    def _sweep_plan(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Batch the triangle sweep for vectorised execution.

        Triangles are recorded in contraction order, so a triangle's input
        arcs are finalised before it runs.  Consecutive triangles are
        merged into one numpy batch as long as no batch member *reads* an
        arc another member *writes* (and no two write the same arc) —
        under that condition the batched ``minimum`` update is bitwise
        identical to the sequential scalar sweep.
        """
        if self._sweep_batches is not None:
            return self._sweep_batches
        batches: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        uv: list[int] = []
        vw: list[int] = []
        uw: list[int] = []
        written: set[int] = set()

        def flush() -> None:
            if uw:
                batches.append(
                    (
                        np.asarray(uv, dtype=np.intp),
                        np.asarray(vw, dtype=np.intp),
                        np.asarray(uw, dtype=np.intp),
                    )
                )
                uv.clear()
                vw.clear()
                uw.clear()
                written.clear()

        for arc_uv, arc_vw, arc_uw in self._triangles:
            if arc_uv in written or arc_vw in written or arc_uw in written:
                flush()
            uv.append(arc_uv)
            vw.append(arc_vw)
            uw.append(arc_uw)
            written.add(arc_uw)
        flush()
        self._sweep_batches = batches
        return batches

    def customize(
        self, cost_of: CostFn, arc_costs: Sequence[float] | None = None
    ) -> "CustomizedHierarchy":
        """Bind a metric to the topology (basic CCH customisation).

        ``arc_costs`` optionally supplies the per-*original-arc* costs as a
        precomputed sequence aligned with :attr:`original_edges` — the
        vectorised fast path used by
        :meth:`~repro.estimation.traffic.TrafficModel` specs.  When absent,
        ``cost_of`` is evaluated per original edge.  Shortcut weights are
        then resolved by one sweep over the recorded triangles (batched
        into vectorised ``minimum`` updates), which is valid because every
        triangle's constituent arcs were finalised by earlier
        contractions.
        """
        total = len(self._arc_tails)
        if arc_costs is not None:
            weights_arr = np.full(total, math.inf, dtype=np.float64)
            costs = np.asarray(arc_costs, dtype=np.float64)
            if np.any(costs[np.isfinite(costs)] < 0):
                raise ValueError("negative arc cost in customisation")
            weights_arr[: len(costs)] = costs
        else:
            weights_arr = np.full(total, math.inf, dtype=np.float64)
            for arc_id, edge in enumerate(self._arc_edges):
                if edge is None:
                    continue
                cost = cost_of(edge)
                if cost < 0:
                    raise ValueError(
                        f"negative edge cost on {edge.source}->{edge.target}"
                    )
                weights_arr[arc_id] = cost
        for uv, vw, uw in self._sweep_plan():
            # uw indices are unique within a batch, so plain fancy-index
            # assignment is a correct (and bitwise-sequential) minimum.
            weights_arr[uw] = np.minimum(
                weights_arr[uw], weights_arr[uv] + weights_arr[vw]
            )
        return CustomizedHierarchy(self, weights_arr.tolist())

    def customize_many(
        self, arc_cost_rows: Sequence[Sequence[float]]
    ) -> list["CustomizedHierarchy"]:
        """Customise several metrics in one stacked triangle sweep.

        Each row of ``arc_cost_rows`` is a per-arc cost sequence aligned
        with :attr:`original_edges` (``inf`` at shortcut positions).  The
        rows are laid end-to-end in one flat array and swept with a
        row-replicated index plan — 1D fancy indexing keeps the per-batch
        numpy overhead of ``k`` metrics at that of *one*, so customising
        the two interval-bound metrics of a segment costs barely more
        than one sweep.  Each row's result is bitwise identical to a solo
        :meth:`customize` call with the same costs (identical elementwise
        operations in identical order).
        """
        if not arc_cost_rows:
            return []
        k = len(arc_cost_rows)
        total = len(self._arc_tails)
        weights = np.full(k * total, math.inf, dtype=np.float64)
        for row, arc_costs in enumerate(arc_cost_rows):
            costs = np.asarray(arc_costs, dtype=np.float64)
            if np.any(costs[np.isfinite(costs)] < 0):
                raise ValueError("negative arc cost in customisation")
            weights[row * total : row * total + len(costs)] = costs
        for uv, vw, uw in self._stacked_plan(k):
            weights[uw] = np.minimum(weights[uw], weights[uv] + weights[vw])
        return [
            CustomizedHierarchy(self, weights[row * total : (row + 1) * total].tolist())
            for row in range(k)
        ]

    def _stacked_plan(
        self, k: int
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The sweep plan replicated across ``k`` stacked weight rows."""
        if k == 1:
            return self._sweep_plan()
        cached = self._stacked_plans.get(k)
        if cached is not None:
            return cached
        total = len(self._arc_tails)
        offsets = [row * total for row in range(k)]
        plan = [
            tuple(
                np.concatenate([index + offset for offset in offsets])
                for index in triple
            )
            for triple in self._sweep_plan()
        ]
        self._stacked_plans[k] = plan
        return plan


class CustomizedHierarchy:
    """A :class:`ContractionHierarchy` with one metric's weights bound."""

    __slots__ = ("_ch", "_weights")

    def __init__(self, ch: ContractionHierarchy, weights: list[float]) -> None:
        self._ch = ch
        self._weights = weights

    @property
    def hierarchy(self) -> ContractionHierarchy:
        return self._ch

    # -- search spaces ------------------------------------------------------

    def forward_space(self, source: int, max_cost: float = math.inf) -> dict[int, float]:
        """Upward distances from ``source`` (the forward CH frontier)."""
        ch = self._ch
        return settle_arcs(source, ch._up_out, self._weights, max_cost, ch._node_span)

    def backward_space(self, target: int, max_cost: float = math.inf) -> dict[int, float]:
        """Upward distances *to* ``target`` over the reversed downward arcs."""
        ch = self._ch
        return settle_arcs(target, ch._up_in, self._weights, max_cost, ch._node_span)

    # -- queries ------------------------------------------------------------

    def distance(
        self, source: int, target: int, max_cost: float = math.inf
    ) -> float | None:
        """Shortest-path cost, or None when above ``max_cost``/unreachable."""
        best = combine_spaces(
            self.forward_space(source, max_cost), self.backward_space(target, max_cost)
        )
        return best if best <= max_cost else None

    def one_to_many(
        self,
        source: int,
        targets: Iterable[int],
        max_cost: float = math.inf,
    ) -> dict[int, float]:
        """Distances from ``source`` to each target within ``max_cost``."""
        forward = self.forward_space(source, max_cost)
        out: dict[int, float] = {}
        for target in targets:
            best = combine_spaces(forward, self.backward_space(target, max_cost))
            if best <= max_cost:
                out[target] = best
        return out

    def many_to_one(
        self,
        sources: Iterable[int],
        target: int,
        max_cost: float = math.inf,
    ) -> dict[int, float]:
        """Distances from each source *to* ``target`` within ``max_cost``."""
        backward = self.backward_space(target, max_cost)
        out: dict[int, float] = {}
        for source in sources:
            best = combine_spaces(self.forward_space(source, max_cost), backward)
            if best <= max_cost:
                out[source] = best
        return out

    def many_to_many(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        max_cost: float = math.inf,
    ) -> dict[tuple[int, int], float]:
        """Bucket-based many-to-many matrix (Knopp et al. style).

        Every target's backward space is scattered into per-node buckets
        once; each source then answers against *all* targets with a single
        forward space scan — the classic trick that prices "segment anchor
        x candidate-pool chargers" in one pass.
        """
        buckets: dict[int, list[tuple[int, float]]] = {}
        for target in targets:
            for node, d_target in self.backward_space(target, max_cost).items():
                buckets.setdefault(node, []).append((target, d_target))
        out: dict[tuple[int, int], float] = {}
        for source in sources:
            best: dict[int, float] = {}
            for node, d_source in self.forward_space(source, max_cost).items():
                for target, d_target in buckets.get(node, ()):
                    total = d_source + d_target
                    if total <= max_cost and total < best.get(target, math.inf):
                        best[target] = total
            for target, total in best.items():
                out[(source, target)] = total
        return out


def combine_spaces(
    forward: Mapping[int, float], backward: Mapping[int, float]
) -> float:
    """min over meeting nodes of up-distance + down-distance (inf if none)."""
    if len(backward) < len(forward):
        smaller, larger = backward, forward
    else:
        smaller, larger = forward, backward
    best = math.inf
    for node, d_small in smaller.items():
        d_large = larger.get(node)
        if d_large is not None and d_small + d_large < best:
            best = d_small + d_large
    return best
