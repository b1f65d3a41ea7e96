"""Search ablation — the stacked frontier kernel vs a heap with the target stop.

Eq. 3 prices a pool with four searches per segment: the optimistic and
pessimistic travel-time bounds, each outbound from the segment's anchor
and back to its rejoin points.  The engine's Dijkstra backend runs all
four as one stacked call of ``settle_frontier``, each search stopping
once every pool node is final.  The baseline is the heap search the
engine ran before: one truncated Dijkstra per search over a
``(neighbour, arc id)`` adjacency, stopped once every pool node is
settled.  It is kept here, and only here, as the yardstick.  Both give
every pool node the same label, bit for bit (``tests/test_arc_pricing.py``).

Two cities (the T-drive map of ~1,500 nodes, and a 70x70 km city of
~5,000 nodes) and pools of the chargers within 2 and 10 km of the anchor
(small pools) and within 50 km (dense-pool's radius: the whole map).
These are report numbers, not a claim; ``extra_info`` records the pool
size and the labels each mode settled.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro.chargers.plugshare import CatalogSpec, generate_catalog
from repro.estimation.derouting import DeroutingEstimator, rejoin_nodes
from repro.estimation.traffic import TrafficModel
from repro.network.builders import NetworkSpec, build_city_network
from repro.network.graph import RoadNetwork
from repro.network.path import Trip, TripSegment
from repro.network.shortest_path import ArcGraph, FrontierQuery, settle_frontier
from repro.trajectories.datasets import PROFILES

CITIES = {
    "tdrive": (PROFILES["tdrive"].network, PROFILES["tdrive"].catalog),
    "city70": (
        NetworkSpec(width_km=70.0, height_km=70.0, block_km=1.0),
        CatalogSpec(charger_count=1000, hotspots=0, seed=205),
    ),
}
RADII_KM = (2.0, 10.0, 50.0)

Adjacency = list[list[tuple[int, int]]]


def heap_search(
    origins: tuple[int, ...],
    adjacency: Adjacency,
    weights: list[float],
    budget: float,
    targets: set[int],
) -> dict[int, float]:
    """Truncated Dijkstra over node positions, stopped once every target
    is settled (or run to the budget when one never is)."""
    remaining = set(targets)
    dist = [math.inf] * len(adjacency)
    heap = [(0.0, node) for node in sorted(set(origins))]
    for _, node in heap:
        dist[node] = 0.0
    settled: dict[int, float] = {}
    while heap and remaining:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        settled[node] = d
        remaining.discard(node)
        for neighbour, arc in adjacency[node]:
            nd = d + weights[arc]
            if nd <= budget and nd < dist[neighbour]:
                dist[neighbour] = nd
                heapq.heappush(heap, (nd, neighbour))
    return settled


@dataclass(frozen=True)
class Segment:
    """One segment's four searches: origins, metrics (as the kernel's
    arrays and as the heap's lists) and both adjacencies."""

    network: RoadNetwork
    arcs: ArcGraph
    costs: tuple[np.ndarray, np.ndarray]
    weights: tuple[list[float], list[float]]
    adjacency: tuple[Adjacency, Adjacency]
    segment: TripSegment
    rejoins: tuple[int, ...]
    budget_h: float
    catalog: CatalogSpec


def _adjacency(arcs: ArcGraph, forward: bool) -> Adjacency:
    """The heap's ``(neighbour, arc id)`` lists, read off the kernel's
    padded rows (forward rows first, then backward)."""
    rows = slice(0, arcs.node_count) if forward else slice(arcs.node_count, None)
    padding = len(arcs.edges)
    return [
        [(head, arc) for head, arc in zip(heads, ids) if arc != padding]
        for heads, ids in zip(arcs.heads[rows].tolist(), arcs.arcs[rows].tolist())
    ]


def _segment(city: str) -> Segment:
    spec, catalog = CITIES[city]
    network = build_city_network(spec)
    nodes = sorted(network.node_ids())
    # A trip through the middle of the map, so a 50 km pool is not cut
    # off by the map's edge on every side.
    trip = Trip.route(
        network, nodes[len(nodes) // 3], nodes[2 * len(nodes) // 3], departure_time_h=8.0
    )
    segments = trip.segments(segment_km=2.0)
    middle = len(segments) // 2
    arcs = ArcGraph.of(network)
    low, high = TrafficModel(seed=1).travel_time_bound_specs(8.5, 8.0)
    costs = (np.asarray(low.batch(arcs.edges)), np.asarray(high.batch(arcs.edges)))
    estimator = DeroutingEstimator(network, TrafficModel(seed=1))
    return Segment(
        network,
        arcs,
        costs,
        (costs[0].tolist(), costs[1].tolist()),
        (_adjacency(arcs, True), _adjacency(arcs, False)),
        segments[middle],
        rejoin_nodes(segments[middle], segments[middle + 1]),
        estimator.max_derouting_h,
        catalog,
    )


@pytest.fixture(scope="module", params=sorted(CITIES))
def city(request) -> Segment:
    return _segment(request.param)


def _stacked(case: Segment, pool: np.ndarray) -> int:
    """The segment's four searches as one stacked call; returns the
    labels they settled."""
    arcs = case.arcs
    anchor = arcs.positions([case.segment.anchor_node])
    rejoins = arcs.positions(case.rejoins)
    queries = [
        FrontierQuery(anchor, True, case.costs[0]),
        FrontierQuery(anchor, True, case.costs[1]),
        FrontierQuery(rejoins, False, case.costs[0]),
        FrontierQuery(rejoins, False, case.costs[1]),
    ]
    return sum(len(labels) for labels in settle_frontier(arcs, queries, case.budget_h, pool))


def _heap(case: Segment, pool: np.ndarray) -> int:
    """The segment's four searches, one heap search each."""
    arcs = case.arcs
    anchor = tuple(arcs.positions([case.segment.anchor_node]).tolist())
    rejoins = tuple(arcs.positions(case.rejoins).tolist())
    targets = set(pool.tolist())
    settled = 0
    for weights in case.weights:
        settled += len(heap_search(anchor, case.adjacency[0], weights, case.budget_h, targets))
        settled += len(heap_search(rejoins, case.adjacency[1], weights, case.budget_h, targets))
    return settled


@pytest.mark.parametrize("radius_km", RADII_KM)
@pytest.mark.parametrize("mode", ["stacked", "heap"])
def test_segment_searches(benchmark, city, radius_km, mode):
    anchor = city.network.node(city.segment.anchor_node).point
    registry = generate_catalog(city.network, city.catalog)
    nodes = {c.node_id for c in registry.all() if c.point.distance_to(anchor) <= radius_km}
    pool = np.sort(city.arcs.positions(nodes))
    run = _stacked if mode == "stacked" else _heap
    settled = benchmark.pedantic(lambda: run(city, pool), rounds=5, iterations=1)
    benchmark.extra_info["nodes"] = city.network.node_count
    benchmark.extra_info["pool"] = len(pool)
    benchmark.extra_info["settled"] = settled
