"""Search ablation — stop at the pool's last node vs settle the full ball.

Eq. 3 prices a pool with four searches per segment: the optimistic and
pessimistic travel-time bounds, each outbound from the segment's anchor
and back to its rejoin points.  The engine's Dijkstra backend stops each
search once every pool node is settled (``settle_arcs(..., targets=pool)``);
without the stop (``targets=None``) a search settles the whole ball out
to the derouting budget.  Both return the same label for every pool node.

Two cities (the T-drive-sized 42x42 km map of ~1,500 nodes, and a
70x70 km city of ~5,000 nodes) and pools of the chargers within 2, 10
and 50 km of the anchor.  These are report numbers, not a claim;
``extra_info`` records the pool size and the nodes each mode settled.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.chargers.plugshare import CatalogSpec, generate_catalog
from repro.estimation.derouting import DeroutingEstimator, rejoin_nodes
from repro.estimation.traffic import TrafficModel
from repro.network.builders import NetworkSpec, build_city_network
from repro.network.graph import RoadNetwork
from repro.network.path import Trip, TripSegment
from repro.network.shortest_path import ArcGraph, settle_arcs
from repro.trajectories.datasets import PROFILES

CITIES = {
    "tdrive": (PROFILES["tdrive"].network, PROFILES["tdrive"].catalog),
    "city70": (
        NetworkSpec(width_km=70.0, height_km=70.0, block_km=1.0),
        CatalogSpec(charger_count=1000, hotspots=0, seed=205),
    ),
}
RADII_KM = (2.0, 10.0, 50.0)


@dataclass(frozen=True)
class Segment:
    """One segment's four searches: origins, adjacencies and arc costs."""

    network: RoadNetwork
    arcs: ArcGraph
    weights: tuple[list[float], list[float]]
    segment: TripSegment
    rejoins: tuple[int, ...]
    budget_h: float
    catalog: CatalogSpec


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
    weights = (
        [float(c) for c in low.batch(arcs.edges)],
        [float(c) for c in high.batch(arcs.edges)],
    )
    estimator = DeroutingEstimator(network, TrafficModel(seed=1))
    return Segment(
        network,
        arcs,
        weights,
        segments[middle],
        rejoin_nodes(segments[middle], segments[middle + 1]),
        estimator.max_derouting_h,
        catalog,
    )


@pytest.fixture(scope="module", params=sorted(CITIES))
def city(request) -> Segment:
    return _segment(request.param)


def _four_searches(case: Segment, pool: list[int] | None) -> int:
    """The segment's four searches; returns the nodes they settled."""
    arcs = case.arcs
    settled = 0
    for weights in case.weights:
        settled += len(
            settle_arcs(
                case.segment.anchor_node, arcs.out_arcs, weights, case.budget_h, arcs.span, pool
            )
        )
        settled += len(
            settle_arcs(case.rejoins, arcs.in_arcs, weights, case.budget_h, arcs.span, pool)
        )
    return settled


@pytest.mark.parametrize("radius_km", RADII_KM)
@pytest.mark.parametrize("mode", ["pool", "full-ball"])
def test_segment_searches(benchmark, city, radius_km, mode):
    anchor = city.network.node(city.segment.anchor_node).point
    registry = generate_catalog(city.network, city.catalog)
    pool = sorted(
        {c.node_id for c in registry.all() if c.point.distance_to(anchor) <= radius_km}
    )
    settled = benchmark.pedantic(
        lambda: _four_searches(city, pool if mode == "pool" else None), rounds=5, iterations=1
    )
    benchmark.extra_info["nodes"] = city.network.node_count
    benchmark.extra_info["pool"] = len(pool)
    benchmark.extra_info["settled"] = settled
