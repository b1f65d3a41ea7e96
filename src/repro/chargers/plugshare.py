"""Synthetic PlugShare-style charger catalog generator.

PlugShare supplies the paper with charger locations and rates; offline we
generate a catalog with the same statistical fingerprints: chargers sit on
the road network (parking lots adjoin roads), cluster around a handful of
commercial hot spots, and mix slow AC destination chargers with a minority
of DC fast chargers.  Everything is seeded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network.graph import RoadNetwork
from ..spatial.geometry import Point
from ..spatial.kdtree import KDTree
from .charger import RATE_CLASSES_KW, Charger, PlugType, RenewableSource
from .registry import ChargerRegistry


@dataclass(frozen=True, slots=True)
class CatalogSpec:
    """Parameters for :func:`generate_catalog`.

    ``hotspots`` commercial centres attract ``hotspot_share`` of chargers
    within a Gaussian of ``hotspot_sigma_km``; the rest scatter uniformly
    over the network's nodes.  ``dc_share`` is the fraction of DC fast
    chargers (PlugShare catalogs are AC-dominated).
    """

    charger_count: int = 1000
    hotspots: int = 5
    hotspot_share: float = 0.6
    hotspot_sigma_km: float = 2.0
    dc_share: float = 0.15
    net_metered_share: float = 0.3
    seed: int = 11

    def __post_init__(self) -> None:
        if self.charger_count < 1:
            raise ValueError("charger_count must be positive")
        if self.hotspots < 0:
            raise ValueError("hotspots must be non-negative")
        if not 0.0 <= self.hotspot_share <= 1.0:
            raise ValueError("hotspot_share must be in [0, 1]")
        if not 0.0 <= self.dc_share <= 1.0:
            raise ValueError("dc_share must be in [0, 1]")
        if not 0.0 <= self.net_metered_share <= 1.0:
            raise ValueError("net_metered_share must be in [0, 1]")


def generate_catalog(network: RoadNetwork, spec: CatalogSpec) -> ChargerRegistry:
    """Generate a charger registry over ``network`` according to ``spec``."""
    rng = np.random.default_rng(spec.seed)
    nodes = list(network.nodes())
    if not nodes:
        raise ValueError("network has no nodes to place chargers on")
    node_points = np.array([[n.point.x, n.point.y] for n in nodes])
    tree = network.node_index()
    order = {node.node_id: i for i, node in enumerate(nodes)}

    hotspot_centres = (
        node_points[rng.choice(len(nodes), size=min(spec.hotspots, len(nodes)), replace=False)]
        if spec.hotspots
        else np.empty((0, 2))
    )

    chargers: list[Charger] = []
    for charger_id in range(spec.charger_count):
        anchor = _sample_anchor(rng, node_points, hotspot_centres, spec)
        # Snap to the nearest road node: chargers live on parking lots
        # adjoining the network; the node is what routing queries use.
        node = nodes[_snap(tree, order, node_points, anchor)]
        # Small off-road offset so charger points are not exactly node
        # points (matters for the spatial-index code paths).
        offset = rng.normal(0.0, 0.05, size=2)
        point = Point(node.point.x + float(offset[0]), node.point.y + float(offset[1]))

        plug_type = _sample_plug_type(rng, spec.dc_share)
        rate_kw = float(rng.choice(RATE_CLASSES_KW[plug_type]))
        source = (
            RenewableSource.NET_METERED_FARM
            if rng.uniform() < spec.net_metered_share
            else RenewableSource.LOCAL_SOLAR
        )
        # Carport solar arrays are sized by the parking lot, not by the
        # charger electronics: capacities vary independently of rate, so
        # some slow chargers sit under big arrays (the sustainable gems
        # EcoCharge is meant to surface) and some fast ones under small.
        solar_capacity = float(rng.uniform(5.0, 50.0))
        chargers.append(
            Charger(
                charger_id=charger_id,
                point=point,
                node_id=node.node_id,
                rate_kw=rate_kw,
                plug_type=plug_type,
                plugs=int(rng.integers(1, 3)),
                solar_capacity_kw=solar_capacity,
                source=source,
            )
        )
    return ChargerRegistry(chargers, bounds=network.bounds().expanded(1.0))


def _snap(
    tree: KDTree[int], order: dict[int, int], node_points: np.ndarray, anchor: np.ndarray
) -> int:
    """The index of the node nearest ``anchor``: exactly
    ``argmin(sum((node_points - anchor) ** 2, axis=1))``, first index on
    ties, in O(log |V|) through the network's k-d tree.

    The tree's nearest node bounds the answer.  Every node within a hair
    of it is a candidate, because the tree ranks by ``hypot`` and the
    squared sums may order near-ties differently; the candidates are
    then ranked by the same squared sums ``argmin`` would compare, in
    node order.
    """
    centre = Point(float(anchor[0]), float(anchor[1]))
    [(nearest_km, _, _)] = tree.nearest(centre)
    candidates = sorted(
        order[node_id]
        for _, node_id in tree.query_radius(centre, nearest_km * (1.0 + 1e-9) + 1e-12)
    )
    squared = np.sum((node_points[candidates] - anchor) ** 2, axis=1)
    return candidates[int(np.argmin(squared))]


def _sample_anchor(
    rng: np.random.Generator,
    node_points: np.ndarray,
    hotspot_centres: np.ndarray,
    spec: CatalogSpec,
) -> np.ndarray:
    near_hotspot = len(hotspot_centres) > 0 and rng.uniform() < spec.hotspot_share
    if near_hotspot:
        centre = hotspot_centres[rng.integers(len(hotspot_centres))]
        return centre + rng.normal(0.0, spec.hotspot_sigma_km, size=2)
    return node_points[rng.integers(len(node_points))]


def _sample_plug_type(rng: np.random.Generator, dc_share: float) -> PlugType:
    if rng.uniform() < dc_share:
        return PlugType.CCS if rng.uniform() < 0.8 else PlugType.CHADEMO
    return PlugType.AC_TYPE2
