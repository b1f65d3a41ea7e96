"""Road-network substrate: graphs, shortest paths, builders, and trips."""

from .contraction import CHStats, ContractionHierarchy, CustomizedHierarchy
from .distance_engine import (
    BACKENDS,
    DISTANCE_DECIMALS,
    DistanceEngine,
    EngineStats,
    WeightSpec,
)
from .builders import (
    ARTERIAL_KMH,
    COLLECTOR_KMH,
    RESIDENTIAL_KMH,
    NetworkSpec,
    build_city_network,
    build_grid_network,
    build_radial_network,
)
from .graph import (
    DEFAULT_CO2_KG_PER_KWH,
    DEFAULT_KWH_PER_KM,
    EdgeWeight,
    RoadEdge,
    RoadNetwork,
    RoadNode,
)
from .path import DEFAULT_SEGMENT_KM, Trip, TripSegment, resample_polyline
from .shortest_path import (
    NoPathError,
    PathResult,
    dijkstra,
    dijkstra_all,
    dijkstra_all_backward,
    path_cost,
)

__all__ = [
    "ARTERIAL_KMH",
    "BACKENDS",
    "CHStats",
    "COLLECTOR_KMH",
    "ContractionHierarchy",
    "CustomizedHierarchy",
    "DEFAULT_CO2_KG_PER_KWH",
    "DEFAULT_KWH_PER_KM",
    "DEFAULT_SEGMENT_KM",
    "DISTANCE_DECIMALS",
    "DistanceEngine",
    "EdgeWeight",
    "EngineStats",
    "NetworkSpec",
    "NoPathError",
    "PathResult",
    "RESIDENTIAL_KMH",
    "RoadEdge",
    "RoadNetwork",
    "RoadNode",
    "Trip",
    "TripSegment",
    "WeightSpec",
    "build_city_network",
    "build_grid_network",
    "build_radial_network",
    "dijkstra",
    "dijkstra_all",
    "dijkstra_all_backward",
    "path_cost",
    "resample_polyline",
]
