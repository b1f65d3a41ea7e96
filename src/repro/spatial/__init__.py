"""Spatial substrate: geometry primitives and in-memory spatial indexes."""

from .bbox import BoundingBox
from .geometry import (
    EARTH_RADIUS_KM,
    GeoPoint,
    LocalProjection,
    Point,
    Segment,
    centroid,
    haversine_km,
    polyline_length,
)
from .grid import GridIndex
from .kdtree import KDTree
from .knn import SpatialIndex, brute_force_knn, brute_force_radius, knn_along_polyline
from .quadtree import QuadTree, QuadTreeStats

__all__ = [
    "BoundingBox",
    "EARTH_RADIUS_KM",
    "GeoPoint",
    "GridIndex",
    "KDTree",
    "LocalProjection",
    "Point",
    "QuadTree",
    "QuadTreeStats",
    "Segment",
    "SpatialIndex",
    "brute_force_knn",
    "brute_force_radius",
    "centroid",
    "haversine_km",
    "knn_along_polyline",
    "polyline_length",
]
