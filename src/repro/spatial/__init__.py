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
from .kdtree import KDTree
from .knn import brute_force_knn, brute_force_radius
from .quadtree import QuadTree, QuadTreeStats

__all__ = [
    "BoundingBox",
    "EARTH_RADIUS_KM",
    "GeoPoint",
    "KDTree",
    "LocalProjection",
    "Point",
    "QuadTree",
    "QuadTreeStats",
    "Segment",
    "brute_force_knn",
    "brute_force_radius",
    "centroid",
    "haversine_km",
    "polyline_length",
]
