"""Rectilinear geometry substrate.

This package provides the exact, rectilinear (Manhattan) geometry on
which the whole router is built: points, 1-D intervals, axis-parallel
segments, axis-aligned rectangles, orthogonal polygons, and the
Sutherland-style ray tracer used for successor generation: an
obstacle set built once per layout (grown only by
``ObstacleSet.extended``) whose per-track blocker index stands in for
the topologically ordered point structure of the paper's
implementation section.

Coordinates are arbitrary Python numbers; the routers use exact integer
coordinates ("database units"), and a layout rejects any other.
*Gridless* means no routing grid is imposed on placements or pins —
not that coordinates are continuous.
"""

from repro.geometry.point import Direction, Point, manhattan
from repro.geometry.interval import Interval
from repro.geometry.segment import Segment
from repro.geometry.rect import Rect, bounding_rect
from repro.geometry.orthpoly import OrthoPolygon
from repro.geometry.raytrace import CoordIndex, Hit, ObstacleSet

__all__ = [
    "CoordIndex",
    "Direction",
    "Hit",
    "Interval",
    "ObstacleSet",
    "OrthoPolygon",
    "Point",
    "Rect",
    "Segment",
    "bounding_rect",
    "manhattan",
]
