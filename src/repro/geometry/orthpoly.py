"""Orthogonal (rectilinear) polygons.

The paper's Extensions section proposes "orthogonal polygons for the
cell boundaries" as a generalization beyond rectangles, noting that the
successor generator must then "leave no stone unturned".  This module
provides the polygon primitive plus a slab decomposition into
rectangles, which is how the routers consume polygonal cells: the
interior is blocked via the decomposition while hugging uses the
polygon's own edge coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment


@dataclass(frozen=True)
class OrthoPolygon:
    """A simple rectilinear polygon given by its boundary vertices.

    Vertices are listed in order (either winding); the closing edge from
    the last vertex back to the first is implicit.  Consecutive edges
    must alternate between horizontal and vertical, so every vertex is a
    true corner.

    Raises
    ------
    GeometryError
        For fewer than 4 vertices, non-axis-parallel edges, zero-length
        edges, repeated vertices, or edges that fail to alternate.
    """

    vertices: tuple[Point, ...]
    _edges: tuple[Segment, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, vertices: Sequence[Point] | Iterable[Point]):
        verts = tuple(vertices)
        if len(verts) < 4:
            raise GeometryError(f"orthogonal polygon needs >= 4 vertices, got {len(verts)}")
        if len(set(verts)) != len(verts):
            raise GeometryError("orthogonal polygon has repeated vertices")
        edges = []
        n = len(verts)
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            if a == b:
                raise GeometryError(f"zero-length edge at vertex {i}")
            edges.append(Segment(a, b))  # raises if diagonal
        for i in range(n):
            prev_horizontal = verts[i].y == verts[(i + 1) % n].y
            next_horizontal = verts[(i + 1) % n].y == verts[(i + 2) % n].y
            if prev_horizontal == next_horizontal:
                raise GeometryError(f"edges around vertex {(i + 1) % n} do not alternate")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_edges", tuple(edges))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def edges(self) -> tuple[Segment, ...]:
        """Boundary edges in vertex order (closing edge included)."""
        return self._edges

    @property
    def bounding_box(self) -> Rect:
        """Smallest rect containing the polygon."""
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    @property
    def area(self) -> int:
        """Enclosed area via the shoelace formula (always positive)."""
        total = 0
        n = len(self.vertices)
        for i in range(n):
            a, b = self.vertices[i], self.vertices[(i + 1) % n]
            total += a.x * b.y - b.x * a.y
        return abs(total) // 2

    # ------------------------------------------------------------------
    # Containment
    # ------------------------------------------------------------------
    def on_boundary(self, p: Point) -> bool:
        """Whether *p* lies on any boundary edge."""
        return any(edge.contains_point(p) for edge in self._edges)

    def contains_point(self, p: Point, *, strict: bool = False) -> bool:
        """Point-in-polygon test.

        Boundary points are inside unless ``strict=True`` (open-interior
        test, used for blocking).  Implemented by crossing count against
        the vertical edges along a horizontal ray cast at a half-integer
        height, which avoids degenerate edge-collinear cases entirely.
        """
        if self.on_boundary(p):
            return not strict
        # Cast the ray at y + 0.5 so it can never be collinear with a
        # horizontal edge nor pass through a vertex (coordinates are
        # integers).  Count vertical-edge crossings to the east.
        ray_y = p.y + 0.5
        crossings = 0
        for edge in self._edges:
            if not edge.is_vertical or edge.is_degenerate:
                continue
            if edge.a.x <= p.x:
                continue
            if edge.span.lo < ray_y < edge.span.hi:
                crossings += 1
        inside_upper = crossings % 2 == 1
        # The point is interior iff both the ray above and the ray below
        # report inside; a point in a notch exactly at the local y of a
        # boundary could otherwise be misclassified.
        ray_y = p.y - 0.5
        crossings = 0
        for edge in self._edges:
            if not edge.is_vertical or edge.is_degenerate:
                continue
            if edge.a.x <= p.x:
                continue
            if edge.span.lo < ray_y < edge.span.hi:
                crossings += 1
        inside_lower = crossings % 2 == 1
        return inside_upper and inside_lower

    # ------------------------------------------------------------------
    # Decomposition
    # ------------------------------------------------------------------
    def to_rects(self) -> list[Rect]:
        """Decompose the interior into disjoint horizontal slabs.

        Returns maximal-width rectangles whose union is exactly the
        polygon (their summed area equals :attr:`area`).  Slab seams are
        shared boundaries; :attr:`~repro.layout.cell.Cell.blocking_rects`
        bridges them so no wire runs along one.
        """
        ys = sorted({v.y for v in self.vertices})
        rects: list[Rect] = []
        for y_lo, y_hi in zip(ys, ys[1:]):
            mid = (y_lo + y_hi) / 2
            # Vertical edges crossing the slab midline, in x order, bound
            # alternating inside/outside spans.
            crossing_xs = sorted(
                edge.a.x
                for edge in self._edges
                if edge.is_vertical and not edge.is_degenerate and edge.span.lo < mid < edge.span.hi
            )
            if len(crossing_xs) % 2 != 0:
                raise GeometryError("polygon is not simple: odd crossing count")
            for x_lo, x_hi in zip(crossing_xs[::2], crossing_xs[1::2]):
                rects.append(Rect(x_lo, y_lo, x_hi, y_hi))
        return _coalesce_slabs(rects)

    @staticmethod
    def from_rect(rect: Rect) -> "OrthoPolygon":
        """The 4-vertex polygon matching *rect* (must be non-degenerate)."""
        if rect.width == 0 or rect.height == 0:
            raise GeometryError(f"cannot build polygon from degenerate rect {rect}")
        return OrthoPolygon(rect.corners)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "Poly[" + " ".join(str(v) for v in self.vertices) + "]"


def _coalesce_slabs(rects: list[Rect]) -> list[Rect]:
    """Merge vertically adjacent slabs with identical x spans.

    Slab decomposition splits at every vertex y; stacked slabs with the
    same width are merged back so rect counts stay small.
    """
    rects = sorted(rects, key=lambda r: (r.x0, r.x1, r.y0))
    merged: list[Rect] = []
    for rect in rects:
        if (
            merged
            and merged[-1].x0 == rect.x0
            and merged[-1].x1 == rect.x1
            and merged[-1].y1 == rect.y0
        ):
            merged[-1] = Rect(rect.x0, merged[-1].y0, rect.x1, rect.y1)
        else:
            merged.append(rect)
    return merged
