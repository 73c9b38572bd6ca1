"""Axis-aligned rectangles.

Cells ("blocks") in a general-cell layout are rectangles, per the
paper's first placement restriction.  A :class:`Rect` is closed — it
includes its boundary — but routing semantics treat the *interior* as
blocked and the boundary as routable, because "optimal paths need only
hug the boundaries of cells".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import GeometryError
from repro.geometry.interval import Interval
from repro.geometry.point import Point
from repro.geometry.segment import Segment


@dataclass(frozen=True, slots=True, order=True)
class Rect:
    """A closed axis-aligned rectangle ``[x0, x1] x [y0, y1]``.

    Degenerate rectangles (zero width and/or height) are allowed; they
    represent segments or points and are used for inflated wire
    obstacles in the sequential-routing baseline.
    """

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise GeometryError(
                f"rect corners out of order: ({self.x0},{self.y0})-({self.x1},{self.y1})"
            )

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Extent along x."""
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        """Extent along y."""
        return self.y1 - self.y0

    @property
    def area(self) -> int:
        """``width * height``."""
        return self.width * self.height

    @property
    def half_perimeter(self) -> int:
        """``width + height`` — the HPWL contribution of this bounding box."""
        return self.width + self.height

    @property
    def x_span(self) -> Interval:
        """The closed x interval."""
        return Interval(self.x0, self.x1)

    @property
    def y_span(self) -> Interval:
        """The closed y interval."""
        return Interval(self.y0, self.y1)

    @property
    def center(self) -> Point:
        """Integer center (rounded toward the lower-left on odd extents)."""
        return Point((self.x0 + self.x1) // 2, (self.y0 + self.y1) // 2)

    @property
    def corners(self) -> tuple[Point, Point, Point, Point]:
        """Corners in counter-clockwise order from the lower-left."""
        return (
            Point(self.x0, self.y0),
            Point(self.x1, self.y0),
            Point(self.x1, self.y1),
            Point(self.x0, self.y1),
        )

    @property
    def edges(self) -> tuple[Segment, Segment, Segment, Segment]:
        """Boundary edges: bottom, right, top, left."""
        bl, br, tr, tl = self.corners
        return (Segment(bl, br), Segment(br, tr), Segment(tl, tr), Segment(bl, tl))

    # ------------------------------------------------------------------
    # Point relationships
    # ------------------------------------------------------------------
    def contains_point(self, p: Point, *, strict: bool = False) -> bool:
        """Whether *p* is inside the rect.

        ``strict=True`` tests the open interior — the blocking test for
        routing, since cell boundaries remain routable.
        """
        x, y = p.x, p.y
        if strict:
            return self.x0 < x < self.x1 and self.y0 < y < self.y1
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def on_boundary(self, p: Point) -> bool:
        """Whether *p* lies exactly on the rectangle's boundary."""
        x, y = p.x, p.y
        return (
            self.x0 <= x <= self.x1
            and self.y0 <= y <= self.y1
            and (x == self.x0 or x == self.x1 or y == self.y0 or y == self.y1)
        )

    # ------------------------------------------------------------------
    # Rect relationships
    # ------------------------------------------------------------------
    def contains_rect(self, other: "Rect") -> bool:
        """Whether *other* lies entirely within this closed rect."""
        return (
            self.x0 <= other.x0
            and other.x1 <= self.x1
            and self.y0 <= other.y0
            and other.y1 <= self.y1
        )

    def intersects(self, other: "Rect", *, strict: bool = False) -> bool:
        """Whether the rects share points.

        ``strict=True`` requires the open interiors to overlap — the
        test for an illegal cell overlap, since touching boundaries do
        not constitute overlap.
        """
        if strict:
            return (
                self.x0 < other.x1 and other.x0 < self.x1
                and self.y0 < other.y1 and other.y0 < self.y1
            )
        return (
            self.x0 <= other.x1 and other.x0 <= self.x1
            and self.y0 <= other.y1 and other.y0 <= self.y1
        )

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """Shared closed rect, or ``None`` when disjoint."""
        xs = self.x_span.intersection(other.x_span)
        ys = self.y_span.intersection(other.y_span)
        if xs is None or ys is None:
            return None
        return Rect(xs.lo, ys.lo, xs.hi, ys.hi)

    def hull(self, other: "Rect") -> "Rect":
        """Smallest rect containing both operands."""
        return Rect(
            min(self.x0, other.x0),
            min(self.y0, other.y0),
            max(self.x1, other.x1),
            max(self.y1, other.y1),
        )

    def separation(self, other: "Rect") -> int:
        """Rectilinear gap between two rects (0 when touching/overlapping).

        This is the quantity constrained by the paper's third placement
        restriction: blocks must be "placed a finite and non-zero
        distance apart".
        """
        return self.x_span.gap_to(other.x_span) + self.y_span.gap_to(other.y_span)

    # ------------------------------------------------------------------
    # Segment relationships
    # ------------------------------------------------------------------
    def segment_crosses_interior(self, seg: Segment) -> bool:
        """Whether an axis-parallel segment passes through the open interior.

        Running along the boundary (hugging) does not count; neither
        does touching a corner or edge from outside.  This is the
        validity test for global-route wires; the route verifier
        applies it as one segments x rects broadcast, which the
        columnar parity suite checks against this form.
        """
        if seg.is_degenerate:
            return self.contains_point(seg.a, strict=True)
        if seg.is_horizontal:
            if not self.y_span.contains(seg.a.y, strict=True):
                return False
            return seg.span.overlaps(self.x_span, strict=True)
        if not self.x_span.contains(seg.a.x, strict=True):
            return False
        return seg.span.overlaps(self.y_span, strict=True)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def inflated(self, margin: int) -> "Rect":
        """The rect grown by *margin* on all four sides.

        A negative margin shrinks the rect; shrinking past a degenerate
        rect raises :class:`GeometryError`.
        """
        return Rect(self.x0 - margin, self.y0 - margin, self.x1 + margin, self.y1 + margin)

    def translated(self, dx: int, dy: int) -> "Rect":
        """The rect displaced by ``(dx, dy)``."""
        return Rect(self.x0 + dx, self.y0 + dy, self.x1 + dx, self.y1 + dy)

    @staticmethod
    def from_points(a: Point, b: Point) -> "Rect":
        """Bounding rect of two points (any relative order)."""
        return Rect(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))

    @staticmethod
    def from_segment(seg: Segment) -> "Rect":
        """Degenerate rect covering a segment."""
        return Rect.from_points(seg.a, seg.b)

    @staticmethod
    def from_origin_size(x: int, y: int, width: int, height: int) -> "Rect":
        """Rect with lower-left corner ``(x, y)`` and the given extents."""
        if width < 0 or height < 0:
            raise GeometryError(f"negative size {width}x{height}")
        return Rect(x, y, x + width, y + height)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.x0},{self.y0} .. {self.x1},{self.y1}]"


def bounding_rect(points: Iterable[Point]) -> Rect:
    """Smallest rect containing every point in *points*.

    Raises :class:`GeometryError` on an empty iterable.
    """
    pts = list(points)
    if not pts:
        raise GeometryError("cannot bound an empty point collection")
    return Rect(
        min(p.x for p in pts),
        min(p.y for p in pts),
        max(p.x for p in pts),
        max(p.y for p in pts),
    )
