"""Axis-parallel (rectilinear) line segments.

Per the paper's implementation section, "points are linked dynamically
to form line segments which can either be edges of boxes (cells) or
segments of wire nets".  :class:`Segment` is that shared primitive: cell
edges, global-route wire segments, probe lines in the Hightower
baseline, and detailed-router track wires are all segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.interval import Interval
from repro.geometry.point import Point


@dataclass(frozen=True, slots=True)
class Segment:
    """A closed axis-parallel segment between two points.

    Endpoints are normalized so that ``a <= b`` lexicographically, which
    makes equal geometric segments compare equal regardless of
    construction order.  Degenerate segments (``a == b``) are allowed;
    they arise from zero-length connection stubs and behave as points.

    Raises
    ------
    GeometryError
        If the endpoints are neither horizontally nor vertically
        aligned (diagonal segments are outside the Manhattan domain).
    """

    a: Point
    b: Point

    def __post_init__(self) -> None:
        if self.a.x != self.b.x and self.a.y != self.b.y:
            raise GeometryError(f"segment {self.a}-{self.b} is not axis-parallel")
        if self.b < self.a:
            # Normalize endpoint order; bypass frozen-ness deliberately.
            first, second = self.b, self.a
            object.__setattr__(self, "a", first)
            object.__setattr__(self, "b", second)

    # ------------------------------------------------------------------
    # Orientation and coordinates
    # ------------------------------------------------------------------
    @property
    def is_horizontal(self) -> bool:
        """True when both endpoints share a y coordinate.

        Degenerate segments report horizontal and vertical both True.
        """
        return self.a.y == self.b.y

    @property
    def is_vertical(self) -> bool:
        """True when both endpoints share an x coordinate."""
        return self.a.x == self.b.x

    @property
    def is_degenerate(self) -> bool:
        """True for a zero-length (single-point) segment."""
        return self.a == self.b

    @property
    def track(self) -> int:
        """The fixed coordinate: y for horizontal segments, x for vertical."""
        return self.a.y if self.is_horizontal else self.a.x

    @property
    def span(self) -> Interval:
        """Interval of the varying coordinate."""
        if self.is_horizontal:
            return Interval(self.a.x, self.b.x)
        return Interval(self.a.y, self.b.y)

    @property
    def length(self) -> int:
        """Manhattan length of the segment."""
        return self.a.manhattan(self.b)

    # ------------------------------------------------------------------
    # Point relationships
    # ------------------------------------------------------------------
    def contains_point(self, p: Point) -> bool:
        """Whether *p* lies on the closed segment."""
        if self.is_horizontal and p.y == self.a.y:
            return self.a.x <= p.x <= self.b.x
        if self.is_vertical and p.x == self.a.x:
            return self.a.y <= p.y <= self.b.y
        return False

    # ------------------------------------------------------------------
    # Segment relationships
    # ------------------------------------------------------------------
    def is_collinear_with(self, other: "Segment") -> bool:
        """Same orientation and same track coordinate."""
        if self.is_horizontal and other.is_horizontal:
            return self.a.y == other.a.y
        if self.is_vertical and other.is_vertical:
            return self.a.x == other.a.x
        return False

    def overlap(self, other: "Segment") -> Optional["Segment"]:
        """Shared sub-segment of two collinear segments, else ``None``.

        Touching at a single point yields a degenerate segment.
        """
        if not self.is_collinear_with(other):
            return None
        if self.is_degenerate or other.is_degenerate:
            # A degenerate operand's span axis is ambiguous; resolve by
            # the point-on-segment test, which is symmetric.
            point_seg, seg = (self, other) if self.is_degenerate else (other, self)
            p = point_seg.a
            return Segment(p, p) if seg.contains_point(p) else None
        shared = self.span.intersection(other.span)
        if shared is None:
            return None
        if self.is_horizontal:
            y = self.a.y
            return Segment(Point(shared.lo, y), Point(shared.hi, y))
        x = self.a.x
        return Segment(Point(x, shared.lo), Point(x, shared.hi))

    def crossing_point(self, other: "Segment") -> Optional[Point]:
        """Intersection point of two perpendicular segments, else ``None``.

        Endpoint touches count as crossings; collinear overlaps return
        ``None`` (use :meth:`overlap` for those).
        """
        h, v = None, None
        if self.is_horizontal and other.is_vertical and not other.is_horizontal:
            h, v = self, other
        elif self.is_vertical and other.is_horizontal and not self.is_horizontal:
            h, v = other, self
        elif self.is_degenerate or other.is_degenerate:
            # A point "crosses" a segment if it lies on it.
            point_seg, seg = (self, other) if self.is_degenerate else (other, self)
            return point_seg.a if seg.contains_point(point_seg.a) else None
        if h is None or v is None:
            return None
        candidate = Point(v.a.x, h.a.y)
        if h.contains_point(candidate) and v.contains_point(candidate):
            return candidate
        return None

    def intersects(self, other: "Segment") -> bool:
        """Whether the two closed segments share at least one point."""
        if self.crossing_point(other) is not None:
            return True
        return self.overlap(other) is not None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def horizontal(y: int, x0: int, x1: int) -> "Segment":
        """Horizontal segment at height *y* spanning ``[x0, x1]``."""
        return Segment(Point(x0, y), Point(x1, y))

    @staticmethod
    def vertical(x: int, y0: int, y1: int) -> "Segment":
        """Vertical segment at abscissa *x* spanning ``[y0, y1]``."""
        return Segment(Point(x, y0), Point(x, y1))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.a}--{self.b}"


def path_length(points: Sequence[Point]) -> int:
    """Total rectilinear length of a polyline given as bend points.

    Raises :class:`GeometryError` if consecutive points are not
    axis-aligned (the polyline would not be rectilinear).
    """
    total = 0
    for a, b in zip(points, points[1:]):
        if a.x != b.x and a.y != b.y:
            raise GeometryError(f"polyline hop {a}->{b} is not rectilinear")
        total += a.manhattan(b)
    return total


def path_segments(points: Sequence[Point]) -> list[Segment]:
    """Convert polyline bend points into the list of non-degenerate segments."""
    segs: list[Segment] = []
    for a, b in zip(points, points[1:]):
        if a != b:
            segs.append(Segment(a, b))
    return segs


def segment_rows(segments: Sequence[Segment]) -> np.ndarray:
    """The read-only ``(4, n)`` int64 rows ``horizontal, track, lo, hi``
    of *segments*, the one integer form of routed wires.

    Column ``i`` is segment ``i``: ``horizontal`` is 1 or 0, ``track``
    and ``lo, hi`` are :attr:`Segment.track` and the ends of
    :attr:`Segment.span`.  A degenerate segment counts as horizontal,
    as it does for :attr:`Segment.is_horizontal`.  The congestion
    ledger, the verifier and the detailed router read these rows
    instead of the properties, which build a fresh :class:`Interval`
    on every access.
    """
    flat: list[int] = []
    for s in segments:
        # Segments are normalized a <= b, so a holds the low end.
        flat += (1, s.a.y, s.a.x, s.b.x) if s.a.y == s.b.y else (0, s.a.x, s.a.y, s.b.y)
    return _frozen_rows(flat)


def path_hops(points: Sequence[Point]) -> np.ndarray:
    """:func:`segment_rows` of a rectilinear polyline's
    :func:`path_segments`, built without them."""
    flat: list[int] = []
    for a, b in zip(points, points[1:]):
        if a.y == b.y:
            if a.x != b.x:
                flat += (1, a.y, a.x, b.x) if a.x < b.x else (1, a.y, b.x, a.x)
        else:
            flat += (0, a.x, a.y, b.y) if a.y < b.y else (0, a.x, b.y, a.y)
    return _frozen_rows(flat)


def _frozen_rows(flat: list[int]) -> np.ndarray:
    # A copy, so the table owns its data and no (n, 4) base stays alive.
    rows = np.array(flat, dtype=np.int64).reshape(-1, 4).T.copy()
    rows.flags.writeable = False
    return rows


def path_bends(points: Sequence[Point]) -> int:
    """Number of direction changes in a rectilinear polyline.

    Collinear intermediate points are ignored; degenerate hops are
    skipped.  A straight wire has zero bends.
    """
    directions: list[tuple[int, int]] = []
    for a, b in zip(points, points[1:]):
        if a == b:
            continue
        dx = (b.x > a.x) - (b.x < a.x)
        dy = (b.y > a.y) - (b.y < a.y)
        if directions and directions[-1] == (dx, dy):
            continue
        directions.append((dx, dy))
    return max(0, len(directions) - 1)
