"""Sutherland-style ray tracing over an obstacle set.

The paper's successor generator needs "a method of detecting when a
path collides with a cell" — implemented here as axis-parallel ray
queries against the set of blocking rectangles: from an origin point,
in one of the four rectilinear directions, how far can a wire extend
before it would enter a cell interior or leave the routing boundary,
and which cell stopped it?

Semantics
---------
* Obstacle rects block with their **open interiors**: a ray may run
  along a cell edge (hugging) or touch a corner without being blocked.
* The routing boundary ("bound") is a hard closed limit: rays stop at
  its edge.
* Point and segment queries are vectorized over int64 numpy columns
  of the rect coordinates so that layouts with hundreds of cells stay
  fast.  The set is **immutable**: the columns and edge indexes are
  built once, in ``__init__``.  A router that routes against a growing
  set (the nets-as-obstacles baseline) asks :meth:`ObstacleSet.extended`
  for a new set with the extra rects appended.
* Rays come four at a time: :meth:`ObstacleSet.rays` traces the east,
  west, north and south rays from a point in one pass over the rects
  that straddle its row or column, as the compiled search
  (``repro/search/escape_astar.c``) does per expansion.  Answers are
  not memoized; ``ray_probes`` counts the rays traced (four per
  point) for the perf harness (``benchmarks/bench_x5_hotpath.py``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment

@dataclass(frozen=True, slots=True)
class Hit:
    """Result of a ray query.

    Attributes
    ----------
    origin:
        The ray origin.
    reach:
        The farthest point the ray may legally extend to.  Equal to
        *origin* when the ray is blocked immediately.
    obstacle:
        The blocking rect, or ``None`` when the ray stopped at the
        routing boundary.
    """

    origin: Point
    reach: Point
    obstacle: Optional[Rect]

    @property
    def distance(self) -> int:
        """Clear distance from origin to reach."""
        return self.origin.manhattan(self.reach)


class CoordIndex:
    """Sorted distinct integer coordinates with range queries, built once."""

    def __init__(self, values: Iterable[int] = ()):
        self._sorted = sorted(set(values))
        self._array = np.asarray(self._sorted, dtype=np.int64)

    def as_array(self) -> np.ndarray:
        """The sorted values as an int64 numpy array.

        Callers must not mutate it.  The compiled search merges it into
        its escape grid once per search instead of calling
        :meth:`between` per ray.
        """
        return self._array

    def __len__(self) -> int:
        return len(self._sorted)

    def __iter__(self) -> Iterator[int]:
        return iter(self._sorted)

    def __contains__(self, value: int) -> bool:
        at = bisect_left(self._sorted, value)
        return at < len(self._sorted) and self._sorted[at] == value

    def between(
        self, lo: int, hi: int, *, include_lo: bool = False, include_hi: bool = False
    ) -> list[int]:
        """Distinct coordinates within ``(lo, hi)``.

        Boundary inclusion is controlled by the keyword flags; the
        default is the open interval, which matches "escape coordinates
        strictly inside a clear ray span".
        """
        if lo > hi:
            lo, hi = hi, lo
        left = bisect_left(self._sorted, lo) if include_lo else bisect_right(self._sorted, lo)
        right = bisect_right(self._sorted, hi) if include_hi else bisect_left(self._sorted, hi)
        return self._sorted[left:right]


class ObstacleSet:
    """A routing boundary plus an immutable set of blocking rectangles.

    Parameters
    ----------
    bound:
        The routing surface.  All queries are confined to it.
    rects:
        The blocking rectangles (typically the layout's cells), in
        insertion order — the order ray ties are broken in.  Degenerate
        rects are legal; having an empty interior they never block, but
        their edge coordinates still register as escape coordinates.
    """

    def __init__(self, bound: Rect, rects: Iterable[Rect] = ()):
        self.bound = bound
        self._rects = tuple(rects)
        columns = np.array(
            [(r.x0, r.y0, r.x1, r.y1) for r in self._rects], dtype=np.int64
        ).reshape(-1, 4).T.copy()
        self._columns = columns
        self._x0, self._y0, self._x1, self._y1 = columns
        self._edge_xs = CoordIndex(
            [bound.x0, bound.x1, *(r.x0 for r in self._rects), *(r.x1 for r in self._rects)]
        )
        self._edge_ys = CoordIndex(
            [bound.y0, bound.y1, *(r.y0 for r in self._rects), *(r.y1 for r in self._rects)]
        )
        #: Rays traced so far (each :meth:`rays` call counts four).
        self.ray_probes = 0

    @property
    def rects(self) -> tuple[Rect, ...]:
        """The blocking rects, in insertion order."""
        return self._rects

    @property
    def columns(self) -> np.ndarray:
        """The rects as a ``(4, n)`` int64 array of ``x0, y0, x1, y1`` rows.

        Rect ``i`` is column ``i`` (insertion order).  Callers must not
        mutate it.  The compiled search scans it for its rays.
        """
        return self._columns

    def extended(self, rects: Iterable[Rect]) -> ObstacleSet:
        """A new set over this one's rects followed by *rects*.

        Appending keeps every existing rect's tie-break rank: on a tie,
        an old rect still beats a new one.
        """
        return ObstacleSet(self.bound, self._rects + tuple(rects))

    # ------------------------------------------------------------------
    # Escape coordinates
    # ------------------------------------------------------------------
    @property
    def edge_xs(self) -> CoordIndex:
        """Sorted index of all rect + boundary x edge coordinates."""
        return self._edge_xs

    @property
    def edge_ys(self) -> CoordIndex:
        """Sorted index of all rect + boundary y edge coordinates."""
        return self._edge_ys

    # ------------------------------------------------------------------
    # Point / segment queries
    # ------------------------------------------------------------------
    def point_free(self, p: Point) -> bool:
        """Whether *p* is routable: inside the bound, outside all interiors."""
        if not self.bound.contains_point(p):
            return False
        return not self._rects or not bool(self._in_interiors(p.x, p.y).any())

    def points_free(self, points: Sequence[Point]) -> list[bool]:
        """:meth:`point_free` of every point in *points*, in one query."""
        free = [self.bound.contains_point(p) for p in points]
        if not self._rects or not points:
            return free
        xs = np.array([p.x for p in points], dtype=np.int64)[:, None]
        ys = np.array([p.y for p in points], dtype=np.int64)[:, None]
        blocked = self._in_interiors(xs, ys).any(axis=1).tolist()
        return [inside and not hit for inside, hit in zip(free, blocked)]

    def _in_interiors(self, x, y) -> np.ndarray:
        """Which rect interiors hold the point(s) ``(x, y)``.

        Scalars give one flag per rect; columns of points give a
        points × rects mask.
        """
        return (self._x0 < x) & (x < self._x1) & (self._y0 < y) & (y < self._y1)

    def segment_free(self, seg: Segment) -> bool:
        """Whether a wire along *seg* is legal (no interior crossings).

        Hugging cell edges is legal; the segment must also lie within
        the routing boundary.
        """
        if not (self.bound.contains_point(seg.a) and self.bound.contains_point(seg.b)):
            return False
        if not self._rects:
            return True
        if seg.is_degenerate:
            return self.point_free(seg.a)
        if seg.is_horizontal:
            y = seg.a.y
            crossing = (
                (self._y0 < y)
                & (y < self._y1)
                & (np.maximum(self._x0, seg.a.x) < np.minimum(self._x1, seg.b.x))
            )
        else:
            x = seg.a.x
            crossing = (
                (self._x0 < x)
                & (x < self._x1)
                & (np.maximum(self._y0, seg.a.y) < np.minimum(self._y1, seg.b.y))
            )
        return not bool(crossing.any())

    def rects_touching(self, p: Point) -> list[Rect]:
        """Rects whose boundary passes through *p*.

        Used by the aggressive successor generator: the cell currently
        being hugged contributes its corner coordinates as escape stops.
        """
        if not self._rects:
            return []
        closed = (
            (self._x0 <= p.x) & (p.x <= self._x1) & (self._y0 <= p.y) & (p.y <= self._y1)
        )
        return [self._rects[i] for i in np.flatnonzero(closed).tolist()]

    def on_any_boundary(self, p: Point) -> bool:
        """Whether *p* lies on any rect's boundary or the routing bound's.

        The vectorized form of ``any(r.on_boundary(p) for r in rects)``
        used by the inverted-corner cost model, which queries it once
        per candidate bend.
        """
        if self._rects:
            px, py = p.x, p.y
            closed = (
                (self._x0 <= px) & (px <= self._x1)
                & (self._y0 <= py) & (py <= self._y1)
            )
            edge = (
                (self._x0 == px) | (self._x1 == px)
                | (self._y0 == py) | (self._y1 == py)
            )
            if (closed & edge).any():
                return True
        return self.bound.on_boundary(p)

    # ------------------------------------------------------------------
    # Ray tracing
    # ------------------------------------------------------------------
    def rays(self, origin: Point) -> tuple[Hit, Hit, Hit, Hit]:
        """The four maximal clear rays from *origin*, in one pass.

        Returns the east, west, north and south :class:`Hit` (the
        order of :data:`~repro.geometry.point.ALL_DIRECTIONS`).  A numpy
        mask picks the rects whose open span straddles the row or the
        column through *origin* — the only ones a ray can enter — and
        one Python pass over them, in insertion order, keeps each ray's
        nearest near edge (the earliest-inserted rect on ties).  A stop
        past the bound yields to the bound; a stop on it is still
        reported with its rect.  The compiled search
        (:mod:`repro.search.vector`) makes the same pass over
        :attr:`columns` per expansion.  Counts as four :attr:`ray_probes`.

        Raises
        ------
        GeometryError
            If *origin* lies outside the routing boundary or strictly
            inside an obstacle (rays cannot start from illegal points).
        """
        self.ray_probes += 4
        x, y = origin.x, origin.y
        bound = self.bound
        if not (bound.x0 <= x <= bound.x1 and bound.y0 <= y <= bound.y1):
            raise GeometryError(f"ray origin {origin} outside routing bound {bound}")
        east = west = north = south = None
        east_by = west_by = north_by = south_by = None
        if self._rects:
            near = ((self._y0 < y) & (y < self._y1)) | ((self._x0 < x) & (x < self._x1))
            for i in np.flatnonzero(near).tolist():
                rect = self._rects[i]
                if rect.y0 < y < rect.y1:
                    if rect.x0 < x < rect.x1:
                        raise GeometryError(f"ray origin {origin} inside an obstacle")
                    if x < rect.x1:
                        if east is None or rect.x0 < east:
                            east, east_by = rect.x0, rect
                    elif rect.x0 < x and (west is None or rect.x1 > west):
                        west, west_by = rect.x1, rect
                # Not on the row, so the mask picked it for the column.
                elif y < rect.y1:
                    if north is None or rect.y0 < north:
                        north, north_by = rect.y0, rect
                elif rect.y0 < y and (south is None or rect.y1 > south):
                    south, south_by = rect.y1, rect
        if east is None or east > bound.x1:
            east, east_by = bound.x1, None
        if west is None or west < bound.x0:
            west, west_by = bound.x0, None
        if north is None or north > bound.y1:
            north, north_by = bound.y1, None
        if south is None or south < bound.y0:
            south, south_by = bound.y0, None
        return (
            Hit(origin, Point(east, y), east_by),
            Hit(origin, Point(west, y), west_by),
            Hit(origin, Point(x, north), north_by),
            Hit(origin, Point(x, south), south_by),
        )
