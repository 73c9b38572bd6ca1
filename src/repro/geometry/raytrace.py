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
* Rays are answered from a **per-track blocker index** — the paper's
  "topological ordering" that makes ray tracing cheap.  The first ray
  along a track (a row ``y`` for east/west rays, a column ``x`` for
  north/south ones) collects the rects whose open span straddles
  it, sorted by far edge with a running nearest-near-edge; every later
  ray on that track costs one dict probe and one ``bisect``.  Tracks
  are indexed lazily, one at a time, and never go stale.  The plain
  numpy scan over every rect stays as the reference
  that :func:`~repro.core.pathfinder.reference_search` runs, so the
  oracle keeps checking the index.
* Ray answers are not memoized: a repeated ray costs the same probe
  and ``bisect`` as its first trace, which measured no slower than a
  memo in front of the index.  ``ray_probes`` counts the
  rays traced (``reaches`` counts as four) for the perf harness
  (``benchmarks/bench_x5_hotpath.py``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.point import Direction, Point
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment

#: One side of a track's blocker index: ``(keys, stops, rects)``.  The
#: ray finds its first candidate by bisecting ``keys`` (the rects' far
#: edges, sorted); ``stops[i]``/``rects[i]`` is the nearest near edge
#: among candidates ``i`` onward (ahead side) or up to ``i`` (behind
#: side), earliest-inserted rect on ties.
_Side = tuple[list[int], list[int], list[Rect]]

#: A track's index: ``(ahead, behind)`` — the east and west sides of a
#: row, the north and south sides of a column.
_Track = tuple[_Side, _Side]


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

    @property
    def blocked_by_cell(self) -> bool:
        """True when a cell (not the boundary) stopped the ray."""
        return self.obstacle is not None


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
        # Blocker indexes of the rows (east/west rays) and columns
        # (north/south rays) queried so far.
        self._rows: dict[int, _Track] = {}
        self._cols: dict[int, _Track] = {}
        # Set only by find_path under reference_search: first_hit traces
        # rays with the plain scan, the oracle the index is checked
        # against.  reaches ignores it.
        self._scan_rays = False
        #: Rays traced so far (``reaches`` counts four).
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
    def first_hit(self, origin: Point, direction: Direction) -> Hit:
        """Trace a ray and report how far it can extend.

        Raises
        ------
        GeometryError
            If *origin* lies outside the routing boundary or strictly
            inside an obstacle (rays cannot start from illegal points).
        """
        self.ray_probes += 1
        if self._scan_rays:
            return self._trace(origin, direction)
        x, y = origin.x, origin.y
        bound = self.bound
        if not (bound.x0 <= x <= bound.x1 and bound.y0 <= y <= bound.y1):
            raise GeometryError(f"ray origin {origin} outside routing bound {bound}")
        if direction is Direction.EAST or direction is Direction.WEST:
            row = self._rows.get(y) or self._track(y, True)
            if direction is Direction.EAST:
                found = _ahead(row[0], x, bound.x1)
            else:
                found = _behind(row[1], x, bound.x0)
            if found is None:
                raise GeometryError(f"ray origin {origin} inside an obstacle")
            return Hit(origin, Point(found[0], y), found[1])
        col = self._cols.get(x) or self._track(x, False)
        if direction is Direction.NORTH:
            found = _ahead(col[0], y, bound.y1)
        else:
            found = _behind(col[1], y, bound.y0)
        if found is None:
            raise GeometryError(f"ray origin {origin} inside an obstacle")
        return Hit(origin, Point(x, found[0]), found[1])

    def reaches(self, x: int, y: int) -> tuple[int, int, int, int]:
        """All four ray reaches from ``(x, y)`` in one probe.

        Returns ``(east_x, west_x, north_y, south_y)`` — the ``reach``
        coordinates :meth:`first_hit` reports, with the same
        :class:`GeometryError` for an illegal origin — from two track
        lookups (the row and the column through the origin), without
        building any :class:`Hit`.  The compiled search
        (:mod:`repro.search.vector`) computes the same four reaches per
        expansion by its own scan of :attr:`columns`.  It counts as
        four :attr:`ray_probes`.
        """
        self.ray_probes += 4
        bound = self.bound
        if not (bound.x0 <= x <= bound.x1 and bound.y0 <= y <= bound.y1):
            raise GeometryError(f"ray origin {Point(x, y)} outside routing bound {bound}")
        row = self._rows.get(y) or self._track(y, True)
        col = self._cols.get(x) or self._track(x, False)
        # Each side sees the same straddling rects, so an origin strictly
        # inside one is caught by all four or none.
        east = _ahead(row[0], x, bound.x1)
        if east is None:
            raise GeometryError(f"ray origin {Point(x, y)} inside an obstacle")
        return (
            east[0],
            _behind(row[1], x, bound.x0)[0],
            _ahead(col[0], y, bound.y1)[0],
            _behind(col[1], y, bound.y0)[0],
        )

    def _track(self, coord: int, horizontal: bool) -> _Track:
        """Build and store the blocker index of one row or column.

        A row ``y`` indexes the rects with ``y0 < y < y1`` — the
        only ones an east/west ray along it can enter — and a column
        ``x`` the rects with ``x0 < x < x1``.  The ahead side sorts them
        by far edge (``x1`` on a row) and keeps a suffix minimum of the
        near edge; the behind side sorts them by ``x0`` and keeps a
        prefix maximum of ``x1``.  Ties go to the earliest-inserted
        rect, matching the scan's ``argmin``/``argmax`` over column order.
        """
        if horizontal:
            span_lo, span_hi, lo, hi = self._y0, self._y1, self._x0, self._x1
        else:
            span_lo, span_hi, lo, hi = self._x0, self._x1, self._y0, self._y1
        # flatnonzero keeps column (= insertion) order, so a rect's
        # position here is its tie-break rank.
        straddling = np.flatnonzero((span_lo < coord) & (coord < span_hi))
        rects = [self._rects[i] for i in straddling.tolist()]
        starts = lo[straddling].tolist()
        ends = hi[straddling].tolist()
        ranks = range(len(rects))

        by_end = sorted(ranks, key=ends.__getitem__)
        ahead_stops: list[int] = []
        ahead_rects: list[Rect] = []
        best = None
        for i in reversed(by_end):
            if best is None or (starts[i], i) < best:
                best = (starts[i], i)
            ahead_stops.append(best[0])
            ahead_rects.append(rects[best[1]])
        ahead_stops.reverse()
        ahead_rects.reverse()

        by_start = sorted(ranks, key=starts.__getitem__)
        behind_stops: list[int] = []
        behind_rects: list[Rect] = []
        best = None
        for i in by_start:
            if best is None or (ends[i], -i) > best:
                best = (ends[i], -i)
            behind_stops.append(best[0])
            behind_rects.append(rects[-best[1]])

        track = (
            ([ends[i] for i in by_end], ahead_stops, ahead_rects),
            ([starts[i] for i in by_start], behind_stops, behind_rects),
        )
        (self._rows if horizontal else self._cols)[coord] = track
        return track

    def _trace(self, origin: Point, direction: Direction) -> Hit:
        """The reference ray trace: a numpy scan over every rect.

        Slower than the track index but independent of it; it serves
        rays only under :func:`~repro.core.pathfinder.reference_search`.
        """
        if not self.bound.contains_point(origin):
            raise GeometryError(f"ray origin {origin} outside routing bound {self.bound}")
        if not self.point_free(origin):
            raise GeometryError(f"ray origin {origin} inside an obstacle")
        px, py = origin.x, origin.y
        if direction is Direction.EAST:
            limit = self.bound.x1
            stops = self._ray_stops(self._y0, self._y1, py, self._x1 > px, self._x0, px, +1)
        elif direction is Direction.WEST:
            limit = self.bound.x0
            stops = self._ray_stops(self._y0, self._y1, py, self._x0 < px, self._x1, px, -1)
        elif direction is Direction.NORTH:
            limit = self.bound.y1
            stops = self._ray_stops(self._x0, self._x1, px, self._y1 > py, self._y0, py, +1)
        else:  # SOUTH
            limit = self.bound.y0
            stops = self._ray_stops(self._x0, self._x1, px, self._y0 < py, self._y1, py, -1)

        obstacle: Optional[Rect] = None
        reach_coord = limit
        if stops is not None and stops[0].size:
            coords, indices = stops
            best = int(coords.argmin() if direction.sign > 0 else coords.argmax())
            candidate = int(coords[best])
            closer = candidate < reach_coord if direction.sign > 0 else candidate > reach_coord
            if closer or candidate == reach_coord:
                reach_coord = candidate
                obstacle = self._rects[int(indices[best])]
        reach = (
            origin.with_x(reach_coord) if direction.is_horizontal else origin.with_y(reach_coord)
        )
        return Hit(origin, reach, obstacle)

    def _ray_stops(self, perp_lo, perp_hi, perp_coord, ahead_mask, near_edge, start, sign):
        """Candidate stop coordinates for one ray direction.

        A rect blocks when the ray's fixed coordinate is strictly inside
        the rect's perpendicular span and some part of the rect lies
        ahead.  The stop is the rect's near edge, clamped back to the
        origin when the origin already touches the rect's far column.
        """
        if not self._rects:
            return None
        mask = (perp_lo < perp_coord) & (perp_coord < perp_hi) & ahead_mask
        if not mask.any():
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        indices = np.flatnonzero(mask)
        edges = near_edge[indices]
        if sign > 0:
            coords = np.maximum(edges, start)
        else:
            coords = np.minimum(edges, start)
        return (coords, indices)

    def clear_run(self, origin: Point, direction: Direction) -> Segment:
        """The maximal legal wire segment from *origin* along *direction*."""
        hit = self.first_hit(origin, direction)
        return Segment(origin, hit.reach)


def _ahead(side: _Side, pos: int, limit: int) -> Optional[tuple[int, Optional[Rect]]]:
    """Stop and blocker of a ray heading up the track from *pos*.

    The candidates are the rects whose far edge lies beyond *pos*; the
    nearest near edge among them stops the ray, unless it lies beyond
    the bound *limit*.  ``None`` means one candidate's near edge is
    behind *pos*: the origin is strictly inside that rect.
    """
    keys, stops, rects = side
    i = bisect_right(keys, pos)
    if i == len(keys):
        return limit, None
    stop = stops[i]
    if stop < pos:
        return None
    if stop <= limit:
        return stop, rects[i]
    return limit, None


def _behind(side: _Side, pos: int, limit: int) -> Optional[tuple[int, Optional[Rect]]]:
    """Mirror of :func:`_ahead` for a ray heading down the track."""
    keys, stops, rects = side
    i = bisect_left(keys, pos)
    if not i:
        return limit, None
    stop = stops[i - 1]
    if stop > pos:
        return None
    if stop >= limit:
        return stop, rects[i - 1]
    return limit, None
