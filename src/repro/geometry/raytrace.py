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
* Point and segment queries are vectorized over numpy arrays of the
  rect coordinates so that layouts with hundreds of cells stay fast;
  the arrays are maintained **incrementally**: ``add``/``add_many``
  append new coordinate columns in place (amortized growth) and
  ``remove`` masks the victim's column with an out-of-bound sentinel
  instead of rebuilding everything, so wire-obstacle churn in the
  sequential baseline stays cheap.  Dead columns are compacted away
  once they outnumber the live ones.
* Rays are answered from a **per-track blocker index** — the paper's
  "topological ordering" that makes ray tracing cheap.  The first ray
  along a track (a row ``y`` for east/west rays, a column ``x`` for
  north/south ones) collects the live rects whose open span straddles
  it, sorted by far edge with a running nearest-near-edge; every later
  ray on that track costs one dict probe and one ``bisect``.  The
  index is dropped on every mutation and rebuilt lazily, one track at
  a time.  The plain numpy scan over every rect stays as the reference
  that :func:`~repro.core.pathfinder.reference_search` runs, so the
  oracle keeps checking the index.
* Every mutation bumps an **epoch counter**.  Ray answers are also
  memoized per epoch — the memo is dropped whenever the epoch
  advances — so repeated queries against a static set (the
  negotiation engine re-searches the same layout every iteration) are
  answered from the cache.  Hit/miss counters are exposed for the perf
  harness (``benchmarks/bench_x5_hotpath.py``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.point import Direction, Point
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment
from repro.geometry.topology import CoordIndex

#: Memo entries kept before the ray cache is wholesale cleared.  The
#: distinct (origin, direction) pairs a search touches are bounded by
#: the escape-point graph, so this is a runaway guard, not a tuning knob.
RAY_CACHE_LIMIT = 1 << 20

#: Dead columns tolerated before :meth:`ObstacleSet._compact` runs.
_COMPACT_SLACK = 64

_INITIAL_CAPACITY = 16

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


class ObstacleSet:
    """A routing boundary plus a mutable set of blocking rectangles.

    Parameters
    ----------
    bound:
        The routing surface.  All queries are confined to it.
    rects:
        Initial blocking rectangles (typically the layout's cells).
        Degenerate rects are legal; having an empty interior they never
        block, but their edge coordinates still register as escape
        coordinates.
    ray_cache:
        Memoize :meth:`first_hit` per epoch (default on).  Turning the
        cache off yields byte-identical query results — it exists for
        A/B perf measurement and debugging.
    """

    def __init__(self, bound: Rect, rects: Iterable[Rect] = (), *, ray_cache: bool = True):
        self.bound = bound
        # Slot-addressed storage: _slots[i] is the rect occupying numpy
        # column i, or None once removed.  _ids maps each rect value to
        # its live slot ids so removal is O(1) instead of a list scan.
        self._slots: list[Optional[Rect]] = []
        self._ids: dict[Rect, list[int]] = {}
        self._count = 0  # used columns, dead ones included
        self._live = 0
        capacity = _INITIAL_CAPACITY
        self._x0 = np.empty(capacity, dtype=np.int64)
        self._y0 = np.empty(capacity, dtype=np.int64)
        self._x1 = np.empty(capacity, dtype=np.int64)
        self._y1 = np.empty(capacity, dtype=np.int64)
        # Dead-column sentinel: a degenerate point strictly outside the
        # bound fails every open-interval, closed-touch, and ray-stop
        # test, so masked columns are inert without a separate mask pass.
        self._dead_x = bound.x1 + 1
        self._dead_y = bound.y1 + 1
        self._edge_xs = CoordIndex((bound.x0, bound.x1))
        self._edge_ys = CoordIndex((bound.y0, bound.y1))
        self._epoch = 0
        self.ray_cache_enabled = ray_cache
        self._ray_cache: dict[tuple[int, int, Direction], Hit] = {}
        self._reach_cache: dict[tuple[int, int], tuple[int, int, int, int]] = {}
        # Per-epoch blocker indexes of the rows (east/west rays) and
        # columns (north/south rays) queried so far.
        self._rows: dict[int, _Track] = {}
        self._cols: dict[int, _Track] = {}
        # Set only by find_path under reference_search: first_hit traces
        # rays with the plain scan, the oracle the index is checked
        # against.  reaches ignores it; only the batched search, which
        # the reference never runs, calls reaches.
        self._scan_rays = False
        self.ray_cache_hits = 0
        self.ray_cache_misses = 0
        self._sync_views()
        for rect in rects:
            self._append(rect)
        self._sync_views()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    @property
    def rects(self) -> tuple[Rect, ...]:
        """The current blocking rects (read-only view, insertion order)."""
        return tuple(r for r in self._slots if r is not None)

    @property
    def epoch(self) -> int:
        """Mutation counter; bumps on every ``add``/``add_many``/``remove``.

        Cached ray answers are only ever served within the epoch they
        were computed in.
        """
        return self._epoch

    def add(self, rect: Rect) -> None:
        """Add a blocking rect (used by nets-as-obstacles baselines)."""
        self._append(rect)
        self._sync_views()
        self._mutated()

    def add_many(self, rects: Iterable[Rect]) -> None:
        """Add several blocking rects at once (one epoch bump)."""
        for rect in rects:
            self._append(rect)
        self._sync_views()
        self._mutated()

    def remove(self, rect: Rect) -> None:
        """Remove one occurrence of *rect*.

        Raises :class:`GeometryError` if absent.  O(1) via the id-map
        (plus an occasional compaction sweep), not a list scan.
        """
        ids = self._ids.get(rect)
        if not ids:
            raise GeometryError(f"rect {rect} not in obstacle set")
        slot = ids.pop()
        if not ids:
            del self._ids[rect]
        self._slots[slot] = None
        self._x0[slot] = self._x1[slot] = self._dead_x
        self._y0[slot] = self._y1[slot] = self._dead_y
        self._live -= 1
        for index, coords in ((self._edge_xs, (rect.x0, rect.x1)),
                              (self._edge_ys, (rect.y0, rect.y1))):
            for coord in coords:
                index.remove(coord)
        dead = self._count - self._live
        if dead > _COMPACT_SLACK and dead > self._live:
            self._compact()
        self._mutated()

    def _append(self, rect: Rect, *, register_edges: bool = True) -> None:
        """Install *rect* in the next free column (no epoch bump)."""
        slot = self._count
        if slot == len(self._x0):
            grown = max(_INITIAL_CAPACITY, 2 * len(self._x0))
            for name in ("_x0", "_y0", "_x1", "_y1"):
                old = getattr(self, name)
                new = np.empty(grown, dtype=np.int64)
                new[:slot] = old[:slot]
                setattr(self, name, new)
        self._x0[slot] = rect.x0
        self._y0[slot] = rect.y0
        self._x1[slot] = rect.x1
        self._y1[slot] = rect.y1
        self._slots.append(rect)
        self._ids.setdefault(rect, []).append(slot)
        self._count += 1
        self._live += 1
        if register_edges:
            self._edge_xs.add(rect.x0)
            self._edge_xs.add(rect.x1)
            self._edge_ys.add(rect.y0)
            self._edge_ys.add(rect.y1)

    def _compact(self) -> None:
        """Drop dead columns, preserving live insertion order.

        Geometry is unchanged, so the epoch (and any cached answers)
        survive compaction.  Slot numbers do not, which is why the track
        index stores rects, never slots.
        """
        live = [r for r in self._slots if r is not None]
        self._slots = []
        self._ids = {}
        self._count = 0
        self._live = 0
        for rect in live:
            self._append(rect, register_edges=False)
        self._sync_views()

    def _sync_views(self) -> None:
        """Refresh the used-column array views after a mutation."""
        count = self._count
        self._vx0 = self._x0[:count]
        self._vy0 = self._y0[:count]
        self._vx1 = self._x1[:count]
        self._vy1 = self._y1[:count]

    def _mutated(self) -> None:
        """Advance the epoch and invalidate memoized ray answers."""
        self._epoch += 1
        if self._ray_cache:
            self._ray_cache.clear()
        if self._reach_cache:
            self._reach_cache.clear()
        if self._rows:
            self._rows.clear()
        if self._cols:
            self._cols.clear()

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
        return not self._count or not bool(self._in_interiors(p.x, p.y).any())

    def points_free(self, points: Sequence[Point]) -> list[bool]:
        """:meth:`point_free` of every point in *points*, in one query."""
        free = [self.bound.contains_point(p) for p in points]
        if not self._count or not points:
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
        return (self._vx0 < x) & (x < self._vx1) & (self._vy0 < y) & (y < self._vy1)

    def segment_free(self, seg: Segment) -> bool:
        """Whether a wire along *seg* is legal (no interior crossings).

        Hugging cell edges is legal; the segment must also lie within
        the routing boundary.
        """
        if not (self.bound.contains_point(seg.a) and self.bound.contains_point(seg.b)):
            return False
        if not self._count:
            return True
        if seg.is_degenerate:
            return self.point_free(seg.a)
        if seg.is_horizontal:
            y = seg.a.y
            crossing = (
                (self._vy0 < y)
                & (y < self._vy1)
                & (np.maximum(self._vx0, seg.a.x) < np.minimum(self._vx1, seg.b.x))
            )
        else:
            x = seg.a.x
            crossing = (
                (self._vx0 < x)
                & (x < self._vx1)
                & (np.maximum(self._vy0, seg.a.y) < np.minimum(self._vy1, seg.b.y))
            )
        return not bool(crossing.any())

    def rects_touching(self, p: Point) -> list[Rect]:
        """Rects whose boundary passes through *p*.

        Used by the aggressive successor generator: the cell currently
        being hugged contributes its corner coordinates as escape stops.
        """
        if not self._count:
            return []
        closed = (
            (self._vx0 <= p.x) & (p.x <= self._vx1) & (self._vy0 <= p.y) & (p.y <= self._vy1)
        )
        touching = (self._slots[i] for i in np.flatnonzero(closed))
        return [rect for rect in touching if rect is not None]

    def on_any_boundary(self, p: Point) -> bool:
        """Whether *p* lies on any rect's boundary or the routing bound's.

        The vectorized form of ``any(r.on_boundary(p) for r in rects)``
        used by the inverted-corner cost model, which queries it once
        per candidate bend.
        """
        if self._count:
            px, py = p.x, p.y
            closed = (
                (self._vx0 <= px) & (px <= self._vx1)
                & (self._vy0 <= py) & (py <= self._vy1)
            )
            edge = (
                (self._vx0 == px) | (self._vx1 == px)
                | (self._vy0 == py) | (self._vy1 == py)
            )
            matches = closed & edge
            if matches.any():
                # Dead columns hold an out-of-bound sentinel point; it
                # can only match a query at that exact point, but rule
                # it out anyway rather than rely on callers staying
                # inside the bound.
                if any(self._slots[i] is not None for i in np.flatnonzero(matches)):
                    return True
        return self.bound.on_boundary(p)

    # ------------------------------------------------------------------
    # Ray tracing
    # ------------------------------------------------------------------
    def first_hit(self, origin: Point, direction: Direction) -> Hit:
        """Trace a ray and report how far it can extend.

        Answers are memoized per epoch when ``ray_cache_enabled``; a
        cached answer is byte-identical to a fresh trace because the
        set cannot have mutated since it was stored.

        Raises
        ------
        GeometryError
            If *origin* lies outside the routing boundary or strictly
            inside an obstacle (rays cannot start from illegal points).
        """
        if self.ray_cache_enabled:
            key = (origin.x, origin.y, direction)
            hit = self._ray_cache.get(key)
            if hit is not None:
                self.ray_cache_hits += 1
                return hit
            hit = self._ray(origin, direction)
            self.ray_cache_misses += 1
            cache = self._ray_cache
            if len(cache) >= RAY_CACHE_LIMIT:
                cache.clear()
            cache[key] = hit
            return hit
        return self._ray(origin, direction)

    def reaches(self, x: int, y: int) -> tuple[int, int, int, int]:
        """All four ray reaches from ``(x, y)`` in one probe.

        Returns ``(east_x, west_x, north_y, south_y)`` — the ``reach``
        coordinates :meth:`first_hit` reports, with the same
        :class:`GeometryError` for an illegal origin.  The batched
        search engine asks for all four directions of every expanded
        state, so the combined answer gets its own per-epoch memo — one
        dict probe instead of four — with the same invalidation rules
        (and the same telemetry: a combined hit or miss counts as four
        ray hits or misses) as :meth:`first_hit`.  A miss is answered
        from two track lookups (the row and the column through the
        origin), without building any :class:`Hit`.
        """
        memo = self.ray_cache_enabled
        if memo:
            key = (x, y)
            cached = self._reach_cache.get(key)
            if cached is not None:
                self.ray_cache_hits += 4
                return cached
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
        result = (
            east[0],
            _behind(row[1], x, bound.x0)[0],
            _ahead(col[0], y, bound.y1)[0],
            _behind(col[1], y, bound.y0)[0],
        )
        if memo:
            self.ray_cache_misses += 4
            cache = self._reach_cache
            if len(cache) >= RAY_CACHE_LIMIT:
                cache.clear()
            cache[key] = result
        return result

    def _ray(self, origin: Point, direction: Direction) -> Hit:
        """The unmemoized ray behind :meth:`first_hit`."""
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

    def _track(self, coord: int, horizontal: bool) -> _Track:
        """Build and store the blocker index of one row or column.

        A row ``y`` indexes the live rects with ``y0 < y < y1`` — the
        only ones an east/west ray along it can enter — and a column
        ``x`` the rects with ``x0 < x < x1``.  The ahead side sorts them
        by far edge (``x1`` on a row) and keeps a suffix minimum of the
        near edge; the behind side sorts them by ``x0`` and keeps a
        prefix maximum of ``x1``.  Ties go to the earliest-inserted
        rect, matching the scan's ``argmin``/``argmax`` over slot order.
        """
        if horizontal:
            span_lo, span_hi, lo, hi = self._vy0, self._vy1, self._vx0, self._vx1
        else:
            span_lo, span_hi, lo, hi = self._vx0, self._vx1, self._vy0, self._vy1
        # Dead columns hold the out-of-bound sentinel and never straddle
        # a track; flatnonzero keeps slot (= insertion) order, so a
        # rect's position here is its tie-break rank.
        live = np.flatnonzero((span_lo < coord) & (coord < span_hi))
        rects = [self._slots[i] for i in live.tolist()]
        starts = lo[live].tolist()
        ends = hi[live].tolist()
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
            stops = self._ray_stops(self._vy0, self._vy1, py, self._vx1 > px, self._vx0, px, +1)
        elif direction is Direction.WEST:
            limit = self.bound.x0
            stops = self._ray_stops(self._vy0, self._vy1, py, self._vx0 < px, self._vx1, px, -1)
        elif direction is Direction.NORTH:
            limit = self.bound.y1
            stops = self._ray_stops(self._vx0, self._vx1, px, self._vy1 > py, self._vy0, py, +1)
        else:  # SOUTH
            limit = self.bound.y0
            stops = self._ray_stops(self._vx0, self._vx1, px, self._vy0 < py, self._vy1, py, -1)

        obstacle: Optional[Rect] = None
        reach_coord = limit
        if stops is not None and stops[0].size:
            coords, indices = stops
            best = int(coords.argmin() if direction.sign > 0 else coords.argmax())
            candidate = int(coords[best])
            closer = candidate < reach_coord if direction.sign > 0 else candidate > reach_coord
            if closer or candidate == reach_coord:
                reach_coord = candidate
                obstacle = self._slots[int(indices[best])]
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
        Dead (removed) columns hold the out-of-bound sentinel and can
        never satisfy the perpendicular-span test.
        """
        if not self._count:
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
