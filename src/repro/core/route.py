"""Route result data structures.

A two-point search yields a :class:`RoutePath`; a routed net is a
:class:`RouteTree` (the paper's "connected set": pins plus all the
line segments of every connecting path); a routed layout is a
:class:`GlobalRoute`.  :class:`TargetSet` is the search-facing view of
a partially built tree — the goal test, the admissible heuristic, and
the escape coordinates it contributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.errors import RoutingError
from repro.geometry.point import Point
from repro.geometry.rect import Rect, bounding_rect
from repro.geometry.segment import Segment, path_bends, path_length, path_segments
from repro.search.stats import ExpansionTrace, SearchStats

@dataclass(frozen=True)
class RoutePath:
    """One point-to-point (or point-to-tree) connection.

    Attributes
    ----------
    points:
        Bend points from the connection's start pin to its attachment
        point, in order.  A single-point path represents a terminal
        that was already on the tree (zero-length connection).
    cost:
        Search cost of the path under the active cost model (equals
        length for the plain wirelength model).
    """

    points: tuple[Point, ...]
    cost: float = 0.0

    def __post_init__(self) -> None:
        if not self.points:
            raise RoutingError("a route path needs at least one point")
        path_length(list(self.points))  # validates rectilinearity

    @property
    def start(self) -> Point:
        """First point of the path."""
        return self.points[0]

    @property
    def end(self) -> Point:
        """Last point (the attachment to the target/tree)."""
        return self.points[-1]

    @property
    def length(self) -> int:
        """Total rectilinear wirelength."""
        return path_length(list(self.points))

    @property
    def bends(self) -> int:
        """Number of corners along the path."""
        return path_bends(list(self.points))

    @property
    def segments(self) -> tuple[Segment, ...]:
        """Non-degenerate segments of the path."""
        return tuple(path_segments(list(self.points)))


@dataclass
class RouteTree:
    """A routed net: the paper's "connected set".

    Attributes
    ----------
    net_name:
        The routed net.
    paths:
        One entry per terminal connection, in connection order.  The
        seed terminal contributes no path.
    connected_terminals:
        Terminal names in connection order (seed first).
    stats:
        Merged search statistics over every connection.
    """

    net_name: str
    paths: list[RoutePath] = field(default_factory=list)
    connected_terminals: list[str] = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)
    traces: list[ExpansionTrace] = field(default_factory=list)

    @property
    def segments(self) -> list[Segment]:
        """All non-degenerate wire segments of the tree."""
        segs: list[Segment] = []
        for path in self.paths:
            segs.extend(path.segments)
        return segs

    @property
    def total_length(self) -> int:
        """Total tree wirelength."""
        return sum(path.length for path in self.paths)

    @property
    def total_bends(self) -> int:
        """Total corner count over all connections."""
        return sum(path.bends for path in self.paths)

    @property
    def points(self) -> list[Point]:
        """Every bend point of every path."""
        return [p for path in self.paths for p in path.points]

    @property
    def bounding_box(self) -> Optional[Rect]:
        """Bounding rect of the tree geometry (``None`` if empty)."""
        pts = self.points
        return bounding_rect(pts) if pts else None


@dataclass
class GlobalRoute:
    """The global routing of a whole layout."""

    trees: dict[str, RouteTree] = field(default_factory=dict)
    stats: SearchStats = field(default_factory=SearchStats)
    failed_nets: list[str] = field(default_factory=list)

    @property
    def total_length(self) -> int:
        """Summed wirelength over all routed nets."""
        return sum(tree.total_length for tree in self.trees.values())

    @property
    def total_bends(self) -> int:
        """Summed corner count over all routed nets."""
        return sum(tree.total_bends for tree in self.trees.values())

    @property
    def routed_count(self) -> int:
        """Number of successfully routed nets."""
        return len(self.trees)

    def tree(self, net_name: str) -> RouteTree:
        """Route tree for *net_name*.

        Raises :class:`RoutingError` if the net was not routed.
        """
        try:
            return self.trees[net_name]
        except KeyError:
            raise RoutingError(f"net {net_name!r} has no route") from None

    def all_segments(self) -> list[tuple[str, Segment]]:
        """Every wire segment, tagged with its owning net name."""
        return [(name, seg) for name, tree in self.trees.items() for seg in tree.segments]


class TargetSet:
    """The goal of one search: a set of points and segments.

    For the first connection of a net this is the destination
    terminal's pins; for later connections it is the whole partial tree
    — "all line segments in the spanning tree being built as potential
    connection points".
    """

    def __init__(self, points: Iterable[Point] = (), segments: Iterable[Segment] = ()):
        self.points: list[Point] = list(points)
        self.segments: list[Segment] = [s for s in segments if not s.is_degenerate]
        # Degenerate segments are points in disguise.
        self.points.extend(s.a for s in segments if s.is_degenerate)
        if not self.points and not self.segments:
            raise RoutingError("target set is empty")
        self._point_set = set(self.points)
        self._xy_set = {(p.x, p.y) for p in self.points}
        self._columns: Optional[tuple[np.ndarray, ...]] = None
        self._track_terms_cache: dict[tuple[bool, int], tuple[np.ndarray, ...]] = {}

    def contains(self, p: Point) -> bool:
        """Goal test: *p* coincides with a target point or lies on a segment."""
        if p in self._point_set:
            return True
        return any(seg.contains_point(p) for seg in self.segments)

    def contains_xy(self, x: int, y: int) -> bool:
        """:meth:`contains` over bare coordinates (vectorized engine)."""
        if (x, y) in self._xy_set:
            return True
        for seg in self.segments:
            a, b = seg.a, seg.b  # normalized: a <= b
            if a.y == b.y:
                if y == a.y and a.x <= x <= b.x:
                    return True
            elif x == a.x and a.y <= y <= b.y:
                return True
        return False

    def distance_to(self, p: Point) -> int:
        """Minimum rectilinear distance from *p* to any target.

        This is the admissible heuristic for tree connection: actual
        obstacle-avoiding cost can only be larger.
        """
        best: Optional[int] = None
        for point in self.points:
            d = point.manhattan(p)
            if best is None or d < best:
                best = d
        for seg in self.segments:
            d = seg.distance_to_point(p)
            if best is None or d < best:
                best = d
        assert best is not None
        return best

    def _target_columns(self) -> tuple[np.ndarray, ...]:
        """Lazily built int64 columns for the batched heuristic."""
        if self._columns is None:
            horizontal = [s for s in self.segments if s.is_horizontal]
            vertical = [s for s in self.segments if not s.is_horizontal]
            self._columns = (
                np.array([p.x for p in self.points], dtype=np.int64),
                np.array([p.y for p in self.points], dtype=np.int64),
                np.array([s.a.y for s in horizontal], dtype=np.int64),
                np.array([s.a.x for s in horizontal], dtype=np.int64),
                np.array([s.b.x for s in horizontal], dtype=np.int64),
                np.array([s.a.x for s in vertical], dtype=np.int64),
                np.array([s.a.y for s in vertical], dtype=np.int64),
                np.array([s.b.y for s in vertical], dtype=np.int64),
            )
        return self._columns

    def _track_terms(self, horizontal: bool, fixed: int) -> tuple[np.ndarray, ...]:
        """Targets collapsed against one track, for :meth:`distances_along`.

        For successors varying along one axis with the other pinned to
        *fixed*, each target's distance is either ``|t - c| + k``
        (points, and segments perpendicular to the travel axis — their
        clamp term depends only on *fixed*) or ``clamp(c, lo, hi) + k``
        (segments parallel to the travel axis).  The constant parts
        are precomputed and cached per track: searches expand many
        states on the same track, and the target set is frozen for the
        whole connection.
        """
        key = (horizontal, fixed)
        cached = self._track_terms_cache.get(key)
        if cached is not None:
            return cached
        px, py, hy, hx0, hx1, vx, vy0, vy1 = self._target_columns()
        if horizontal:
            t = np.concatenate((px, vx))
            k = np.concatenate((
                np.abs(py - fixed),
                np.maximum(np.maximum(vy0 - fixed, fixed - vy1), 0),
            ))
            lo, hi, kseg = hx0, hx1, np.abs(hy - fixed)
        else:
            t = np.concatenate((py, hy))
            k = np.concatenate((
                np.abs(px - fixed),
                np.maximum(np.maximum(hx0 - fixed, fixed - hx1), 0),
            ))
            lo, hi, kseg = vy0, vy1, np.abs(vx - fixed)
        cached = (t, k, lo, hi, kseg)
        self._track_terms_cache[key] = cached
        return cached

    def distances_along(self, coords: np.ndarray, fixed: int, horizontal: bool) -> np.ndarray:
        """:meth:`distance_to` for an axis-aligned batch.

        Successor ``j`` sits at ``(coords[j], fixed)`` when
        *horizontal*, else at ``(fixed, coords[j])``.  All arithmetic
        is int64, and an integer minimum is exact regardless of
        evaluation order, so the values equal the scalar
        :meth:`distance_to` loop's exactly.
        """
        t, k, lo, hi, kseg = self._track_terms(horizontal, fixed)
        if not lo.size and t.size == 1:
            # Single point target (the common late-tree case): the
            # minimum over one row is that row, no broadcast needed.
            d1 = np.abs(coords - t[0])
            d1 += k[0]
            return d1
        best: Optional[np.ndarray] = None
        if t.size:
            d = np.abs(t[:, None] - coords[None, :])
            d += k[:, None]
            best = d.min(axis=0)
        if lo.size:
            d2 = np.maximum(np.maximum(lo[:, None] - coords, coords - hi[:, None]), 0)
            d2 += kseg[:, None]
            if best is None:
                best = d2.min(axis=0)
            else:
                np.minimum(best, d2.min(axis=0), out=best)
        assert best is not None  # the target set is never empty
        return best

    def distances_expansion(self, hx: np.ndarray, y: int, vy: np.ndarray, x: int) -> np.ndarray:
        """Heuristics for a whole expansion as one float64 array.

        Fuses the two per-axis :meth:`distances_along` calls —
        horizontal successors ``(hx[j], y)`` first, then vertical
        successors ``(x, vy[j])`` — casting the exact int64 distances
        into a single output (integers are exact in float64).
        """
        nh = hx.shape[0]
        out = np.empty(nh + vy.shape[0], dtype=np.float64)
        if nh:
            out[:nh] = self.distances_along(hx, y, True)
        if vy.shape[0]:
            out[nh:] = self.distances_along(vy, x, False)
        return out

    def nearest_point_to(self, p: Point) -> Point:
        """The concrete target point nearest to *p* (for diagnostics)."""
        candidates = list(self.points) + [seg.nearest_point_to(p) for seg in self.segments]
        return min(candidates, key=lambda c: (c.manhattan(p), c))

    def escape_xs(self) -> set[int]:
        """x coordinates at which a search may need to stop to hit a target."""
        xs = {p.x for p in self.points}
        for seg in self.segments:
            xs.add(seg.a.x)
            xs.add(seg.b.x)
        return xs

    def escape_ys(self) -> set[int]:
        """y coordinates at which a search may need to stop to hit a target."""
        ys = {p.y for p in self.points}
        for seg in self.segments:
            ys.add(seg.a.y)
            ys.add(seg.b.y)
        return ys

    def extended(
        self, points: Iterable[Point] = (), segments: Iterable[Segment] = ()
    ) -> "TargetSet":
        """A new target set with more members (tree growth)."""
        return TargetSet(
            points=list(self.points) + list(points),
            segments=list(self.segments) + list(segments),
        )

    def __len__(self) -> int:
        return len(self.points) + len(self.segments)
