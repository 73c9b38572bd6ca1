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

#: Distance-transform seed of a grid point on no target: far above any
#: distance between layout coordinates (which stay well inside
#: ``±2**58``), and far enough below the int64 limit that adding one
#: cannot overflow.
_FAR = 1 << 60


def _sweep(table: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """One axis of the rectilinear distance transform, in int64.

    Row ``i`` of *table* becomes ``min over k of table[k] + |c[i] -
    c[k]|`` for the ascending coordinates ``c`` (*coords*, a column):
    a forward running minimum of ``table - c`` plus ``c`` covers
    ``k <= i``, a backward one of ``table + c`` minus ``c`` covers
    ``k >= i``.
    """
    forward = np.minimum.accumulate(table - coords, axis=0)
    forward += coords
    backward = np.minimum.accumulate((table + coords)[::-1], axis=0)[::-1]
    backward -= coords
    return np.minimum(forward, backward, out=forward)


def _grid_index(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Positions of *values* in the ascending *grid*, which must hold them."""
    at = grid.searchsorted(values)
    if values.size and not (grid.size and (grid.take(at, mode="clip") == values).all()):
        raise RoutingError(f"target coordinates {values.tolist()} are not all on the grid")
    return at


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

    def copy(self) -> "GlobalRoute":
        """A shallow working copy: its own tree dict and failed list.

        Trees and stats are shared; merging a rerouted net replaces its
        tree and the stats object, so the original route is unchanged.
        """
        return GlobalRoute(
            trees=dict(self.trees), stats=self.stats, failed_nets=list(self.failed_nets)
        )

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
        segments = list(segments)
        self.segments: list[Segment] = [s for s in segments if not s.is_degenerate]
        # Degenerate segments are points in disguise.
        self.points.extend(s.a for s in segments if s.is_degenerate)
        if not self.points and not self.segments:
            raise RoutingError("target set is empty")
        self._point_set = set(self.points)
        self._xy_set = {(p.x, p.y) for p in self.points}
        self._box_columns: Optional[tuple[np.ndarray, ...]] = None

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

    def distance_grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """:meth:`distance_to` at every point of the grid ``xs`` × ``ys``.

        *xs* and *ys* are ascending, distinct int64 coordinates that
        include every :meth:`escape_xs` and :meth:`escape_ys` value.
        Returns an int64 array of shape ``(len(xs), len(ys))`` whose
        ``[i, j]`` entry equals ``distance_to(Point(xs[i], ys[j]))``.

        On such a grid every target is a run of grid points (a segment
        attains its distance from any grid point at one of its own grid
        points: the foot of the perpendicular or an end), so the table
        is the rectilinear distance transform of those points: two
        running-minimum sweeps per axis, exact integer arithmetic, and
        work proportional to the grid whatever the target count.

        Raises :class:`RoutingError` if a target coordinate is not on
        the grid.
        """
        x0, x1, y0, y1 = self._boxes()
        i0, i1 = _grid_index(xs, x0), _grid_index(xs, x1)
        j0, j1 = _grid_index(ys, y0), _grid_index(ys, y1)
        seeds = np.full((xs.shape[0], ys.shape[0]), _FAR, dtype=np.int64)
        n = len(self.points)
        seeds[i0[:n], j0[:n]] = 0
        for a, b, c, d in zip(i0[n:].tolist(), i1[n:].tolist(), j0[n:].tolist(), j1[n:].tolist()):
            seeds[a : b + 1, c : d + 1] = 0
        return _sweep(_sweep(seeds, xs[:, None]).T, ys[:, None]).T

    def _boxes(self) -> tuple[np.ndarray, ...]:
        """Every target as a closed box: int64 columns ``x0, x1, y0, y1``.

        Points come first (each a one-point box), then the segments
        (normalized, so ``a <= b``).
        """
        if self._box_columns is None:
            corners = [(p.x, p.x, p.y, p.y) for p in self.points]
            corners += [(s.a.x, s.b.x, s.a.y, s.b.y) for s in self.segments]
            self._box_columns = tuple(np.array(col, dtype=np.int64) for col in zip(*corners))
        return self._box_columns

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
