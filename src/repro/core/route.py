"""Route result data structures.

A two-point search yields a :class:`RoutePath`; a routed net is a
:class:`RouteTree` (the paper's "connected set": pins plus all the
line segments of every connecting path); a routed layout is a
:class:`GlobalRoute`.  :class:`TargetSet` is the search-facing view of
a partially built tree — the goal test, the admissible heuristic, and
the escape coordinates it contributes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

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
        # Validates rectilinearity; kept, as the path never changes.
        object.__setattr__(self, "_length", path_length(list(self.points)))

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
        return self._length

    @functools.cached_property
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

    Every target is a closed box ``(x0, x1, y0, y1)`` in one flat int
    list, :attr:`flat`: the points first (each a one-point box, in the
    order they joined), then the segments (normalized, so ``x0 <= x1``
    and ``y0 <= y1``).  Degenerate segments are points in disguise and
    join the points.  :meth:`contains` holds exactly on the boxes and
    :meth:`distance_to` is the distance to the nearest one, which is
    how the compiled search reads the set too: the list goes to it as
    it stands.  A growing tree appends only its new members
    (:meth:`connect`).
    """

    def __init__(self, points: Iterable[Point] = (), segments: Iterable[Segment] = ()):
        #: The target points, in order (a point may repeat).
        self.points: list[Point] = []
        self._point_set: set[Point] = set()
        #: ``x0, x1, y0, y1`` per target: the points, then the segments.
        self.flat: list[int] = []
        points = list(points)
        boxes: list[int] = []
        for s in segments:
            if s.is_degenerate:
                points.append(s.a)
            else:
                boxes += (s.a.x, s.b.x, s.a.y, s.b.y)
        self._add(points, boxes)
        if not self.flat:
            raise RoutingError("target set is empty")

    def _add(self, points: list[Point], boxes: list[int]) -> list[int]:
        """Append *points* after the points and segment *boxes* after the
        segments; return the new boxes, flat (points first)."""
        new = [c for p in points for c in (p.x, p.x, p.y, p.y)]
        at = 4 * len(self.points)
        self.flat[at:at] = new
        self.points += points
        self._point_set.update(points)
        self.flat += boxes
        new += boxes
        return new

    def connect(self, pins: Iterable[Point], path: Sequence[Point]) -> list[int]:
        """Bring a newly connected terminal into the set (tree growth).

        Its *pins* join the points, then the hops of its connecting
        *path* (bend points) join the segments; a one-point path is a
        zero-length attach, whose point joins the points after the
        pins.  Returns the boxes added, flat, points first.
        """
        points = list(pins)
        boxes: list[int] = []
        if len(path) == 1:
            points.append(path[0])
        for a, b in zip(path, path[1:]):
            ax, ay, bx, by = a.x, a.y, b.x, b.y
            if ax != bx or ay != by:
                boxes += (min(ax, bx), max(ax, bx), min(ay, by), max(ay, by))
        return self._add(points, boxes)

    @property
    def segments(self) -> list[Segment]:
        """The non-degenerate target segments, in order."""
        flat = self.flat
        return [
            Segment(Point(flat[k], flat[k + 2]), Point(flat[k + 1], flat[k + 3]))
            for k in range(4 * len(self.points), len(flat), 4)
        ]

    def contains(self, p: Point) -> bool:
        """Goal test: *p* coincides with a target point or lies on a segment."""
        if p in self._point_set:
            return True
        x, y, flat = p.x, p.y, self.flat
        return any(
            flat[k] <= x <= flat[k + 1] and flat[k + 2] <= y <= flat[k + 3]
            for k in range(4 * len(self.points), len(flat), 4)
        )

    def distance_to(self, p: Point) -> int:
        """Minimum rectilinear distance from *p* to any target.

        This is the admissible heuristic for tree connection: actual
        obstacle-avoiding cost can only be larger.
        """
        return box_distance(self.flat, (p,))

    def boxes(self) -> list[tuple[int, int, int, int]]:
        """Every target as a closed box ``(x0, x1, y0, y1)``, points first."""
        coordinates = iter(self.flat)
        return list(zip(coordinates, coordinates, coordinates, coordinates))

    def escape_xs(self) -> set[int]:
        """x coordinates at which a search may need to stop to hit a target."""
        return set(self.flat[0::4]) | set(self.flat[1::4])

    def escape_ys(self) -> set[int]:
        """y coordinates at which a search may need to stop to hit a target."""
        return set(self.flat[2::4]) | set(self.flat[3::4])

    def __len__(self) -> int:
        return len(self.flat) // 4


def box_distance(flat: list[int], points: Iterable[Point]) -> int:
    """Least rectilinear distance from any of *points* to any box in *flat*.

    *flat* holds ``x0, x1, y0, y1`` per box, as :attr:`TargetSet.flat`
    does; the distance along each axis is the gap to the box's span.
    """
    best = None
    for p in points:
        x, y = p.x, p.y
        coordinates = iter(flat)
        for x0, x1, y0, y1 in zip(coordinates, coordinates, coordinates, coordinates):
            d = (x0 - x if x < x0 else x - x1 if x > x1 else 0) + (
                y0 - y if y < y0 else y - y1 if y > y1 else 0
            )
            if best is None or d < best:
                best = d
    if best is None:
        raise RoutingError("no points or no boxes to measure between")
    return best
