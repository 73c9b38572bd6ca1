"""Hightower's line-probe router (1969).

From the Background section: Hightower "proposed using line segments
as the representation instead of a large grid of points and this
greatly improved the efficiency of the algorithm but caused it to fail
to find some connections which could be found by a Lee–Moore router."

This is that algorithm, kept deliberately faithful to its character:
bidirectional escape lines, a handful of escape points per blocked
line, no optimality guarantee, and genuine failures on hard instances
— which is exactly what experiment E9 measures when pairing it with an
admissible fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.route import RoutePath
from repro.geometry.point import Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.segment import Segment


@dataclass
class ProbeLine:
    """One escape line: a maximal clear segment through an origin point."""

    seg: Segment
    origin: Point
    parent: Optional["ProbeLine"] = None
    level: int = 0

    @property
    def is_horizontal(self) -> bool:
        """Orientation of the probe."""
        return self.seg.is_horizontal


@dataclass
class HightowerResult:
    """Outcome of a line-probe attempt.

    ``path`` is ``None`` on failure — an expected outcome for this
    algorithm, not an error.
    """

    path: Optional[RoutePath]
    lines_created: int = 0
    intersections_tested: int = 0
    levels_used: int = 0
    escape_points: list[Point] = field(default_factory=list)

    @property
    def found(self) -> bool:
        """Whether a connection was made."""
        return self.path is not None


def hightower_route(
    obstacles: ObstacleSet,
    source: Point,
    target: Point,
    *,
    max_level: int = 6,
    max_lines: int = 256,
) -> HightowerResult:
    """Attempt a connection with bidirectional line probes.

    Parameters
    ----------
    max_level:
        Escape-line generations per side before giving up.
    max_lines:
        Total probe-line budget across both sides.
    """
    result = HightowerResult(path=None)
    if source == target:
        result.path = RoutePath((source,))
        return result

    side_s = _Side(obstacles, source, target, result)
    side_t = _Side(obstacles, target, source, result)
    if not side_s.seed() or not side_t.seed():
        return result  # an endpoint admitted no clear probe at all

    for level in range(max_level + 1):
        result.levels_used = level
        crossing = _find_crossing(side_s, side_t, result)
        if crossing is not None:
            point, line_s, line_t = crossing
            points = _walk_back(point, line_s)[::-1] + _walk_back(point, line_t)[1:]
            result.path = RoutePath(tuple(_compress(points)))
            return result
        if result.lines_created >= max_lines or level == max_level:
            break
        # Expand the smaller side first — the classical balance rule.
        for side in sorted((side_s, side_t), key=lambda s: len(s.lines)):
            side.expand(level, max_lines)
    return result


class _Side:
    """Probe lines emanating from one endpoint."""

    def __init__(
        self, obstacles: ObstacleSet, origin: Point, toward: Point, result: HightowerResult
    ):
        self.obstacles = obstacles
        self.origin = origin
        self.toward = toward
        self.result = result
        self.lines: list[ProbeLine] = []
        self.frontier: list[ProbeLine] = []
        self._visited_tracks: set[tuple[bool, int]] = set()

    def seed(self) -> bool:
        """Create the level-0 probes through the endpoint."""
        for line in self._probes_through(self.origin, parent=None, level=0):
            self._register(line)
        return bool(self.lines)

    def expand(self, level: int, max_lines: int) -> None:
        """Generate the next generation of escape lines."""
        frontier, self.frontier = self.frontier, []
        for line in frontier:
            for escape in self._escape_points(line):
                if self.result.lines_created >= max_lines:
                    return
                self.result.escape_points.append(escape)
                for child in self._probes_through(escape, parent=line, level=level + 1):
                    self._register(child)

    def _register(self, line: ProbeLine) -> None:
        key = (line.is_horizontal, line.seg.track)
        if key in self._visited_tracks:
            return
        self._visited_tracks.add(key)
        self.lines.append(line)
        self.frontier.append(line)
        self.result.lines_created += 1

    def _probes_through(
        self, point: Point, *, parent: Optional[ProbeLine], level: int
    ) -> list[ProbeLine]:
        """The horizontal and vertical maximal clear runs through *point*."""
        probes: list[ProbeLine] = []
        if not self.obstacles.point_free(point):
            return probes
        east, west, north, south = self.obstacles.rays(point)
        horizontal = Segment(west.reach, east.reach)
        vertical = Segment(south.reach, north.reach)
        if not horizontal.is_degenerate:
            probes.append(ProbeLine(horizontal, point, parent, level))
        if not vertical.is_degenerate:
            probes.append(ProbeLine(vertical, point, parent, level))
        return probes

    def _escape_points(self, line: ProbeLine) -> list[Point]:
        """Candidate perpendicular-probe origins along *line*.

        Hightower's insight: only a few points matter — the blocked
        ends themselves (a perpendicular there hugs around the blocking
        cell) and the projection of the goal onto the line (the direct
        move toward the target).
        """
        points: list[Point] = []
        if line.is_horizontal:
            y = line.seg.track
            projected = Point(line.seg.span.clamp(self.toward.x), y)
        else:
            x = line.seg.track
            projected = Point(x, line.seg.span.clamp(self.toward.y))
        points.append(projected)
        points.append(line.seg.a)
        points.append(line.seg.b)
        deduped: list[Point] = []
        for p in points:
            if p != line.origin and p not in deduped:
                deduped.append(p)
        return deduped


def _find_crossing(
    side_s: "_Side", side_t: "_Side", result: HightowerResult
) -> Optional[tuple[Point, ProbeLine, ProbeLine]]:
    """First intersection between the two sides' probe lines."""
    for line_s in side_s.lines:
        for line_t in side_t.lines:
            result.intersections_tested += 1
            point = line_s.seg.crossing_point(line_t.seg)
            if point is None:
                shared = line_s.seg.overlap(line_t.seg)
                if shared is not None:
                    point = shared.a
            if point is not None:
                return point, line_s, line_t
    return None


def _walk_back(point: Point, line: ProbeLine) -> list[Point]:
    """Bend points from *point* back to the line's endpoint origin."""
    points = [point]
    current: Optional[ProbeLine] = line
    while current is not None:
        if points[-1] != current.origin:
            points.append(current.origin)
        current = current.parent
    return points


def _compress(points: list[Point]) -> list[Point]:
    """Drop repeated and collinear interior points."""
    cleaned: list[Point] = []
    for p in points:
        if not cleaned or cleaned[-1] != p:
            cleaned.append(p)
    if len(cleaned) <= 2:
        return cleaned
    out = [cleaned[0]]
    for prev, here, nxt in zip(cleaned, cleaned[1:], cleaned[2:]):
        if not ((prev.x == here.x == nxt.x) or (prev.y == here.y == nxt.y)):
            out.append(here)
    out.append(cleaned[-1])
    return out
