"""Property tests for the connected set as flat boxes.

``TargetSet`` keeps a net's growing tree as one flat int list of boxes
``(x0, x1, y0, y1)`` and grows it by appending only each connection's
new members (``TargetSet.connect``); ``route_net`` folds the distances
to those new boxes into its greedy pick.  The oracle below is the
``Segment``-walk set it replaced, grown the old way: a fresh set of
every point and segment on each connection.  Hypothesis draws growth
sequences (multi-pin terminals, zero-length attaches, degenerate hops,
repeated coordinates, coordinates out to ``±2**62``) and every query
must agree at every step.

The compiled search derives the connection's extra grid columns and
rows from the boxes and the sources itself, sorting and deduplicating
them in C.  The kernel cases feed it unsorted, duplicated coordinates
at ``±2**62``, where a comparator written as ``x - y`` overflows, and
compare every outcome with the scalar oracle.
"""

from __future__ import annotations

from typing import Iterable, Optional

import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.core.pathfinder as pathfinder
from repro.core.pathfinder import PathRequest, find_path, reference_search
from repro.core.route import TargetSet, box_distance
from repro.errors import RoutingError, UnroutableError
from repro.geometry.point import Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment, path_segments
from repro.layout.layout import MAX_COORDINATE

H = MAX_COORDINATE

#: Coordinates that repeat often, with both ends of the range among them.
POOL = (-H, -H + 1, -(2**61), -5, 0, 3, 5, 2**61, H - 1, H)

coordinates = st.one_of(st.sampled_from(POOL), st.integers(-H, H))
points = st.builds(Point, coordinates, coordinates)


# ----------------------------------------------------------------------
# The oracle: the Segment-walk set the flat boxes replaced.
# ----------------------------------------------------------------------
class OracleTargetSet:
    def __init__(self, points: Iterable[Point] = (), segments: Iterable[Segment] = ()):
        self.points: list[Point] = list(points)
        segments = list(segments)
        self.segments: list[Segment] = [s for s in segments if not s.is_degenerate]
        self.points.extend(s.a for s in segments if s.is_degenerate)
        if not self.points and not self.segments:
            raise RoutingError("target set is empty")
        self._point_set = set(self.points)

    def contains(self, p: Point) -> bool:
        if p in self._point_set:
            return True
        return any(seg.contains_point(p) for seg in self.segments)

    def distance_to(self, p: Point) -> int:
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

    def boxes(self) -> list[tuple[int, int, int, int]]:
        boxes = [(p.x, p.x, p.y, p.y) for p in self.points]
        boxes += [(s.a.x, s.b.x, s.a.y, s.b.y) for s in self.segments]
        return boxes

    def escape_xs(self) -> set[int]:
        xs = {p.x for p in self.points}
        for seg in self.segments:
            xs.add(seg.a.x)
            xs.add(seg.b.x)
        return xs

    def escape_ys(self) -> set[int]:
        ys = {p.y for p in self.points}
        for seg in self.segments:
            ys.add(seg.a.y)
            ys.add(seg.b.y)
        return ys

    def extended(
        self, points: Iterable[Point] = (), segments: Iterable[Segment] = ()
    ) -> "OracleTargetSet":
        return OracleTargetSet(
            points=list(self.points) + list(points),
            segments=list(self.segments) + list(segments),
        )

    def __len__(self) -> int:
        return len(self.points) + len(self.segments)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def paths(draw):
    """A rectilinear polyline: one point (a zero-length attach) or hops
    that move along one axis, some of them by zero (degenerate)."""
    at = draw(points)
    path = [at]
    for _ in range(draw(st.integers(0, 4))):
        value = draw(coordinates)
        at = Point(value, at.y) if draw(st.booleans()) else Point(at.x, value)
        path.append(at)
    return path


@st.composite
def segments(draw):
    """An axis-parallel segment, possibly degenerate."""
    a = draw(points)
    value = draw(coordinates)
    b = Point(value, a.y) if draw(st.booleans()) else Point(a.x, value)
    return Segment(a, b)


terminals = st.lists(points, min_size=1, max_size=3)
corner_pair = st.lists(st.sampled_from(POOL), min_size=2, max_size=2, unique=True)
growths = st.lists(st.tuples(terminals, paths()), max_size=6)


def assert_same(flat: TargetSet, oracle: OracleTargetSet, probes: list[Point]) -> None:
    assert flat.boxes() == oracle.boxes()
    assert flat.points == oracle.points
    assert flat.segments == oracle.segments
    assert flat.escape_xs() == oracle.escape_xs()
    assert flat.escape_ys() == oracle.escape_ys()
    assert len(flat) == len(oracle)
    boxes = oracle.boxes()
    corners = [Point(x, y) for x0, x1, y0, y1 in boxes for x in (x0, x1) for y in (y0, y1)]
    middles = [Point((x0 + x1) // 2, (y0 + y1) // 2) for x0, x1, y0, y1 in boxes]
    for p in probes + corners + middles:
        assert flat.contains(p) == oracle.contains(p), p
        assert flat.distance_to(p) == oracle.distance_to(p), p


class TestConnectedSetParity:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(points, max_size=3),
        st.lists(segments(), max_size=3),
        st.lists(points, max_size=4),
    )
    def test_construction_matches(self, pins, segs, probes):
        try:
            oracle = OracleTargetSet(points=pins, segments=segs)
        except RoutingError:
            with pytest.raises(RoutingError):
                TargetSet(points=pins, segments=iter(segs))
            return
        assert_same(TargetSet(points=pins, segments=iter(segs)), oracle, probes)

    @settings(max_examples=150, deadline=None)
    @given(terminals, growths, st.lists(terminals, max_size=3), st.lists(points, max_size=4))
    def test_growth_matches_at_every_step(self, seed, steps, pending, probes):
        flat = TargetSet(points=seed)
        oracle = OracleTargetSet(points=seed)
        # route_net's greedy pick: distances folded in from the new boxes alone.
        gaps = [box_distance(flat.flat, pins) for pins in pending]
        assert_same(flat, oracle, probes)
        for pins, path in steps:
            new = flat.connect(pins, path)
            oracle = oracle.extended(points=pins, segments=path_segments(path))
            if len(path) == 1:
                oracle = oracle.extended(points=[path[0]])
            assert_same(flat, oracle, probes)
            gaps = [min(gap, box_distance(new, p)) for gap, p in zip(gaps, pending)]
            assert gaps == [min(oracle.distance_to(p) for p in pins) for pins in pending]


# ----------------------------------------------------------------------
# The kernel sorts and deduplicates the connection's own coordinates.
# ----------------------------------------------------------------------
def outcome(request: PathRequest):
    try:
        result = find_path(request)
    except UnroutableError as exc:
        stats = exc.partial
        if stats is None:  # an endpoint check
            return ("unroutable", str(exc))
        return ("unroutable", stats.nodes_expanded, stats.nodes_generated, stats.termination)
    stats = result.stats
    return (
        result.path.points, result.path.cost, stats.nodes_expanded, stats.nodes_generated,
        stats.nodes_reopened, stats.max_open_size, stats.termination, stats.cache_misses,
    )


def kernel_and_oracle(request: PathRequest):
    """The default outcome (asserting it ran in the kernel) and the oracle's."""
    calls = []
    real = pathfinder.search_vectorized

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    pathfinder.search_vectorized = counted
    try:
        compiled = outcome(request)
    finally:
        pathfinder.search_vectorized = real
    with reference_search():
        scalar = outcome(request)
    return compiled, scalar, bool(calls)


class TestKernelCoordinates:
    def test_unsorted_duplicated_extremes_match_the_oracle(self):
        """Every x and y of the sources and boxes out of order and
        repeated, with differences that overflow int64 (and wrap a
        32-bit comparator result to zero)."""
        obstacles = ObstacleSet(Rect(-H, -H, H, H), [Rect(-(2**61), -(2**61), 2**61, 2**61)])
        targets = TargetSet(
            points=[Point(H, 0), Point(-H, 0), Point(H, 0), Point(0, -H)],
            segments=[Segment(Point(-H, H), Point(H, H)), Segment(Point(H, -H), Point(H, 5))],
        )
        request = PathRequest(
            obstacles=obstacles,
            sources=[(Point(0, H - 1), 0.0), (Point(-H, -H), 0.0), (Point(0, H - 1), 0.0)],
            targets=targets,
        )
        compiled, scalar, ran = kernel_and_oracle(request)
        assert ran
        assert compiled == scalar
        assert compiled[0] != "unroutable"

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_drawn_extremes_match_the_oracle(self, data):
        cells = []
        for _ in range(data.draw(st.integers(0, 2))):
            xs = sorted(data.draw(corner_pair))
            ys = sorted(data.draw(corner_pair))
            cells.append(Rect(xs[0], ys[0], xs[1], ys[1]))
        obstacles = ObstacleSet(Rect(-H, -H, H, H), cells)
        free = points.filter(obstacles.point_free)
        sources = data.draw(st.lists(free, min_size=1, max_size=3))
        pins = data.draw(st.lists(free, min_size=1, max_size=3))
        targets = TargetSet(points=pins)
        for path in data.draw(st.lists(paths(), max_size=2)):
            targets.connect([], path)
        assume(not any(targets.contains(p) for p in sources))
        request = PathRequest(
            obstacles=obstacles, sources=[(p, 0.0) for p in sources], targets=targets
        )
        compiled, scalar, ran = kernel_and_oracle(request)
        assert ran
        assert compiled == scalar
