"""A found path comes back from the search as ints: ``RoutePath.from_flat``.

The compiled search returns its path as ``x0, y0, x1, y1, ...``, and
``RoutePath.from_flat`` drops the collinear points, sums the length and
checks each hop for rectilinearity in one walk over those ints.  The
oracle is the walk it replaced: the path's points, collinear points
dropped by :func:`compress_collinear` (kept here), then
``RoutePath(points, cost)``.  Both must agree in points, cost, length,
bends, segments and hops on every path the corpus routes, on drawn
paths with collinear runs, back-tracks, repeated points and one-point
(zero-length) attaches out to ``±2**62``, and in raising
:class:`RoutingError` on a path that is not rectilinear.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.pathfinder as pathfinder
from repro.core.pathfinder import reference_search
from repro.core.route import RoutePath
from repro.core.router import GlobalRouter
from repro.errors import RoutingError
from repro.geometry.point import Point
from repro.layout.layout import MAX_COORDINATE
from repro.scenarios import load_corpus

H = MAX_COORDINATE
COORDS = st.one_of(
    st.sampled_from((-H, -H + 1, -1, 0, 1, H - 1, H)), st.integers(min_value=-H, max_value=H)
)


def compress_collinear(points: list[Point]) -> list[Point]:
    """Drop interior points that do not change direction (the oracle)."""
    if len(points) <= 2:
        return points
    compressed = [points[0]]
    for prev, here, nxt in zip(points, points[1:], points[2:]):
        straight_x = prev.x == here.x == nxt.x
        straight_y = prev.y == here.y == nxt.y
        if not (straight_x or straight_y):
            compressed.append(here)
    compressed.append(points[-1])
    return compressed


def flatten(points: list[Point]) -> list[int]:
    return [c for p in points for c in (p.x, p.y)]


def assert_same(path: RoutePath, oracle: RoutePath) -> None:
    assert path.points == oracle.points
    assert path.cost == oracle.cost
    assert path.length == oracle.length
    assert path.bends == oracle.bends
    assert path.segments == oracle.segments
    assert np.array_equal(path.hops, oracle.hops)
    assert path == oracle


def outcome(build):
    try:
        return build()
    except RoutingError as exc:
        return str(exc)


def check(points: list[Point], cost: float) -> None:
    """Same path, or the same error: a repeated corner point can leave
    a diagonal hop once its neighbours are dropped."""
    path = outcome(lambda: RoutePath.from_flat(flatten(points), cost))
    oracle = outcome(lambda: RoutePath(tuple(compress_collinear(points)), cost))
    if isinstance(oracle, str):
        assert path == oracle
    else:
        assert_same(path, oracle)


@st.composite
def polylines(draw) -> list[Point]:
    """A rectilinear point list: each step stays put, or runs in x or y
    through one or more points (a collinear run, possibly turning back)."""
    points = [Point(draw(COORDS), draw(COORDS))]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        last = points[-1]
        step = draw(st.sampled_from(("stay", "x", "y")))
        if step == "stay":
            points.append(last)
            continue
        for c in draw(st.lists(COORDS, min_size=1, max_size=3)):
            points.append(Point(c, last.y) if step == "x" else Point(last.x, c))
    return points


class TestDrawnPaths:
    @given(polylines(), st.floats(min_value=0, max_value=1e30))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_compressed_point_path(self, points, cost):
        check(points, cost)
        if all(a != b for a, b in zip(points, points[1:])):  # as every search path
            RoutePath.from_flat(flatten(points), cost)  # never raises

    @given(COORDS, COORDS)
    def test_a_one_point_attach(self, x, y):
        check([Point(x, y)], 0.0)
        check([Point(x, y), Point(x, y)], 0.0)
        assert RoutePath.from_flat([x, y], 0.0).points == (Point(x, y),)

    def test_a_repeated_corner_is_judged_as_the_point_path_is(self):
        points = [Point(0, 0), Point(0, 5), Point(0, 5), Point(3, 5)]
        check(points, 0.0)
        with pytest.raises(RoutingError, match="not rectilinear"):
            RoutePath.from_flat(flatten(points), 0.0)

    @given(polylines(), COORDS, COORDS, st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_diagonal_hop_raises_like_the_point_path(self, points, dx, dy, data):
        last = points[-1]
        corner = Point(last.x + (dx or 1), last.y + (dy or 1))  # differs in x and y
        bent = points + [corner] + data.draw(st.lists(st.just(corner), max_size=2))
        with pytest.raises(RoutingError) as from_flat:
            RoutePath.from_flat(flatten(bent), 1.0)
        with pytest.raises(RoutingError) as from_points:
            RoutePath(tuple(compress_collinear(bent)), 1.0)
        assert str(from_flat.value) == str(from_points.value)

    def test_the_coordinate_limits(self):
        corners = [Point(-H, -H), Point(0, -H), Point(H, -H), Point(H, H), Point(H, -H)]
        check(corners, 4.0 * H)
        assert RoutePath.from_flat(flatten(corners[:4]), 0.0).length == 4 * H

    def test_an_empty_path_raises(self):
        with pytest.raises(RoutingError):
            RoutePath.from_flat([], 0.0)


@pytest.mark.parametrize("scenario", load_corpus(), ids=lambda scenario: scenario.name)
def test_every_corpus_path_matches(scenario, monkeypatch):
    """Every path the kernel and the scalar oracle find on the corpus."""
    kernel_paths: list[tuple[list[int], float]] = []
    scalar_paths: list[tuple[list[int], float]] = []
    kernel_search, scalar_search = pathfinder.search_vectorized, pathfinder.search

    def record_kernel(*args, **kwargs):
        result = kernel_search(*args, **kwargs)
        if result.found:
            kernel_paths.append((result.states, result.goal_cost))
        return result

    def record_scalar(*args, **kwargs):
        result = scalar_search(*args, **kwargs)
        if result.found:
            scalar_paths.append((flatten(result.states), result.goal_cost))
        return result

    monkeypatch.setattr(pathfinder, "search_vectorized", record_kernel)
    monkeypatch.setattr(pathfinder, "search", record_scalar)
    GlobalRouter(scenario.layout).route_all(on_unroutable="skip")
    with reference_search():
        GlobalRouter(scenario.layout).route_all(on_unroutable="skip")
    assert kernel_paths == scalar_paths
    assert bool(kernel_paths) == bool(scenario.layout.nets)
    for flat, cost in kernel_paths:
        points = [Point(x, y) for x, y in zip(flat[0::2], flat[1::2])]
        assert_same(
            RoutePath.from_flat(flat, cost), RoutePath(tuple(compress_collinear(points)), cost)
        )
