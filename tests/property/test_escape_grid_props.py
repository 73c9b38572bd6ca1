"""Property tests for the escape grid the compiled search runs on.

The kernel names each state by its index on the grid of merged stop
columns and rows (the obstacle set's edge coordinates plus the
connection's own).  Every ray reach is a cell or bound edge, so it is
on that grid (``tests/property/test_raytrace_props.py`` checks each
reach lands on ``edge_xs``/``edge_ys``).  A grid that misses a reach
must raise instead of routing to the wrong state: here the edge
indexes are emptied, so the first expansion's off-grid reach has to
raise.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.pathfinder import PathRequest, find_path
from repro.core.route import TargetSet
from repro.errors import SearchError
from repro.geometry.point import Point
from repro.geometry.raytrace import CoordIndex, ObstacleSet
from repro.geometry.rect import Rect

SIZE = 48


@st.composite
def off_grid_cases(draw):
    """A scene and two distinct free endpoints."""
    rects = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        x0 = draw(st.integers(min_value=1, max_value=SIZE - 10))
        y0 = draw(st.integers(min_value=1, max_value=SIZE - 10))
        rects.append(Rect(x0, y0, x0 + draw(st.integers(2, 8)), y0 + draw(st.integers(2, 8))))
    obs = ObstacleSet(Rect(0, 0, SIZE, SIZE), rects)
    free = st.builds(
        Point, st.integers(0, SIZE), st.integers(0, SIZE)
    ).filter(obs.point_free)
    source = draw(free)
    target = draw(free.filter(lambda p: p != source))
    return obs, source, target


class TestOffGridReach:
    @settings(max_examples=60, deadline=None)
    @given(off_grid_cases())
    def test_an_off_grid_reach_raises(self, case):
        obs, source, target = case
        grid_xs, grid_ys = {source.x, target.x}, {source.y, target.y}
        east, west, north, south = (hit.reach for hit in obs.rays(source))
        assume(not ({east.x, west.x} <= grid_xs and {north.y, south.y} <= grid_ys))
        obs._edge_xs = obs._edge_ys = CoordIndex()  # a grid of the pins alone
        request = PathRequest(
            obstacles=obs, sources=[(source, 0.0)], targets=TargetSet(points=[target])
        )
        with pytest.raises(SearchError, match="not all on the escape grid"):
            find_path(request)
