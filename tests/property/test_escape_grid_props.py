"""Property tests for the escape grid the batched search runs on.

The batched problem names each state by its index on the grid of
merged stop columns and rows, and reads heuristics from a per-search
table.  Two invariants make that exact:

* :meth:`~repro.core.route.TargetSet.distance_grid` equals
  :meth:`~repro.core.route.TargetSet.distance_to` at every grid point,
  for point-only, segment-only, mixed and degenerate target sets, and
  refuses a grid that misses a target coordinate;
* a ray reach off the grid (which the obstacle set never reports, see
  ``tests/property/test_raytrace_props.py``) raises instead of
  being routed to the wrong state.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pathfinder import PathRequest, find_path
from repro.core.route import TargetSet
from repro.errors import RoutingError, SearchError
from repro.geometry.point import Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment

coords = st.integers(min_value=-20, max_value=40)
points = st.builds(Point, coords, coords)


@st.composite
def segments(draw):
    """An axis-parallel segment, sometimes of zero length."""
    a = draw(points)
    length = draw(st.integers(min_value=0, max_value=30))
    b = a.with_x(a.x + length) if draw(st.booleans()) else a.with_y(a.y - length)
    return Segment(a, b)


target_sets = st.one_of(
    st.builds(TargetSet, points=st.lists(points, min_size=1, max_size=6)),
    st.builds(TargetSet, segments=st.lists(segments(), min_size=1, max_size=6)),
    st.builds(
        TargetSet,
        points=st.lists(points, min_size=1, max_size=4),
        segments=st.lists(segments(), min_size=1, max_size=4),
    ),
    # Degenerate segments only: points in disguise.
    st.builds(
        TargetSet,
        segments=st.lists(points.map(lambda p: Segment(p, p)), min_size=1, max_size=4),
    ),
)


def _grid(targets: TargetSet, extra_xs, extra_ys):
    xs = np.array(sorted(targets.escape_xs() | set(extra_xs)), dtype=np.int64)
    ys = np.array(sorted(targets.escape_ys() | set(extra_ys)), dtype=np.int64)
    return xs, ys


class TestDistanceGrid:
    @settings(max_examples=200, deadline=None)
    @given(target_sets, st.lists(coords, max_size=8), st.lists(coords, max_size=8))
    def test_equals_distance_to_at_every_grid_point(self, targets, extra_xs, extra_ys):
        xs, ys = _grid(targets, extra_xs, extra_ys)
        table = targets.distance_grid(xs, ys)
        assert table.shape == (len(xs), len(ys))
        assert table.dtype == np.int64
        for i, x in enumerate(xs.tolist()):
            for j, y in enumerate(ys.tolist()):
                assert table[i, j] == targets.distance_to(Point(x, y))

    @settings(max_examples=100, deadline=None)
    @given(target_sets, st.data())
    def test_a_grid_missing_a_target_coordinate_is_refused(self, targets, data):
        xs, ys = _grid(targets, (), ())
        if data.draw(st.booleans()):
            xs = np.delete(xs, data.draw(st.integers(0, len(xs) - 1)))
        else:
            ys = np.delete(ys, data.draw(st.integers(0, len(ys) - 1)))
        with pytest.raises(RoutingError, match="not all on the grid"):
            targets.distance_grid(xs, ys)


SIZE = 48


@st.composite
def off_grid_cases(draw):
    """A scene, two distinct free endpoints, and which reach to corrupt."""
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
    return obs, source, target, draw(st.integers(min_value=0, max_value=3))


class TestOffGridReach:
    @settings(max_examples=60, deadline=None)
    @given(off_grid_cases())
    def test_an_off_grid_reach_raises(self, case):
        obs, source, target, corrupt = case
        real = obs.reaches

        def shifted(x, y):
            reaches = list(real(x, y))
            reaches[corrupt] = -1  # no edge, pin or bound coordinate
            return tuple(reaches)

        obs.reaches = shifted
        request = PathRequest(
            obstacles=obs, sources=[(source, 0.0)], targets=TargetSet(points=[target])
        )
        with pytest.raises(SearchError, match="not all on the escape grid"):
            find_path(request)
