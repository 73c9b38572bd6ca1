"""The one integer form of a routed path: :attr:`RoutePath.hops`.

Every consumer that used to walk a path's points into its own hop
layout (the congestion ledger, the route verifier) now reads
``hops``.  Whatever rectilinear polyline hypothesis draws, with
repeated points, single points, hops in either direction and
coordinates out to ``±2**62``, ``hops`` must be the ``segment_rows``
of the path's segments, read-only, and built once, as ``segments`` is.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.route import RoutePath
from repro.geometry.point import Point
from repro.geometry.segment import segment_rows

#: Coordinates that include the layout limit on both sides.
COORDS = st.one_of(
    st.sampled_from((-(2**62), -(2**62) + 1, -1, 0, 1, 2**62 - 1, 2**62)),
    st.integers(min_value=-(2**62), max_value=2**62),
)


@st.composite
def polylines(draw) -> RoutePath:
    """A rectilinear path: each step stays put, moves in x or moves in y."""
    points = [Point(draw(COORDS), draw(COORDS))]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        last = points[-1]
        step = draw(st.sampled_from(("stay", "x", "y")))
        if step == "stay":
            points.append(last)
        elif step == "x":
            points.append(Point(draw(COORDS), last.y))
        else:
            points.append(Point(last.x, draw(COORDS)))
    return RoutePath(tuple(points))


class TestHops:
    @given(polylines())
    @settings(max_examples=300, deadline=None)
    def test_hops_are_the_segment_rows(self, path):
        hops = path.hops
        rows = segment_rows(path.segments)
        assert hops.dtype == np.int64
        assert hops.shape == (4, len(path.segments))
        assert np.array_equal(hops, rows)
        # One column per hop that moves, in path order.
        moving = [(a, b) for a, b in zip(path.points, path.points[1:]) if a != b]
        assert hops.shape[1] == len(moving)

    @given(polylines())
    @settings(max_examples=100, deadline=None)
    def test_hops_are_read_only(self, path):
        hops = path.hops
        assert not hops.flags.writeable
        with pytest.raises(ValueError):
            hops[:, :1] = 0

    @given(polylines())
    @settings(max_examples=100, deadline=None)
    def test_built_once(self, path):
        assert path.hops is path.hops
        assert path.segments is path.segments

    def test_single_and_repeated_points_have_no_hops(self):
        for points in ((Point(3, 4),), (Point(3, 4), Point(3, 4))):
            path = RoutePath(points)
            assert path.hops.shape == (4, 0)
            assert path.segments == ()

    def test_reversed_hops_keep_lo_below_hi(self):
        path = RoutePath((Point(9, 5), Point(2, 5), Point(2, -7)))
        assert path.hops.tolist() == [[1, 0], [5, 2], [2, -7], [9, 5]]
