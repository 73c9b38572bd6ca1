"""Unit tests for axis-parallel segments and polyline helpers."""

import pytest

from repro.errors import GeometryError
from repro.geometry.point import Axis, Point
from repro.geometry.segment import Segment, path_bends, path_length, path_segments


class TestConstruction:
    def test_diagonal_rejected(self):
        with pytest.raises(GeometryError):
            Segment(Point(0, 0), Point(1, 1))

    def test_endpoints_normalized(self):
        seg = Segment(Point(5, 0), Point(1, 0))
        assert seg.a == Point(1, 0)
        assert seg.b == Point(5, 0)

    def test_normalization_preserves_geometry(self):
        assert Segment(Point(5, 0), Point(1, 0)) == Segment(Point(1, 0), Point(5, 0))

    def test_vertical_normalization(self):
        seg = Segment(Point(2, 9), Point(2, 3))
        assert seg.a == Point(2, 3)
        assert seg.b == Point(2, 9)

    def test_degenerate(self):
        seg = Segment(Point(3, 3), Point(3, 3))
        assert seg.is_degenerate
        assert seg.length == 0
        assert seg.is_horizontal and seg.is_vertical

    def test_named_constructors(self):
        assert Segment.horizontal(2, 0, 5) == Segment(Point(0, 2), Point(5, 2))
        assert Segment.vertical(2, 0, 5) == Segment(Point(2, 0), Point(2, 5))
        assert Segment.between(Point(0, 0), Point(0, 3)).length == 3


class TestProperties:
    def test_orientation(self):
        assert Segment.horizontal(0, 0, 5).is_horizontal
        assert Segment.vertical(0, 0, 5).is_vertical
        assert not Segment.vertical(0, 0, 5).is_horizontal

    def test_axis(self):
        assert Segment.horizontal(0, 0, 5).axis is Axis.X
        assert Segment.vertical(0, 0, 5).axis is Axis.Y

    def test_track_and_span(self):
        seg = Segment.horizontal(7, 2, 9)
        assert seg.track == 7
        assert (seg.span.lo, seg.span.hi) == (2, 9)
        vseg = Segment.vertical(7, 2, 9)
        assert vseg.track == 7
        assert (vseg.span.lo, vseg.span.hi) == (2, 9)

    def test_length(self):
        assert Segment.horizontal(0, 2, 9).length == 7


class TestPointRelations:
    def test_contains_point(self):
        seg = Segment.horizontal(5, 0, 10)
        assert seg.contains_point(Point(0, 5))
        assert seg.contains_point(Point(10, 5))
        assert seg.contains_point(Point(4, 5))
        assert not seg.contains_point(Point(4, 6))
        assert not seg.contains_point(Point(11, 5))

    def test_contains_point_strictly(self):
        seg = Segment.horizontal(5, 0, 10)
        assert seg.contains_point_strictly(Point(4, 5))
        assert not seg.contains_point_strictly(Point(0, 5))


class TestSegmentRelations:
    def test_collinear(self):
        a = Segment.horizontal(5, 0, 4)
        b = Segment.horizontal(5, 6, 9)
        c = Segment.horizontal(6, 0, 4)
        assert a.is_collinear_with(b)
        assert not a.is_collinear_with(c)
        assert not a.is_collinear_with(Segment.vertical(0, 0, 4))

    def test_overlap(self):
        a = Segment.horizontal(5, 0, 6)
        b = Segment.horizontal(5, 4, 9)
        assert a.overlap(b) == Segment.horizontal(5, 4, 6)

    def test_overlap_touching_is_degenerate(self):
        a = Segment.horizontal(5, 0, 4)
        b = Segment.horizontal(5, 4, 9)
        shared = a.overlap(b)
        assert shared is not None and shared.is_degenerate

    def test_overlap_none_when_disjoint(self):
        assert Segment.horizontal(5, 0, 2).overlap(Segment.horizontal(5, 4, 9)) is None

    def test_crossing_point(self):
        h = Segment.horizontal(5, 0, 10)
        v = Segment.vertical(4, 0, 10)
        assert h.crossing_point(v) == Point(4, 5)
        assert v.crossing_point(h) == Point(4, 5)

    def test_crossing_at_endpoint_counts(self):
        h = Segment.horizontal(5, 0, 10)
        v = Segment.vertical(0, 5, 10)
        assert h.crossing_point(v) == Point(0, 5)

    def test_no_crossing_when_spans_miss(self):
        h = Segment.horizontal(5, 0, 3)
        v = Segment.vertical(4, 0, 10)
        assert h.crossing_point(v) is None

    def test_degenerate_crossing(self):
        point_seg = Segment(Point(3, 5), Point(3, 5))
        h = Segment.horizontal(5, 0, 10)
        assert h.crossing_point(point_seg) == Point(3, 5)
        assert point_seg.crossing_point(h) == Point(3, 5)

    def test_intersects(self):
        h = Segment.horizontal(5, 0, 10)
        assert h.intersects(Segment.vertical(4, 0, 10))
        assert h.intersects(Segment.horizontal(5, 8, 20))
        assert not h.intersects(Segment.horizontal(6, 0, 10))


class TestSplit:
    def test_split_interior(self):
        seg = Segment.horizontal(0, 0, 10)
        left, right = seg.split_at(Point(4, 0))
        assert left == Segment.horizontal(0, 0, 4)
        assert right == Segment.horizontal(0, 4, 10)

    def test_split_at_endpoint_gives_degenerate(self):
        seg = Segment.horizontal(0, 0, 10)
        left, right = seg.split_at(Point(0, 0))
        assert left.is_degenerate
        assert right == seg

    def test_split_off_segment_raises(self):
        with pytest.raises(GeometryError):
            Segment.horizontal(0, 0, 10).split_at(Point(4, 1))


class TestPolylineHelpers:
    def test_path_length(self):
        pts = [Point(0, 0), Point(5, 0), Point(5, 3)]
        assert path_length(pts) == 8

    def test_path_length_rejects_diagonals(self):
        with pytest.raises(GeometryError):
            path_length([Point(0, 0), Point(1, 1)])

    def test_path_segments_skips_degenerate(self):
        pts = [Point(0, 0), Point(0, 0), Point(5, 0)]
        assert path_segments(pts) == [Segment.horizontal(0, 0, 5)]

    def test_path_bends_straight(self):
        assert path_bends([Point(0, 0), Point(3, 0), Point(9, 0)]) == 0

    def test_path_bends_l_shape(self):
        assert path_bends([Point(0, 0), Point(3, 0), Point(3, 5)]) == 1

    def test_path_bends_staircase(self):
        pts = [Point(0, 0), Point(1, 0), Point(1, 1), Point(2, 1), Point(2, 2)]
        assert path_bends(pts) == 3

    def test_path_bends_ignores_repeated_points(self):
        pts = [Point(0, 0), Point(3, 0), Point(3, 0), Point(3, 5)]
        assert path_bends(pts) == 1

    def test_path_bends_reversal_counts(self):
        # going east then back west is a (degenerate but real) turn
        pts = [Point(0, 0), Point(5, 0), Point(2, 0)]
        assert path_bends(pts) == 1
