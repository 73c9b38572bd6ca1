"""Unit tests for rectangles."""

import pytest

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.rect import Rect, bounding_rect
from repro.geometry.segment import Segment


class TestConstruction:
    def test_corners_must_be_ordered(self):
        with pytest.raises(GeometryError):
            Rect(5, 0, 1, 3)

    def test_degenerate_allowed(self):
        r = Rect(3, 3, 3, 8)
        assert r.width == 0 and r.height == 5

    def test_from_points_any_order(self):
        assert Rect.from_points(Point(5, 1), Point(2, 7)) == Rect(2, 1, 5, 7)

    def test_from_origin_size(self):
        assert Rect.from_origin_size(2, 3, 10, 5) == Rect(2, 3, 12, 8)

    def test_from_origin_size_rejects_negative(self):
        with pytest.raises(GeometryError):
            Rect.from_origin_size(0, 0, -1, 5)


class TestMeasures:
    def test_width_height_area(self):
        r = Rect(1, 2, 5, 9)
        assert (r.width, r.height, r.area) == (4, 7, 28)

    def test_half_perimeter(self):
        assert Rect(0, 0, 3, 4).half_perimeter == 7

    def test_center_rounds_down(self):
        assert Rect(0, 0, 5, 5).center == Point(2, 2)

    def test_corners_ccw(self):
        bl, br, tr, tl = Rect(0, 0, 2, 3).corners
        assert (bl, br, tr, tl) == (Point(0, 0), Point(2, 0), Point(2, 3), Point(0, 3))

    def test_edges(self):
        bottom, right, top, left = Rect(0, 0, 2, 3).edges
        assert bottom == Segment.horizontal(0, 0, 2)
        assert top == Segment.horizontal(3, 0, 2)
        assert left == Segment.vertical(0, 0, 3)
        assert right == Segment.vertical(2, 0, 3)


class TestPointRelations:
    def test_contains_closed_vs_strict(self):
        r = Rect(0, 0, 10, 10)
        assert r.contains_point(Point(0, 5))
        assert not r.contains_point(Point(0, 5), strict=True)
        assert r.contains_point(Point(5, 5), strict=True)

    def test_on_boundary(self):
        r = Rect(0, 0, 10, 10)
        assert r.on_boundary(Point(0, 0))
        assert r.on_boundary(Point(10, 4))
        assert not r.on_boundary(Point(5, 5))
        assert not r.on_boundary(Point(11, 4))


class TestRectRelations:
    def test_contains_rect(self):
        assert Rect(0, 0, 10, 10).contains_rect(Rect(2, 2, 8, 8))
        assert Rect(0, 0, 10, 10).contains_rect(Rect(0, 0, 10, 10))
        assert not Rect(0, 0, 10, 10).contains_rect(Rect(2, 2, 11, 8))

    def test_intersects_touching_closed_not_strict(self):
        a, b = Rect(0, 0, 5, 5), Rect(5, 0, 9, 5)
        assert a.intersects(b)
        assert not a.intersects(b, strict=True)

    def test_intersection(self):
        assert Rect(0, 0, 5, 5).intersection(Rect(3, 3, 9, 9)) == Rect(3, 3, 5, 5)
        assert Rect(0, 0, 2, 2).intersection(Rect(5, 5, 9, 9)) is None

    def test_hull(self):
        assert Rect(0, 0, 2, 2).hull(Rect(5, 5, 9, 9)) == Rect(0, 0, 9, 9)

    def test_separation(self):
        assert Rect(0, 0, 2, 2).separation(Rect(5, 0, 9, 2)) == 3
        assert Rect(0, 0, 2, 2).separation(Rect(5, 6, 9, 9)) == 7  # 3 in x + 4 in y
        assert Rect(0, 0, 5, 5).separation(Rect(5, 5, 9, 9)) == 0


class TestSegmentRelations:
    def test_hugging_is_legal(self):
        r = Rect(2, 2, 8, 8)
        assert not r.segment_crosses_interior(Segment.horizontal(2, 0, 10))
        assert not r.segment_crosses_interior(Segment.horizontal(8, 0, 10))
        assert not r.segment_crosses_interior(Segment.vertical(2, 0, 10))

    def test_interior_crossing_detected(self):
        r = Rect(2, 2, 8, 8)
        assert r.segment_crosses_interior(Segment.horizontal(5, 0, 10))
        assert r.segment_crosses_interior(Segment.vertical(5, 0, 10))

    def test_partial_penetration_detected(self):
        r = Rect(2, 2, 8, 8)
        assert r.segment_crosses_interior(Segment.horizontal(5, 0, 5))

    def test_touching_endpoint_is_legal(self):
        r = Rect(2, 2, 8, 8)
        assert not r.segment_crosses_interior(Segment.horizontal(5, 0, 2))

    def test_degenerate_segment(self):
        r = Rect(2, 2, 8, 8)
        assert r.segment_crosses_interior(Segment(Point(5, 5), Point(5, 5)))
        assert not r.segment_crosses_interior(Segment(Point(2, 5), Point(2, 5)))


class TestTransforms:
    def test_inflated(self):
        assert Rect(2, 2, 8, 8).inflated(2) == Rect(0, 0, 10, 10)

    def test_deflate_past_degenerate_raises(self):
        with pytest.raises(GeometryError):
            Rect(0, 0, 2, 2).inflated(-2)  # would invert

    def test_translated(self):
        assert Rect(0, 0, 2, 2).translated(5, 7) == Rect(5, 7, 7, 9)


class TestBoundingRect:
    def test_bounding_rect(self):
        pts = [Point(3, 1), Point(-2, 8), Point(0, 0)]
        assert bounding_rect(pts) == Rect(-2, 0, 3, 8)

    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            bounding_rect([])
