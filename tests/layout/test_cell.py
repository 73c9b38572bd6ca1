"""Unit tests for cells."""

import pytest

from repro.errors import LayoutError
from repro.geometry.orthpoly import OrthoPolygon
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout.cell import Cell


def l_cell() -> Cell:
    return Cell(
        "L",
        OrthoPolygon(
            [Point(0, 0), Point(4, 0), Point(4, 2), Point(2, 2), Point(2, 4), Point(0, 4)]
        ),
    )


class TestConstruction:
    def test_rect_cell(self):
        cell = Cell.rect("m1", 2, 3, 10, 6)
        assert cell.is_rectangular
        assert cell.bounding_box == Rect(2, 3, 12, 9)

    def test_empty_name_rejected(self):
        with pytest.raises(LayoutError):
            Cell("", Rect(0, 0, 5, 5))

    def test_degenerate_rect_rejected(self):
        with pytest.raises(LayoutError):
            Cell("flat", Rect(0, 0, 5, 0))

    def test_polygon_cell(self):
        cell = l_cell()
        assert not cell.is_rectangular
        assert cell.bounding_box == Rect(0, 0, 4, 4)


class TestBlocking:
    def test_rect_blocks_with_itself(self):
        cell = Cell.rect("m", 0, 0, 5, 5)
        assert cell.blocking_rects == (Rect(0, 0, 5, 5),)

    def test_polygon_blocks_with_decomposition(self):
        rects = l_cell().blocking_rects
        # The two disjoint slabs (area 12), then the bridge over their seam.
        assert rects[:2] == tuple(l_cell().shape.to_rects())
        assert sum(r.area for r in rects[:2]) == 12
        assert rects[2:] == (Rect(0, 0, 2, 4),)
        assert sum(r.area for r in rects) == 20

    def test_area(self):
        assert Cell.rect("m", 0, 0, 5, 4).area == 20
        assert l_cell().area == 12

    def test_boundary_and_containment(self):
        cell = Cell.rect("m", 0, 0, 5, 5)
        assert cell.on_boundary(Point(0, 3))
        assert cell.contains_point(Point(2, 2), strict=True)
        assert not cell.contains_point(Point(0, 3), strict=True)

    def test_polygon_boundary(self):
        cell = l_cell()
        assert cell.on_boundary(Point(2, 3))
        assert not cell.contains_point(Point(3, 3))


class TestTransforms:
    def test_translate_rect(self):
        cell = Cell.rect("m", 0, 0, 5, 5).translated(10, 20)
        assert cell.bounding_box == Rect(10, 20, 15, 25)
        assert cell.name == "m"

    def test_translate_polygon(self):
        moved = l_cell().translated(10, 0)
        assert moved.bounding_box == Rect(10, 0, 14, 4)
        assert moved.area == 12

    def test_renamed(self):
        cell = Cell.rect("proto", 0, 0, 5, 5).renamed("u1")
        assert cell.name == "u1"
        assert cell.bounding_box == Rect(0, 0, 5, 5)

    def test_rotate_rect_swaps_extents(self):
        cell = Cell.rect("m", 2, 3, 10, 4).rotated90()
        assert cell.bounding_box == Rect(2, 3, 6, 13)

    def test_rotate_polygon_preserves_area(self):
        rotated = l_cell().rotated90()
        assert rotated.area == 12
        assert rotated.bounding_box == Rect(0, 0, 4, 4)

    def test_rotate_four_times_identity_on_bbox(self):
        cell = Cell.rect("m", 0, 0, 7, 3)
        quad = cell.rotated90().rotated90().rotated90().rotated90()
        assert quad.bounding_box == cell.bounding_box
