"""Unit tests for points, axes, and directions."""

import pytest

from repro.geometry.point import ALL_DIRECTIONS, Axis, Direction, Point, manhattan


class TestPoint:
    def test_manhattan_distance(self):
        assert Point(0, 0).manhattan(Point(3, 4)) == 7

    def test_manhattan_is_symmetric(self):
        a, b = Point(-2, 5), Point(7, -1)
        assert a.manhattan(b) == b.manhattan(a)

    def test_manhattan_zero_for_same_point(self):
        assert Point(9, 9).manhattan(Point(9, 9)) == 0

    def test_module_level_alias(self):
        assert manhattan(Point(1, 1), Point(2, 3)) == 3

    def test_translated(self):
        assert Point(1, 2).translated(3, -5) == Point(4, -3)

    def test_with_x_and_with_y(self):
        p = Point(1, 2)
        assert p.with_x(9) == Point(9, 2)
        assert p.with_y(9) == Point(1, 9)

    def test_coord_access_by_axis(self):
        p = Point(3, 8)
        assert p.coord(Axis.X) == 3
        assert p.coord(Axis.Y) == 8

    def test_lexicographic_ordering(self):
        assert Point(1, 5) < Point(2, 0)
        assert Point(1, 2) < Point(1, 3)

    def test_hashable_and_equal(self):
        assert len({Point(1, 1), Point(1, 1), Point(2, 1)}) == 2

    def test_unpacking(self):
        x, y = Point(4, 7)
        assert (x, y) == (4, 7)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Point(1, 2).x = 5  # type: ignore[misc]


class TestAxis:
    def test_other_axis(self):
        assert Axis.X.other is Axis.Y
        assert Axis.Y.other is Axis.X


class TestDirection:
    def test_unit_displacements(self):
        assert (Direction.EAST.dx, Direction.EAST.dy) == (1, 0)
        assert (Direction.NORTH.dx, Direction.NORTH.dy) == (0, 1)

    def test_axis_of_travel(self):
        assert Direction.EAST.axis is Axis.X
        assert Direction.SOUTH.axis is Axis.Y

    def test_is_horizontal(self):
        assert Direction.WEST.is_horizontal
        assert not Direction.NORTH.is_horizontal

    def test_sign(self):
        assert Direction.EAST.sign == 1
        assert Direction.WEST.sign == -1
        assert Direction.NORTH.sign == 1
        assert Direction.SOUTH.sign == -1

    def test_opposites(self):
        for d in ALL_DIRECTIONS:
            assert d.opposite.opposite is d

    def test_toward_gives_goal_reducing_moves(self):
        moves = Direction.toward(Point(0, 0), Point(5, -3))
        assert moves == [Direction.EAST, Direction.SOUTH]

    def test_toward_same_point_is_empty(self):
        assert Direction.toward(Point(1, 1), Point(1, 1)) == []

    def test_toward_single_axis(self):
        assert Direction.toward(Point(0, 0), Point(0, 9)) == [Direction.NORTH]
