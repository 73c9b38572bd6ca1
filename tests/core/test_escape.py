"""Unit tests for escape-point successor generation."""

from repro.core.escape import EscapeMode, escape_moves
from repro.geometry.point import Direction, Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment

BOUND = Rect(0, 0, 100, 100)


class TestFullMode:
    def test_empty_surface_reaches_boundaries(self):
        obs = ObstacleSet(BOUND)
        moves = escape_moves(Point(50, 50), obs, mode=EscapeMode.FULL)
        points = {p for p, _d in moves}
        assert points == {Point(100, 50), Point(0, 50), Point(50, 100), Point(50, 0)}

    def test_stops_at_obstacle_edge_coordinates(self):
        obs = ObstacleSet(BOUND, [Rect(30, 60, 50, 80)])
        moves = escape_moves(Point(0, 50), obs, mode=EscapeMode.FULL)
        east_stops = {p.x for p, d in moves if d is Direction.EAST}
        # the cell's x-edges register as escape stops along the clear ray
        assert {30, 50, 100} <= east_stops

    def test_extra_coordinates_become_stops(self):
        obs = ObstacleSet(BOUND)
        moves = escape_moves(
            Point(0, 50), obs, mode=EscapeMode.FULL, extra_xs=[42], extra_ys=[77]
        )
        assert (Point(42, 50), Direction.EAST) in moves

    def test_blocked_ray_stops_at_cell(self):
        obs = ObstacleSet(BOUND, [Rect(60, 40, 80, 60)])
        moves = escape_moves(Point(0, 50), obs, mode=EscapeMode.FULL)
        east = [p for p, d in moves if d is Direction.EAST]
        assert max(p.x for p in east) == 60  # cannot pass the cell

    def test_no_successor_into_blocking_cell(self):
        obs = ObstacleSet(BOUND, [Rect(60, 40, 80, 60)])
        moves = escape_moves(Point(60, 50), obs, mode=EscapeMode.FULL)
        # on the cell's left edge: east is blocked immediately
        assert all(d is not Direction.EAST for _p, d in moves)

    def test_all_moves_are_legal_segments(self):
        obs = ObstacleSet(
            BOUND, [Rect(20, 20, 40, 40), Rect(60, 50, 80, 70), Rect(30, 60, 50, 90)]
        )
        origin = Point(10, 50)
        for succ, _d in escape_moves(origin, obs, mode=EscapeMode.FULL):
            assert obs.segment_free(Segment(origin, succ))

    def test_deduplication(self):
        obs = ObstacleSet(BOUND, [Rect(30, 60, 50, 80)])
        moves = escape_moves(Point(0, 50), obs, mode=EscapeMode.FULL, extra_xs=[30])
        points = [p for p, _d in moves]
        assert len(points) == len(set(points))

    def test_one_four_ray_query_per_origin(self):
        obs = ObstacleSet(BOUND, [Rect(30, 60, 50, 80), Rect(60, 40, 80, 60)])
        for mode in EscapeMode:
            before = obs.ray_probes
            escape_moves(Point(0, 50), obs, mode=mode, extra_xs=[42])
            assert obs.ray_probes - before == 4


class TestAggressiveMode:
    def test_far_fewer_stops_than_full(self):
        rects = [Rect(20 * i, 20 * j, 20 * i + 8, 20 * j + 8)
                 for i in range(1, 5) for j in range(1, 5)]
        obs = ObstacleSet(BOUND, rects)
        origin = Point(1, 1)
        full = escape_moves(origin, obs, mode=EscapeMode.FULL, extra_xs=[99], extra_ys=[99])
        aggressive = escape_moves(
            origin, obs, mode=EscapeMode.AGGRESSIVE, extra_xs=[99], extra_ys=[99]
        )
        assert len(aggressive) < len(full)

    def test_goal_projection_included(self):
        obs = ObstacleSet(BOUND)
        moves = escape_moves(
            Point(0, 50), obs, mode=EscapeMode.AGGRESSIVE, extra_xs=[73], extra_ys=[]
        )
        assert (Point(73, 50), Direction.EAST) in moves

    def test_hugged_cell_corners_included(self):
        cell = Rect(40, 40, 60, 60)
        obs = ObstacleSet(BOUND, [cell])
        # standing on the cell's left edge: vertical moves must stop at
        # the cell's corner coordinates so the path can round them
        moves = escape_moves(Point(40, 50), obs, mode=EscapeMode.AGGRESSIVE)
        stop_ys = {p.y for p, d in moves if not d.is_horizontal}
        assert {40, 60} <= stop_ys

    def test_blocking_cell_corners_included(self):
        cell = Rect(60, 40, 80, 60)
        obs = ObstacleSet(BOUND, [cell])
        # ray east from (0,50) hits the cell; stops include the hit point
        moves = escape_moves(Point(0, 50), obs, mode=EscapeMode.AGGRESSIVE)
        assert (Point(60, 50), Direction.EAST) in moves

    def test_moves_are_legal(self):
        obs = ObstacleSet(BOUND, [Rect(20, 20, 40, 40), Rect(60, 50, 80, 70)])
        origin = Point(40, 30)  # on first cell's right edge
        for succ, _d in escape_moves(origin, obs, mode=EscapeMode.AGGRESSIVE):
            assert obs.segment_free(Segment(origin, succ))
