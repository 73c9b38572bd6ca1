"""Unit tests for the obstacle set and ray tracer."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry.point import ALL_DIRECTIONS, Direction, Point
from repro.geometry.raytrace import CoordIndex, Hit, ObstacleSet
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment

BOUND = Rect(0, 0, 100, 100)


def make_set(*rects: Rect) -> ObstacleSet:
    return ObstacleSet(BOUND, rects)


def ray(obs: ObstacleSet, origin: Point, direction: Direction) -> Hit:
    """The one of :meth:`ObstacleSet.rays` heading in *direction*."""
    return obs.rays(origin)[ALL_DIRECTIONS.index(direction)]


class TestPointQueries:
    def test_free_space(self):
        obs = make_set(Rect(10, 10, 20, 20))
        assert obs.point_free(Point(5, 5))

    def test_strict_interior_blocked(self):
        obs = make_set(Rect(10, 10, 20, 20))
        assert not obs.point_free(Point(15, 15))

    def test_boundary_is_routable(self):
        obs = make_set(Rect(10, 10, 20, 20))
        assert obs.point_free(Point(10, 15))
        assert obs.point_free(Point(20, 20))

    def test_outside_bound_not_free(self):
        assert not make_set().point_free(Point(101, 5))

    def test_rects_touching(self):
        obs = make_set(Rect(10, 10, 20, 20), Rect(20, 10, 30, 20))
        touching = obs.rects_touching(Point(20, 15))
        assert len(touching) == 2
        assert obs.rects_touching(Point(50, 50)) == []


class TestSegmentQueries:
    def test_clear_segment(self):
        obs = make_set(Rect(10, 10, 20, 20))
        assert obs.segment_free(Segment.horizontal(5, 0, 100))

    def test_crossing_segment_blocked(self):
        obs = make_set(Rect(10, 10, 20, 20))
        assert not obs.segment_free(Segment.horizontal(15, 0, 100))
        assert not obs.segment_free(Segment.vertical(15, 0, 100))

    def test_hugging_segment_clear(self):
        obs = make_set(Rect(10, 10, 20, 20))
        assert obs.segment_free(Segment.horizontal(10, 0, 100))
        assert obs.segment_free(Segment.vertical(20, 0, 100))

    def test_segment_leaving_bound_blocked(self):
        assert not make_set().segment_free(Segment.horizontal(5, -5, 50))

    def test_degenerate_segment(self):
        obs = make_set(Rect(10, 10, 20, 20))
        assert not obs.segment_free(Segment(Point(15, 15), Point(15, 15)))
        assert obs.segment_free(Segment(Point(10, 15), Point(10, 15)))


class TestRays:
    def test_unobstructed_ray_reaches_bound(self):
        obs = make_set()
        hit = ray(obs, Point(50, 50), Direction.EAST)
        assert hit.reach == Point(100, 50)
        assert hit.obstacle is None
        assert hit.distance == 50

    def test_blocked_ray_stops_at_near_edge(self):
        rect = Rect(60, 40, 80, 60)
        obs = make_set(rect)
        hit = ray(obs, Point(10, 50), Direction.EAST)
        assert hit.reach == Point(60, 50)
        assert hit.obstacle == rect

    def test_all_four_directions(self):
        rect = Rect(40, 40, 60, 60)
        obs = make_set(rect)
        center = Point(50, 30)
        east, west, north, south = obs.rays(center)
        assert (east.reach, west.reach) == (Point(100, 30), Point(0, 30))
        assert (north.reach, south.reach) == (Point(50, 40), Point(50, 0))
        assert (east.obstacle, west.obstacle, north.obstacle, south.obstacle) == (
            None, None, rect, None
        )
        assert all(hit.origin == center for hit in (east, west, north, south))

    def test_one_pass_serves_the_row_and_the_column(self):
        obs = make_set(Rect(60, 40, 80, 60), Rect(10, 0, 30, 45), Rect(40, 70, 50, 100))
        east, west, north, south = obs.rays(Point(45, 50))
        assert (east.reach.x, west.reach.x, north.reach.y, south.reach.y) == (60, 0, 70, 0)
        assert (east.obstacle, north.obstacle) == obs.rects[::2]

    def test_ray_slides_along_edge(self):
        # travelling exactly on the rect's edge coordinate is not blocked
        obs = make_set(Rect(40, 40, 60, 60))
        hit = ray(obs, Point(0, 40), Direction.EAST)
        assert hit.reach == Point(100, 40)

    def test_ray_from_obstacle_edge_heading_in_is_blocked_immediately(self):
        rect = Rect(40, 40, 60, 60)
        obs = make_set(rect)
        hit = ray(obs, Point(40, 50), Direction.EAST)
        assert hit.reach == Point(40, 50)
        assert hit.obstacle == rect
        assert hit.distance == 0

    def test_ray_from_obstacle_edge_heading_away(self):
        obs = make_set(Rect(40, 40, 60, 60))
        hit = ray(obs, Point(40, 50), Direction.WEST)
        assert hit.reach == Point(0, 50)

    def test_nearest_of_several_blocks(self):
        obs = make_set(Rect(60, 0, 70, 100), Rect(30, 40, 40, 60))
        hit = ray(obs, Point(0, 50), Direction.EAST)
        assert hit.reach == Point(30, 50)

    def test_degenerate_rect_on_the_track_blocks_neither_side(self):
        obs = make_set(Rect(50, 40, 50, 60), Rect(40, 50, 60, 50))
        east, west, north, south = obs.rays(Point(50, 50))
        assert (east.reach, west.reach) == (Point(100, 50), Point(0, 50))
        assert (north.reach, south.reach) == (Point(50, 100), Point(50, 0))

    def test_hits_come_in_all_directions_order(self):
        obs = make_set(Rect(60, 40, 80, 60), Rect(40, 0, 60, 20))
        origin = Point(50, 50)
        for direction, hit in zip(ALL_DIRECTIONS, obs.rays(origin)):
            dx, dy = hit.reach.x - origin.x, hit.reach.y - origin.y
            assert (dx * direction.dy, dy * direction.dx) == (0, 0)
            assert dx * direction.dx + dy * direction.dy == hit.distance > 0

    def test_origin_on_a_cell_corner_slides_along_both_edges(self):
        obs = make_set(Rect(40, 40, 60, 60))
        east, west, north, south = obs.rays(Point(40, 40))
        assert (east.reach, north.reach) == (Point(100, 40), Point(40, 100))
        assert (west.reach, south.reach) == (Point(0, 40), Point(40, 0))
        assert {east.obstacle, west.obstacle, north.obstacle, south.obstacle} == {None}

    def test_origin_on_the_bound_corner_has_two_empty_rays(self):
        east, west, north, south = make_set(Rect(40, 40, 60, 60)).rays(Point(0, 0))
        assert (west.distance, south.distance) == (0, 0)
        assert (west.obstacle, south.obstacle) == (None, None)
        assert (east.reach, north.reach) == (Point(100, 0), Point(0, 100))

    def test_origin_outside_bound_raises(self):
        with pytest.raises(GeometryError, match="outside routing bound"):
            make_set().rays(Point(200, 50))

    def test_origin_inside_obstacle_raises(self):
        obs = make_set(Rect(10, 10, 20, 20), Rect(40, 40, 60, 60))
        with pytest.raises(GeometryError, match="inside an obstacle"):
            obs.rays(Point(50, 50))


class TestTies:
    def test_tie_goes_to_earliest_inserted_rect(self):
        first = Rect(60, 30, 70, 60)
        second = Rect(60, 40, 90, 80)
        origin = Point(10, 50)
        hit = ray(make_set(first, second), origin, Direction.EAST)
        assert (hit.reach, hit.obstacle) == (Point(60, 50), first)
        assert ray(make_set(second, first), origin, Direction.EAST).obstacle == second
        hit = ray(make_set(second).extended([first]), origin, Direction.EAST)
        assert (hit.reach, hit.obstacle) == (Point(60, 50), second)

    def test_tie_on_the_far_side_goes_to_earliest_inserted_rect(self):
        first = Rect(20, 30, 40, 60)
        second = Rect(10, 40, 40, 80)
        hit = ray(make_set(first, second), Point(90, 50), Direction.WEST)
        assert (hit.reach, hit.obstacle) == (Point(40, 50), first)

    def test_near_edge_on_the_bound_is_reported(self):
        beyond = Rect(110, 40, 130, 60)
        flush = Rect(100, 40, 120, 60)
        hit = ray(make_set(beyond, flush), Point(10, 50), Direction.EAST)
        assert (hit.reach, hit.obstacle) == (Point(100, 50), flush)
        hit = ray(make_set(beyond), Point(10, 50), Direction.EAST)
        assert (hit.reach, hit.obstacle) == (Point(100, 50), None)


    def test_near_edge_on_the_low_bound_is_reported(self):
        beyond = Rect(-30, 40, -10, 60)
        flush = Rect(40, -20, 60, 0)
        west = ray(make_set(beyond, flush), Point(50, 50), Direction.WEST)
        assert (west.reach, west.obstacle) == (Point(0, 50), None)
        south = ray(make_set(beyond, flush), Point(50, 50), Direction.SOUTH)
        assert (south.reach, south.obstacle) == (Point(50, 0), flush)

    def test_vertical_ties_go_to_earliest_inserted_rect(self):
        first = Rect(30, 70, 60, 80)
        second = Rect(40, 70, 80, 90)
        north = ray(make_set(first, second), Point(50, 10), Direction.NORTH)
        assert (north.reach, north.obstacle) == (Point(50, 70), first)
        below = [Rect(30, 10, 60, 20), Rect(40, 0, 80, 20)]
        for rects in (below, below[::-1]):
            south = ray(make_set(*rects), Point(50, 90), Direction.SOUTH)
            assert (south.reach, south.obstacle) == (Point(50, 20), rects[0])


class TestExtended:
    def test_extended_leaves_the_original_alone(self):
        obs = make_set()
        assert ray(obs, Point(10, 50), Direction.EAST).reach == Point(100, 50)
        blocker = Rect(40, 40, 60, 60)
        grown = obs.extended([blocker])
        hit = ray(grown, Point(10, 50), Direction.EAST)
        assert (hit.reach, hit.obstacle) == (Point(40, 50), blocker)
        assert not grown.segment_free(Segment.horizontal(50, 0, 100))
        assert ray(obs, Point(10, 50), Direction.EAST).reach == Point(100, 50)
        assert obs.segment_free(Segment.horizontal(50, 0, 100))
        assert obs.rects == ()

    def test_extended_appends(self):
        a, b, c = Rect(10, 10, 20, 20), Rect(30, 30, 40, 40), Rect(50, 50, 60, 60)
        grown = make_set(a).extended([b, c])
        assert grown.rects == (a, b, c)
        assert grown.bound == BOUND
        assert grown.extended([]).rects == grown.rects

    def test_extended_takes_any_iterable(self):
        rects = [Rect(10, 10, 20, 20), Rect(30, 30, 40, 40)]
        grown = make_set().extended(r for r in rects)
        assert grown.rects == tuple(rects)

    def test_extended_registers_new_edges(self):
        obs = make_set(Rect(10, 10, 20, 20))
        grown = obs.extended([Rect(33, 44, 55, 66)])
        assert list(grown.edge_xs) == [0, 10, 20, 33, 55, 100]
        assert list(grown.edge_ys) == [0, 10, 20, 44, 66, 100]
        assert grown.edge_xs.as_array().tolist() == [0, 10, 20, 33, 55, 100]
        assert list(obs.edge_xs) == [0, 10, 20, 100]
        assert list(obs.edge_ys) == [0, 10, 20, 100]

    def test_extended_point_queries_see_new_rects(self):
        rect = Rect(40, 40, 60, 60)
        obs = make_set()
        grown = obs.extended([rect])
        assert not grown.point_free(Point(50, 50))
        assert grown.rects_touching(Point(40, 50)) == [rect]
        assert grown.on_any_boundary(Point(60, 45))
        assert obs.point_free(Point(50, 50))
        assert obs.rects_touching(Point(40, 50)) == []
        assert not obs.on_any_boundary(Point(60, 45))

    def test_extended_starts_its_own_probe_count(self):
        obs = make_set(Rect(40, 40, 60, 60))
        obs.rays(Point(10, 50))
        grown = obs.extended([Rect(10, 70, 20, 80)])
        assert grown.ray_probes == 0
        grown.rays(Point(10, 50))
        grown.rays(Point(10, 50))
        assert (obs.ray_probes, grown.ray_probes) == (4, 8)

    def test_extended_keeps_the_tie_break_rank(self):
        # `first` precedes `second` in the grown set, so it wins the tie
        # east of (10, 50); west of (95, 50) only `second` straddles.
        first = Rect(60, 30, 70, 60)
        second = Rect(60, 40, 90, 80)
        fillers = [Rect(i, 0, i + 1, 10) for i in range(0, 40, 4)]
        obs = make_set(*fillers[:4], first)
        grown = obs.extended([*fillers[4:], second])
        assert ray(grown, Point(10, 50), Direction.EAST).obstacle == first
        assert ray(grown, Point(95, 50), Direction.WEST).obstacle == second
        assert ray(obs, Point(95, 50), Direction.WEST).obstacle == first

    def test_extended_chain_matches_fresh_build(self):
        rects = [Rect(5 + 9 * i, 7 * (i % 5), 10 + 9 * i, 20 + 7 * (i % 5)) for i in range(10)]
        grown = make_set()
        for rect in rects:
            grown = grown.extended([rect])
        fresh = make_set(*rects)
        assert grown.rects == fresh.rects
        assert list(grown.edge_xs) == list(fresh.edge_xs)
        assert list(grown.edge_ys) == list(fresh.edge_ys)
        for origin in (Point(0, 30), Point(50, 99), Point(97, 3), Point(3, 97)):
            assert grown.rays(origin) == fresh.rays(origin)


class TestRayProbes:
    def test_every_call_is_four_probes(self):
        obs = make_set(Rect(40, 40, 60, 60))
        origin = Point(10, 50)
        first = obs.rays(origin)
        assert obs.ray_probes == 4
        second = obs.rays(origin)
        assert obs.ray_probes == 8  # a repeat is traced again, not remembered
        assert first == second

    def test_illegal_origin_raises_every_time(self):
        obs = make_set(Rect(40, 40, 60, 60))
        with pytest.raises(GeometryError):
            obs.rays(Point(50, 50))
        with pytest.raises(GeometryError):  # and again (errors are not remembered)
            obs.rays(Point(50, 50))
        assert obs.ray_probes == 8

    def test_duplicate_rects_both_kept(self):
        rect = Rect(40, 40, 60, 60)
        obs = make_set(rect, rect)
        assert obs.rects == (rect, rect)
        assert not obs.segment_free(Segment.horizontal(50, 0, 100))
        hit = ray(obs, Point(10, 50), Direction.EAST)
        assert (hit.reach, hit.obstacle) == (Point(40, 50), rect)
        assert obs.rects_touching(Point(40, 50)) == [rect, rect]


class TestEdgeIndexes:
    def test_edge_coordinates_include_bound(self):
        obs = make_set(Rect(10, 10, 20, 20))
        assert set(obs.edge_xs) == {0, 10, 20, 100}
        assert set(obs.edge_ys) == {0, 10, 20, 100}

    def test_edge_coordinates_are_distinct_and_sorted(self):
        obs = make_set(Rect(10, 10, 20, 20), Rect(20, 10, 30, 20), Rect(10, 10, 20, 20))
        assert list(obs.edge_xs) == [0, 10, 20, 30, 100]
        assert obs.edge_xs.as_array().tolist() == [0, 10, 20, 30, 100]
        assert len(obs.edge_ys) == 4

    def test_degenerate_rect_never_blocks_but_registers_edges(self):
        obs = make_set(Rect(50, 10, 50, 90))
        assert obs.segment_free(Segment.horizontal(50, 0, 100))
        assert 50 in obs.edge_xs


class TestCoordIndex:
    def test_sorted_distinct_iteration(self):
        idx = CoordIndex([5, 1, 3, 1])
        assert list(idx) == [1, 3, 5]
        assert len(idx) == 3

    def test_len(self):
        assert len(CoordIndex([1, 1, 2])) == 2
        assert len(CoordIndex()) == 0

    def test_between_open_default(self):
        idx = CoordIndex([0, 2, 4, 6, 8])
        assert idx.between(2, 6) == [4]

    def test_between_inclusive_flags(self):
        idx = CoordIndex([0, 2, 4, 6, 8])
        assert idx.between(2, 6, include_lo=True) == [2, 4]
        assert idx.between(2, 6, include_hi=True) == [4, 6]
        assert idx.between(2, 6, include_lo=True, include_hi=True) == [2, 4, 6]

    def test_between_swapped_bounds(self):
        idx = CoordIndex([0, 2, 4])
        assert idx.between(4, 0) == [2]

    def test_as_array(self):
        array = CoordIndex([9, 0, 4, 4]).as_array()
        assert array.dtype == np.int64
        assert array.tolist() == [0, 4, 9]
        assert CoordIndex().as_array().tolist() == []
