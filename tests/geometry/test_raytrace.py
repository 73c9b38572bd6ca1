"""Unit tests for the obstacle set and ray tracer."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry.point import Direction, Point
from repro.geometry.raytrace import CoordIndex, ObstacleSet
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment

BOUND = Rect(0, 0, 100, 100)


def make_set(*rects: Rect) -> ObstacleSet:
    return ObstacleSet(BOUND, rects)


def scan_of(obs: ObstacleSet) -> ObstacleSet:
    """A fresh set over *obs*'s rects whose rays run the reference scan."""
    reference = ObstacleSet(obs.bound, obs.rects)
    reference._scan_rays = True
    return reference


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
        hit = obs.first_hit(Point(50, 50), Direction.EAST)
        assert hit.reach == Point(100, 50)
        assert hit.obstacle is None
        assert hit.distance == 50

    def test_blocked_ray_stops_at_near_edge(self):
        rect = Rect(60, 40, 80, 60)
        obs = make_set(rect)
        hit = obs.first_hit(Point(10, 50), Direction.EAST)
        assert hit.reach == Point(60, 50)
        assert hit.obstacle == rect
        assert hit.blocked_by_cell

    def test_all_four_directions(self):
        rect = Rect(40, 40, 60, 60)
        obs = make_set(rect)
        center = Point(50, 30)
        assert obs.first_hit(center, Direction.NORTH).reach == Point(50, 40)
        assert obs.first_hit(center, Direction.SOUTH).reach == Point(50, 0)
        assert obs.first_hit(center, Direction.EAST).reach == Point(100, 30)
        assert obs.first_hit(center, Direction.WEST).reach == Point(0, 30)

    def test_ray_slides_along_edge(self):
        # travelling exactly on the rect's edge coordinate is not blocked
        obs = make_set(Rect(40, 40, 60, 60))
        hit = obs.first_hit(Point(0, 40), Direction.EAST)
        assert hit.reach == Point(100, 40)

    def test_ray_from_obstacle_edge_heading_in_is_blocked_immediately(self):
        rect = Rect(40, 40, 60, 60)
        obs = make_set(rect)
        hit = obs.first_hit(Point(40, 50), Direction.EAST)
        assert hit.reach == Point(40, 50)
        assert hit.obstacle == rect
        assert hit.distance == 0

    def test_ray_from_obstacle_edge_heading_away(self):
        obs = make_set(Rect(40, 40, 60, 60))
        hit = obs.first_hit(Point(40, 50), Direction.WEST)
        assert hit.reach == Point(0, 50)

    def test_nearest_of_several_blocks(self):
        obs = make_set(Rect(60, 0, 70, 100), Rect(30, 40, 40, 60))
        hit = obs.first_hit(Point(0, 50), Direction.EAST)
        assert hit.reach == Point(30, 50)

    def test_origin_outside_bound_raises(self):
        with pytest.raises(GeometryError):
            make_set().first_hit(Point(200, 50), Direction.EAST)

    def test_origin_inside_obstacle_raises(self):
        obs = make_set(Rect(40, 40, 60, 60))
        with pytest.raises(GeometryError):
            obs.first_hit(Point(50, 50), Direction.EAST)

    def test_clear_run(self):
        obs = make_set(Rect(60, 40, 80, 60))
        run = obs.clear_run(Point(10, 50), Direction.EAST)
        assert run == Segment.horizontal(50, 10, 60)


class TestTrackIndex:
    def test_tie_goes_to_earliest_inserted_rect(self):
        first = Rect(60, 30, 70, 60)
        second = Rect(60, 40, 90, 80)
        origin = Point(10, 50)
        obs = make_set(first, second)
        for ray_set in (obs, scan_of(obs)):
            hit = ray_set.first_hit(origin, Direction.EAST)
            assert (hit.reach, hit.obstacle) == (Point(60, 50), first)
        assert make_set(second, first).first_hit(origin, Direction.EAST).obstacle == second
        grown = make_set(second).extended([first])
        for ray_set in (grown, scan_of(grown)):
            hit = ray_set.first_hit(origin, Direction.EAST)
            assert (hit.reach, hit.obstacle) == (Point(60, 50), second)

    def test_tie_on_the_far_side_goes_to_earliest_inserted_rect(self):
        first = Rect(20, 30, 40, 60)
        second = Rect(10, 40, 40, 80)
        obs = make_set(first, second)
        for ray_set in (obs, scan_of(obs)):
            hit = ray_set.first_hit(Point(90, 50), Direction.WEST)
            assert (hit.reach, hit.obstacle) == (Point(40, 50), first)

    def test_near_edge_on_the_bound_is_reported(self):
        beyond = Rect(110, 40, 130, 60)
        flush = Rect(100, 40, 120, 60)
        hit = make_set(beyond, flush).first_hit(Point(10, 50), Direction.EAST)
        assert (hit.reach, hit.obstacle) == (Point(100, 50), flush)
        hit = make_set(beyond).first_hit(Point(10, 50), Direction.EAST)
        assert (hit.reach, hit.obstacle) == (Point(100, 50), None)

    def test_reaches_matches_first_hit(self):
        obs = make_set(Rect(60, 40, 80, 60), Rect(10, 0, 30, 45), Rect(40, 70, 50, 100))
        origin = Point(45, 50)
        expected = (
            obs.first_hit(origin, Direction.EAST).reach.x,
            obs.first_hit(origin, Direction.WEST).reach.x,
            obs.first_hit(origin, Direction.NORTH).reach.y,
            obs.first_hit(origin, Direction.SOUTH).reach.y,
        )
        assert expected == (60, 0, 70, 0)
        assert obs.reaches(45, 50) == expected

    def test_reaches_rejects_illegal_origins(self):
        obs = make_set(Rect(40, 40, 60, 60))
        with pytest.raises(GeometryError, match="inside an obstacle"):
            obs.reaches(50, 50)
        with pytest.raises(GeometryError, match="outside routing bound"):
            obs.reaches(101, 50)


class TestExtended:
    def test_extended_leaves_the_original_alone(self):
        obs = make_set()
        assert obs.first_hit(Point(10, 50), Direction.EAST).reach == Point(100, 50)
        blocker = Rect(40, 40, 60, 60)
        grown = obs.extended([blocker])
        hit = grown.first_hit(Point(10, 50), Direction.EAST)
        assert (hit.reach, hit.obstacle) == (Point(40, 50), blocker)
        assert not grown.segment_free(Segment.horizontal(50, 0, 100))
        # The original's indexed track still answers for the original set.
        assert obs.first_hit(Point(10, 50), Direction.EAST).reach == Point(100, 50)
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
        obs.first_hit(Point(10, 50), Direction.EAST)
        grown = obs.extended([Rect(10, 70, 20, 80)])
        assert grown.ray_probes == 0
        grown.reaches(10, 50)
        assert (obs.ray_probes, grown.ray_probes) == (1, 4)

    def test_extended_after_indexed_rays_matches_scan(self):
        # The original's tracks are indexed before it is extended; the
        # grown set must index its own tracks over every rect, and the
        # tie must still go to `first`, which precedes `second`.
        first = Rect(60, 30, 70, 60)
        second = Rect(60, 40, 90, 80)
        fillers = [Rect(i, 0, i + 1, 10) for i in range(0, 40, 4)]
        obs = make_set(*fillers[:4], first)
        origins = (Point(10, 50), Point(0, 5), Point(80, 5), Point(95, 50))
        for origin in origins:
            obs.reaches(origin.x, origin.y)
        grown = obs.extended([*fillers[4:], second])
        reference = scan_of(grown)
        for origin in origins:
            reaches = []
            for direction in Direction:
                hit = grown.first_hit(origin, direction)
                assert hit == reference.first_hit(origin, direction)
                reaches.append(hit.reach.x if direction.is_horizontal else hit.reach.y)
            assert grown.reaches(origin.x, origin.y) == tuple(reaches)
        assert grown.first_hit(Point(10, 50), Direction.EAST).obstacle == first
        assert grown.first_hit(Point(95, 50), Direction.WEST).obstacle == second
        assert obs.first_hit(Point(95, 50), Direction.WEST).obstacle == first

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
            for direction in Direction:
                assert grown.first_hit(origin, direction) == fresh.first_hit(origin, direction)
            assert grown.reaches(origin.x, origin.y) == fresh.reaches(origin.x, origin.y)


class TestRayProbes:
    def test_every_ray_is_one_probe(self):
        obs = make_set(Rect(40, 40, 60, 60))
        origin = Point(10, 50)
        first = obs.first_hit(origin, Direction.EAST)
        assert obs.ray_probes == 1
        second = obs.first_hit(origin, Direction.EAST)
        assert obs.ray_probes == 2  # a repeat is traced again, not remembered
        assert first == second
        obs.reaches(origin.x, origin.y)
        assert obs.ray_probes == 6  # all four directions at once

    def test_illegal_origin_raises_every_time(self):
        obs = make_set(Rect(40, 40, 60, 60))
        with pytest.raises(GeometryError):
            obs.first_hit(Point(50, 50), Direction.EAST)
        with pytest.raises(GeometryError):  # and again (errors are not remembered)
            obs.first_hit(Point(50, 50), Direction.EAST)

    def test_duplicate_rects_both_kept(self):
        rect = Rect(40, 40, 60, 60)
        obs = make_set(rect, rect)
        assert obs.rects == (rect, rect)
        assert not obs.segment_free(Segment.horizontal(50, 0, 100))
        hit = obs.first_hit(Point(10, 50), Direction.EAST)
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
