"""Unit tests for the obstacle set and ray tracer."""

import pytest

from repro.errors import GeometryError
from repro.geometry.point import Direction, Point
from repro.geometry.raytrace import _COMPACT_SLACK, ObstacleSet
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
        obs.remove(first)
        for ray_set in (obs, scan_of(obs)):
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
        obs = make_set(beyond, flush)
        hit = obs.first_hit(Point(10, 50), Direction.EAST)
        assert (hit.reach, hit.obstacle) == (Point(100, 50), flush)
        obs.remove(flush)
        hit = obs.first_hit(Point(10, 50), Direction.EAST)
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

    def test_index_across_compaction(self):
        # The blockers sit behind enough removed fillers that compaction
        # renumbers their slots; the tie must still go to `first`.
        first = Rect(60, 30, 70, 60)
        second = Rect(60, 40, 90, 80)
        fillers = [Rect(i, 0, i + 1, 10) for i in range(_COMPACT_SLACK + 8)]
        obs = make_set(*fillers[:4], first, *fillers[4:], second)
        for filler in fillers:
            obs.remove(filler)
            reference = scan_of(obs)
            for origin in (Point(10, 50), Point(0, 5), Point(80, 5)):
                reaches = []
                for direction in Direction:
                    hit = obs.first_hit(origin, direction)
                    assert hit == reference.first_hit(origin, direction)
                    reaches.append(hit.reach.x if direction.is_horizontal else hit.reach.y)
                assert obs.reaches(origin.x, origin.y) == tuple(reaches)
            assert obs.first_hit(Point(10, 50), Direction.EAST).obstacle == first
        assert len(obs._slots) < len(fillers) + 2  # compaction did run


class TestMutation:
    def test_add_invalidates_queries(self):
        obs = make_set()
        assert obs.segment_free(Segment.horizontal(50, 0, 100))
        obs.add(Rect(40, 40, 60, 60))
        assert not obs.segment_free(Segment.horizontal(50, 0, 100))

    def test_remove_restores(self):
        rect = Rect(40, 40, 60, 60)
        obs = make_set(rect)
        obs.remove(rect)
        assert obs.segment_free(Segment.horizontal(50, 0, 100))

    def test_remove_absent_raises(self):
        with pytest.raises(GeometryError):
            make_set().remove(Rect(0, 0, 1, 1))

    def test_add_many(self):
        obs = make_set()
        obs.add_many([Rect(10, 10, 20, 20), Rect(30, 30, 40, 40)])
        assert len(obs.rects) == 2


class TestEpochAndRayCache:
    """Mutation invalidates the per-track index; every ray is one probe."""

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

    def test_epoch_bump_invalidates_stale_hits(self):
        # Regression: an indexed track must not survive a mutation that
        # changes the answer.
        obs = make_set()
        origin = Point(10, 50)
        assert obs.first_hit(origin, Direction.EAST).reach == Point(100, 50)
        blocker = Rect(40, 40, 60, 60)
        obs.add(blocker)
        hit = obs.first_hit(origin, Direction.EAST)
        assert hit.reach == Point(40, 50)
        assert hit.obstacle == blocker
        obs.remove(blocker)
        assert obs.first_hit(origin, Direction.EAST).reach == Point(100, 50)

    def test_illegal_origin_still_raises_with_cache(self):
        obs = make_set(Rect(40, 40, 60, 60))
        with pytest.raises(GeometryError):
            obs.first_hit(Point(50, 50), Direction.EAST)
        with pytest.raises(GeometryError):  # and again (errors are not cached)
            obs.first_hit(Point(50, 50), Direction.EAST)

    def test_remove_duplicate_keeps_one(self):
        rect = Rect(40, 40, 60, 60)
        obs = make_set(rect, rect)
        obs.remove(rect)
        assert obs.rects == (rect,)
        assert not obs.segment_free(Segment.horizontal(50, 0, 100))
        obs.remove(rect)
        assert obs.rects == ()
        assert obs.segment_free(Segment.horizontal(50, 0, 100))

    def test_heavy_churn_compacts_without_drift(self):
        # Push enough removals through to trigger compaction and check
        # queries still match a pristine set.
        obs = make_set()
        rects = [Rect(i % 9 * 10 + 1, i // 9 * 10 + 1, i % 9 * 10 + 5, i // 9 * 10 + 5)
                 for i in range(81)]
        obs.add_many(rects)
        for rect in rects[:70]:
            obs.remove(rect)
        pristine = ObstacleSet(BOUND, rects[70:])
        assert obs.rects == pristine.rects
        assert list(obs.edge_xs) == list(pristine.edge_xs)
        for x in range(0, 101, 7):
            p = Point(x, 50)
            assert obs.point_free(p) == pristine.point_free(p)
            if obs.point_free(p):
                assert obs.first_hit(p, Direction.NORTH) == pristine.first_hit(p, Direction.NORTH)


class TestEdgeIndexes:
    def test_edge_coordinates_include_bound(self):
        obs = make_set(Rect(10, 10, 20, 20))
        assert set(obs.edge_xs) == {0, 10, 20, 100}
        assert set(obs.edge_ys) == {0, 10, 20, 100}

    def test_edge_coordinates_track_mutation(self):
        obs = make_set()
        obs.add(Rect(33, 44, 55, 66))
        assert 33 in obs.edge_xs and 66 in obs.edge_ys

    def test_degenerate_rect_never_blocks_but_registers_edges(self):
        obs = make_set(Rect(50, 10, 50, 90))
        assert obs.segment_free(Segment.horizontal(50, 0, 100))
        assert 50 in obs.edge_xs
