"""Unit tests for the Hightower line-probe baseline."""

from repro.baselines.hightower import hightower_route
from repro.geometry.point import Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.rect import Rect

BOUND = Rect(0, 0, 100, 100)


class TestBasic:
    def test_direct_crossing(self):
        obs = ObstacleSet(BOUND)
        result = hightower_route(obs, Point(10, 10), Point(60, 40))
        assert result.found
        assert result.path.length == 80  # level-0 probes cross: optimal L

    def test_same_point(self):
        obs = ObstacleSet(BOUND)
        result = hightower_route(obs, Point(5, 5), Point(5, 5))
        assert result.found and result.path.length == 0

    def test_collinear_endpoints(self):
        obs = ObstacleSet(BOUND)
        result = hightower_route(obs, Point(10, 50), Point(90, 50))
        assert result.found
        assert result.path.length == 80

    def test_path_is_legal(self):
        obs = ObstacleSet(BOUND, [Rect(30, 20, 60, 80)])
        result = hightower_route(obs, Point(10, 50), Point(90, 50))
        assert result.found
        for seg in result.path.segments:
            assert obs.segment_free(seg)

    def test_path_endpoints_correct(self):
        obs = ObstacleSet(BOUND, [Rect(30, 20, 60, 80)])
        s, d = Point(10, 50), Point(90, 50)
        result = hightower_route(obs, s, d)
        assert result.path.start == s
        assert result.path.end == d


class TestEscapeBehaviour:
    def test_routes_around_single_block(self):
        obs = ObstacleSet(BOUND, [Rect(40, 0, 60, 90)])
        result = hightower_route(obs, Point(10, 50), Point(90, 50))
        assert result.found
        assert result.levels_used >= 1

    def test_counters_populated(self):
        obs = ObstacleSet(BOUND, [Rect(40, 0, 60, 90)])
        result = hightower_route(obs, Point(10, 50), Point(90, 50))
        assert result.lines_created >= 4
        assert result.intersections_tested > 0

    def test_probe_points_count_four_rays_each(self, monkeypatch):
        calls = []
        real = ObstacleSet.rays

        def counted(self, origin):
            calls.append(origin)
            return real(self, origin)

        monkeypatch.setattr(ObstacleSet, "rays", counted)
        obs = ObstacleSet(BOUND, [Rect(40, 0, 60, 90)])
        result = hightower_route(obs, Point(10, 50), Point(90, 50))
        assert result.found
        # One query gives a point's row and column probe lines.
        assert len(calls) >= 2
        assert obs.ray_probes == 4 * len(calls)

    def test_multiple_blocks(self):
        obs = ObstacleSet(
            BOUND, [Rect(20, 0, 30, 70), Rect(50, 30, 60, 100), Rect(75, 0, 85, 60)]
        )
        result = hightower_route(obs, Point(5, 5), Point(95, 95))
        if result.found:  # probe may legitimately fail; legality must hold
            for seg in result.path.segments:
                assert obs.segment_free(seg)


class TestIncompleteness:
    """The probe is allowed to fail — that is its documented character."""

    def test_budget_exhaustion_fails_gracefully(self):
        obs = ObstacleSet(BOUND, [Rect(40, 0, 60, 90)])
        result = hightower_route(obs, Point(10, 50), Point(90, 50), max_level=0)
        assert not result.found
        assert result.path is None

    def test_line_budget_respected(self):
        rects = [Rect(10 * i, 10 * j, 10 * i + 4, 10 * j + 4)
                 for i in range(1, 9) for j in range(1, 9)]
        obs = ObstacleSet(BOUND, rects)
        result = hightower_route(obs, Point(1, 1), Point(99, 99), max_lines=10)
        assert result.lines_created <= 12  # budget plus the final batch

    def test_endpoint_inside_obstacle_fails_not_raises(self):
        obs = ObstacleSet(BOUND, [Rect(40, 40, 60, 60)])
        result = hightower_route(obs, Point(50, 50), Point(90, 50))
        assert not result.found


class TestDeterminism:
    def test_repeat_runs_identical(self):
        obs = ObstacleSet(
            BOUND, [Rect(20, 0, 30, 70), Rect(50, 30, 60, 100)]
        )
        a = hightower_route(obs, Point(5, 5), Point(95, 95))
        b = hightower_route(obs, Point(5, 5), Point(95, 95))
        assert a.found == b.found
        if a.found:
            assert a.path.points == b.path.points
