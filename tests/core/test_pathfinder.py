"""Unit tests for the line-search pathfinder, including oracle checks."""

import pytest

from repro.errors import SearchError, UnroutableError
from repro.core.costs import BendPenaltyCost, CostModel, InvertedCornerCost
from repro.core.escape import EscapeMode
from repro.core.pathfinder import PathRequest, find_path
from repro.core.route import TargetSet
from repro.geometry.point import Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment
from repro.search.engine import Order

from tests.conftest import oracle_shortest_length

BOUND = Rect(0, 0, 100, 100)


def route(obs, source, target, **kwargs):
    request = PathRequest(
        obstacles=obs, sources=[(source, 0.0)], targets=TargetSet(points=[target]), **kwargs
    )
    return find_path(request)


class TestBasicRouting:
    def test_straight_shot(self, empty_surface):
        result = route(empty_surface, Point(10, 10), Point(90, 10))
        assert result.path.length == 80
        assert result.path.bends == 0

    def test_l_route(self, empty_surface):
        result = route(empty_surface, Point(10, 10), Point(50, 70))
        assert result.path.length == 100  # manhattan distance
        assert result.path.bends == 1

    def test_same_point(self, empty_surface):
        result = route(empty_surface, Point(10, 10), Point(10, 10))
        assert result.path.length == 0
        assert result.path.points == (Point(10, 10),)

    def test_detour_around_block(self, one_block):
        # block spans y in [30, 70]; straight line at y=50 is blocked
        result = route(one_block, Point(10, 50), Point(90, 50))
        assert result.path.length == 80 + 2 * min(50 - 30, 70 - 50)
        for seg in result.path.segments:
            assert one_block.segment_free(seg)

    def test_path_hugs_cell_boundary(self, one_block):
        result = route(one_block, Point(10, 50), Point(90, 50))
        # the optimal detour turns exactly at the block's edge coords
        xs = {p.x for p in result.path.points}
        assert 40 in xs or 60 in xs

    def test_multi_source_picks_cheapest(self, empty_surface):
        request = PathRequest(
            obstacles=empty_surface,
            sources=[(Point(0, 0), 0.0), (Point(80, 10), 0.0)],
            targets=TargetSet(points=[Point(90, 10)]),
        )
        result = find_path(request)
        assert result.path.length == 10
        assert result.path.start == Point(80, 10)

    def test_initial_cost_biases_choice(self, empty_surface):
        request = PathRequest(
            obstacles=empty_surface,
            sources=[(Point(0, 10), 0.0), (Point(80, 10), 25.0)],
            targets=TargetSet(points=[Point(90, 10)]),
        )
        result = find_path(request)
        # 90 from the free source vs 10+25 from the costly one
        assert result.path.start == Point(80, 10)
        assert result.path.cost == 35.0

    def test_segment_target(self, empty_surface):
        targets = TargetSet(segments=[Segment.vertical(50, 20, 80)])
        request = PathRequest(
            obstacles=empty_surface, sources=[(Point(10, 50), 0.0)], targets=targets
        )
        result = find_path(request)
        assert result.path.length == 40
        assert result.path.end == Point(50, 50)

    def test_source_on_target_segment_is_zero_length(self, empty_surface):
        targets = TargetSet(segments=[Segment.vertical(50, 20, 80)])
        request = PathRequest(
            obstacles=empty_surface, sources=[(Point(50, 30), 0.0)], targets=targets
        )
        result = find_path(request)
        assert result.path.length == 0


class TestEndpointChecks:
    def test_source_inside_cell_raises(self, one_block):
        with pytest.raises(UnroutableError, match="source"):
            route(one_block, Point(50, 50), Point(90, 50))

    def test_target_inside_cell_raises(self, one_block):
        with pytest.raises(UnroutableError, match="target"):
            route(one_block, Point(10, 50), Point(50, 50))

    @pytest.mark.parametrize(
        "sources, target_points, message",
        [
            # Sources are checked in order, each for its cost, then its point.
            (
                [(Point(10, 50), 0.0), (Point(50, 50), 0.0), (Point(90, 50), -1.0)],
                [Point(50, 60)],
                "source (50, 50) is not routable",
            ),
            (
                [(Point(10, 50), 0.0), (Point(90, 50), -1.0), (Point(50, 50), 0.0)],
                [Point(50, 60)],
                "negative initial cost -1.0 at source (90, 50)",
            ),
            # Targets only after every source; the bound is closed.
            (
                [(Point(100, 100), 0.0)],
                [Point(0, 0), Point(101, 50), Point(50, 60)],
                "target (101, 50) is not routable",
            ),
        ],
        ids=["bad-point-first", "bad-cost-first", "target-outside"],
    )
    def test_first_failing_endpoint_is_reported(self, one_block, sources, target_points, message):
        request = PathRequest(
            obstacles=one_block, sources=sources, targets=TargetSet(points=target_points)
        )
        with pytest.raises(UnroutableError) as raised:
            find_path(request)
        assert str(raised.value).startswith(message)

    def test_no_sources_raises(self, empty_surface):
        with pytest.raises(UnroutableError, match="source"):
            find_path(
                PathRequest(
                    obstacles=empty_surface, sources=[], targets=TargetSet(points=[Point(1, 1)])
                )
            )

    def test_wall_to_boundary_is_huggable_not_a_cut(self):
        # A wall touching both surface edges does NOT cut the plane:
        # its interior is open, so a wire slides along y=0 beneath it
        # (hugging both the wall's bottom edge and the boundary).
        obs = ObstacleSet(BOUND, [Rect(48, 0, 52, 100)])
        result = route(obs, Point(10, 50), Point(90, 50))
        assert result.path.length == oracle_shortest_length(obs, Point(10, 50), Point(90, 50))

    def test_enclosed_target_raises(self):
        # a closed ring of four walls truly traps the target
        ring = [
            Rect(40, 40, 42, 60),
            Rect(58, 40, 60, 60),
            Rect(40, 40, 60, 42),
            Rect(40, 58, 60, 60),
        ]
        obs = ObstacleSet(BOUND, ring)
        with pytest.raises(UnroutableError, match="no route"):
            route(obs, Point(10, 50), Point(50, 50))

    def test_node_limit_gives_unroutable(self, one_block):
        with pytest.raises(UnroutableError, match="limit"):
            route(one_block, Point(10, 50), Point(90, 50), node_limit=1)


class NegativeCost(CostModel):
    """A broken user model: every wire costs -1.

    It overrides ``segment_cost`` alone, so the scalar problem prices
    it (the compiled search never could: its terms are non-negative).
    """

    def segment_cost(self, seg):
        return -1.0


class TestSearchErrors:
    def test_negative_edge_cost_names_both_points(self, one_block):
        # The first successor of (10, 50) is the east reach, the block's
        # west edge.
        with pytest.raises(
            SearchError, match=r"negative edge cost -1\.0 from \(10, 50\) to \(40, 50\)"
        ):
            route(one_block, Point(10, 50), Point(90, 50), cost_model=NegativeCost())


class TestOptimality:
    """The admissibility claim: A* path length == oracle optimum."""

    def scene(self, rects):
        return ObstacleSet(BOUND, rects)

    @pytest.mark.parametrize("mode", [EscapeMode.FULL, EscapeMode.AGGRESSIVE])
    def test_single_block_scenes(self, mode):
        obs = self.scene([Rect(30, 20, 70, 80)])
        cases = [
            (Point(10, 50), Point(90, 50)),
            (Point(10, 10), Point(90, 90)),
            (Point(30, 20), Point(70, 80)),  # pins on the cell corners
            (Point(0, 0), Point(100, 100)),
        ]
        for s, d in cases:
            expected = oracle_shortest_length(obs, s, d)
            result = route(obs, s, d, mode=mode)
            assert result.path.length == expected

    @pytest.mark.parametrize("mode", [EscapeMode.FULL, EscapeMode.AGGRESSIVE])
    def test_u_trap_requires_detour_away_from_goal(self, mode):
        # three cells form a U opening west; source sits inside the U,
        # goal lies east behind the U's back wall
        rects = [
            Rect(30, 20, 80, 30),   # bottom arm
            Rect(70, 30, 80, 70),   # back wall
            Rect(30, 70, 80, 80),   # top arm
        ]
        obs = self.scene(rects)
        s, d = Point(50, 50), Point(95, 50)
        expected = oracle_shortest_length(obs, s, d)
        result = route(obs, s, d, mode=mode)
        assert result.path.length == expected
        assert result.path.length > s.manhattan(d)  # a true detour

    def test_figure1_scene_matches_oracle(self, fig1):
        layout, s, d = fig1
        obs = layout.obstacles()
        expected = oracle_shortest_length(obs, s, d)
        result = route(obs, s, d)
        assert result.path.length == expected

    def test_best_first_matches_astar_cost(self, fig1):
        layout, s, d = fig1
        obs = layout.obstacles()
        astar = route(obs, s, d, order=Order.A_STAR)
        best = route(obs, s, d, order=Order.BEST_FIRST)
        assert astar.path.length == best.path.length
        assert astar.stats.nodes_expanded <= best.stats.nodes_expanded


class TestDirectedStates:
    def test_bend_penalty_minimizes_corners(self, empty_surface):
        # an L needs 1 bend; a staircase needs more — with bend costs
        # the router must return a 1-bend L
        model = BendPenaltyCost(penalty=0.5)
        result = route(empty_surface, Point(10, 10), Point(60, 70), cost_model=model)
        assert result.path.bends == 1
        assert result.path.length == 110
        assert result.path.cost == 110.5

    def test_inverted_corner_prefers_hugging(self):
        obs = ObstacleSet(BOUND, [Rect(40, 0, 60, 50)])
        model = InvertedCornerCost(obs, epsilon=0.25)
        # route over the block: both 'inverted' and 'hugging' corners
        # have equal length; epsilon must select bends on the boundary
        result = route(obs, Point(10, 0), Point(90, 0), cost_model=model)
        for prev, here, nxt in zip(
            result.path.points, result.path.points[1:], result.path.points[2:]
        ):
            straight = (prev.x == here.x == nxt.x) or (prev.y == here.y == nxt.y)
            if not straight:
                on_boundary = any(r.on_boundary(here) for r in obs.rects) or (
                    obs.bound.on_boundary(here)
                )
                assert on_boundary, f"inverted corner at {here}"

    def test_trace_stripped_to_points(self, one_block):
        model = BendPenaltyCost(penalty=0.5)
        result = route(
            one_block, Point(10, 50), Point(90, 50), cost_model=model, trace=True
        )
        assert result.trace is not None
        for state, _parent in result.trace.entries:
            assert isinstance(state, Point)


class TestPathShape:
    def test_collinear_points_compressed(self, fig1):
        layout, s, d = fig1
        result = route(layout.obstacles(), s, d)
        pts = result.path.points
        for prev, here, nxt in zip(pts, pts[1:], pts[2:]):
            straight_x = prev.x == here.x == nxt.x
            straight_y = prev.y == here.y == nxt.y
            assert not (straight_x or straight_y)

    def test_endpoints_preserved(self, fig1):
        layout, s, d = fig1
        result = route(layout.obstacles(), s, d)
        assert result.path.start == s
        assert result.path.end == d

    def test_stats_populated(self, fig1):
        layout, s, d = fig1
        result = route(layout.obstacles(), s, d)
        assert result.stats.nodes_expanded >= 1
        assert result.stats.termination == "goal"
