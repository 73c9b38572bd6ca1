"""Tests for the delay model and the timing-driven negotiation loop.

Three layers, mirroring the module: :func:`net_delay` /
:func:`analyze_route_timing` against hand-built trees where the
answer is computable on paper, :class:`TimingDrivenCost` against the
plain negotiated model it blends (admissibility included), and
:class:`TimingDrivenRouter` end-to-end — including the differential
claim the whole strategy exists for: on the ``long-critical-nets``
family its worst critical-net delay comes out strictly below plain
negotiation's.
"""

import pytest

from repro.errors import RoutingError
from repro.core.costs import NegotiatedCongestionCost, TimingDrivenCost
from repro.core.negotiate import NegotiatedRouter, NegotiationConfig
from repro.core.pathfinder import PathRequest, find_path, reference_search
from repro.core.route import RoutePath, RouteTree, TargetSet
from repro.core.router import GlobalRouter, RouterConfig
from repro.core.timing import (
    TimingAnalysis,
    TimingConfig,
    TimingDrivenRouter,
    analyze_route_timing,
    net_delay,
)
from repro.geometry.point import Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment
from repro.layout.net import Net
from repro.layout.pin import Pin
from repro.layout.terminal import Terminal
from repro.scenarios.families import FAMILIES
from repro.analysis.verify import verify_global_route


def _net(name, *locations):
    """A net with one single-pin terminal per location (first = source)."""
    return Net(
        name,
        [
            Terminal(f"{name}.t{i}", [Pin(f"{name}.t{i}.p0", loc, None)])
            for i, loc in enumerate(locations)
        ],
    )


def _tree(name, *point_lists):
    return RouteTree(
        net_name=name,
        paths=[RoutePath(points=tuple(points)) for points in point_lists],
    )


class TestNetDelay:
    def test_straight_wire_delay_is_its_length(self):
        net = _net("a", Point(0, 0), Point(10, 0))
        tree = _tree("a", [Point(0, 0), Point(10, 0)])
        assert net_delay(tree, net) == 10.0

    def test_detour_is_measured_along_the_tree(self):
        # Manhattan distance is 10; the routed tree detours to length 20.
        net = _net("a", Point(0, 0), Point(10, 0))
        tree = _tree(
            "a", [Point(0, 0), Point(0, 5), Point(10, 5), Point(10, 0)]
        )
        assert net_delay(tree, net) == 20.0

    def test_delay_is_longest_sink_not_total_wirelength(self):
        # Star from the source: one 10-long arm, one 6-long arm.
        net = _net("a", Point(0, 0), Point(10, 0), Point(0, 6))
        tree = _tree(
            "a",
            [Point(0, 0), Point(10, 0)],
            [Point(0, 0), Point(0, 6)],
        )
        assert tree.total_length == 16
        assert net_delay(tree, net) == 10.0

    def test_load_factor_charges_the_whole_tree(self):
        net = _net("a", Point(0, 0), Point(10, 0), Point(0, 6))
        tree = _tree(
            "a",
            [Point(0, 0), Point(10, 0)],
            [Point(0, 0), Point(0, 6)],
        )
        assert net_delay(tree, net, load_factor=0.5) == 10.0 + 0.5 * 16

    def test_sink_with_equivalent_pins_takes_the_nearest(self):
        net = Net(
            "a",
            [
                Terminal("a.s", [Pin("a.s.p0", Point(0, 0), None)]),
                Terminal(
                    "a.d",
                    [
                        Pin("a.d.p0", Point(10, 0), None),
                        Pin("a.d.p1", Point(2, 0), None),
                    ],
                ),
            ],
        )
        # The near pin was already on the trunk (a single-point path,
        # the router's zero-length-connection representation).
        tree = _tree("a", [Point(0, 0), Point(10, 0)], [Point(2, 0)])
        assert net_delay(tree, net) == 2.0

    def test_coincident_terminals_have_zero_delay(self):
        net = _net("a", Point(3, 3), Point(3, 3))
        tree = _tree("a", [Point(3, 3)])
        assert net_delay(tree, net) == 0.0

    def test_branch_off_a_segment_interior_is_reachable(self):
        # The sink attaches mid-trunk: the distance runs along the
        # trunk to the attachment point, then up the branch (9), not
        # the trunk's full length (10).
        net = _net("a", Point(0, 0), Point(5, 4))
        tree = _tree(
            "a",
            [Point(0, 0), Point(10, 0)],
            [Point(5, 4), Point(5, 0)],
        )
        assert net_delay(tree, net) == 9.0


class TestAnalyzeRouteTiming:
    def _routed(self, seed=79, **overrides):
        layout = FAMILIES["long-critical-nets"].build(seed, **overrides)
        route = GlobalRouter(layout).route_all(on_unroutable="skip")
        return layout, route

    def test_criticalities_in_unit_interval_and_worst_is_one(self):
        layout, route = self._routed()
        analysis = analyze_route_timing(route, layout)
        assert analysis.nets
        for timing in analysis.nets.values():
            assert 0.0 <= timing.criticality <= 1.0
        worst = analysis.worst_net
        assert analysis.nets[worst].delay == analysis.worst_delay
        assert analysis.nets[worst].criticality == 1.0
        assert analysis.nets[worst].slack == 0.0  # default target = worst

    def test_explicit_target_sets_slack(self):
        layout, route = self._routed()
        analysis = analyze_route_timing(route, layout, target_delay=500.0)
        assert analysis.target == 500.0
        for timing in analysis.nets.values():
            assert timing.slack == 500.0 - timing.delay

    def test_empty_route_is_all_zero(self):
        analysis = TimingAnalysis()
        assert analysis.worst_net is None
        assert analysis.criticality("ghost") == 0.0
        assert analysis.order_by_criticality(["b", "a"]) == ["a", "b"]

    def test_order_by_criticality_is_a_descending_permutation(self):
        layout, route = self._routed()
        analysis = analyze_route_timing(route, layout)
        names = [net.name for net in layout.nets]
        ordered = analysis.order_by_criticality(names)
        assert sorted(ordered) == sorted(names)
        crits = [analysis.criticality(name) for name in ordered]
        assert crits == sorted(crits, reverse=True)

    def test_round_trips_through_dict(self):
        layout, route = self._routed()
        analysis = analyze_route_timing(route, layout, target_delay=100.0)
        clone = TimingAnalysis.from_dict(analysis.as_dict())
        assert clone.worst_delay == analysis.worst_delay
        assert clone.target == analysis.target
        assert clone.nets == analysis.nets


CONGESTED = Rect(4, 0, 8, 10)
TERMS = [(CONGESTED, 2.0, 1.0)]
INSIDE = Segment(Point(5, 2), Point(7, 2))
OUTSIDE = Segment(Point(0, 20), Point(10, 20))


class TestTimingDrivenCost:
    def test_zero_criticality_prices_like_plain_negotiated(self):
        plain = NegotiatedCongestionCost(TERMS)
        blended = TimingDrivenCost(TERMS, criticality=0.0, delay_weight=0.5)
        for seg in (INSIDE, OUTSIDE):
            assert blended.segment_cost(seg) == plain.segment_cost(seg)

    def test_full_criticality_ignores_congestion_pays_delay(self):
        blended = TimingDrivenCost(TERMS, criticality=1.0, delay_weight=0.5)
        # Congestion surcharge vanishes; every unit of wire costs 1.5.
        assert blended.segment_cost(INSIDE) == INSIDE.length * 1.5
        assert blended.segment_cost(OUTSIDE) == OUTSIDE.length * 1.5

    def test_blend_interpolates_monotonically(self):
        costs = [
            TimingDrivenCost(TERMS, criticality=c, delay_weight=0.5).segment_cost(
                INSIDE
            )
            for c in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        # The congested segment gets cheaper as criticality rises (the
        # congestion term here outweighs the delay term).
        assert costs == sorted(costs, reverse=True)

    def test_dominates_wirelength_everywhere(self):
        for c in (0.0, 0.3, 0.7, 1.0):
            model = TimingDrivenCost(TERMS, criticality=c, delay_weight=0.5)
            for seg in (INSIDE, OUTSIDE):
                assert model.segment_cost(seg) >= seg.length

    @pytest.mark.parametrize("criticality", [0.0, 0.3, 1.0])
    def test_kernel_prices_equal_segment_cost(self, criticality):
        model = TimingDrivenCost(TERMS, criticality=criticality, delay_weight=0.7)
        # Both tracks through (5, 5) cross the congested region.  On an
        # empty surface a straight connection is one move, so its cost
        # is one price.
        obstacles = ObstacleSet(Rect(0, 0, 30, 30))
        origin = Point(5, 5)
        straight = 0
        for end in (Point(0, 5), Point(3, 5), Point(12, 5), Point(30, 5),
                    Point(5, 0), Point(5, 9), Point(5, 25)):
            request = PathRequest(
                obstacles=obstacles,
                sources=[(origin, 0.0)],
                targets=TargetSet(points=[end]),
                cost_model=model,
            )
            found = find_path(request)
            with reference_search():
                scalar = find_path(request)
            assert (found.path.points, found.path.cost) == (
                scalar.path.points,
                scalar.path.cost,
            )
            if found.path.points == (origin, end):
                straight += 1
                assert found.path.cost == model.segment_cost(Segment(origin, end))
        assert straight >= 3

    def test_invalid_knobs_rejected(self):
        with pytest.raises(RoutingError):
            TimingDrivenCost(TERMS, criticality=-0.1)
        with pytest.raises(RoutingError):
            TimingDrivenCost(TERMS, criticality=1.1)
        with pytest.raises(RoutingError):
            TimingDrivenCost(TERMS, criticality=0.5, delay_weight=-1.0)


class TestTimingConfig:
    def test_invalid_knobs_rejected(self):
        with pytest.raises(RoutingError):
            TimingConfig(max_iterations=0)
        with pytest.raises(RoutingError):
            TimingConfig(delay_weight=-0.5)
        with pytest.raises(RoutingError):
            TimingConfig(load_factor=-1.0)
        with pytest.raises(RoutingError):
            TimingConfig(target_delay=-3.0)


def critical_scene(seed=79, **overrides):
    return FAMILIES["long-critical-nets"].build(seed, **overrides)


def worst_critical_delay(route, layout):
    analysis = analyze_route_timing(route, layout)
    return max(
        analysis.nets[net.name].delay
        for net in layout.nets
        if net.name.startswith("crit") and net.name in analysis.nets
    )


class TestTimingDrivenRouter:
    def test_routes_verify_and_report_timing(self):
        layout = critical_scene()
        result = TimingDrivenRouter(
            layout, timing=TimingConfig(max_iterations=8)
        ).run(on_unroutable="skip")
        assert verify_global_route(result.route, layout) == {}
        assert not result.route.failed_nets
        assert result.timing.nets
        assert result.timing.worst_delay > 0
        assert (
            result.congestion_after.total_overflow
            <= result.congestion_before.total_overflow
        )
        assert result.iterations[0].iteration == 0
        assert result.iteration_count == len(result.iterations) - 1
        assert set(result.rerouted_nets) <= {n.name for n in layout.nets}

    def test_beats_negotiated_on_worst_critical_delay(self):
        """The differential contract the conformance gate enforces."""
        layout = critical_scene()
        negotiated = NegotiatedRouter(
            layout, negotiation=NegotiationConfig(max_iterations=8)
        ).run(on_unroutable="skip")
        timing = TimingDrivenRouter(
            layout, timing=TimingConfig(max_iterations=8)
        ).run(on_unroutable="skip")
        assert worst_critical_delay(timing.route, layout) < worst_critical_delay(
            negotiated.route, layout
        )

    def test_uncongested_run_short_circuits(self, small_layout):
        result = TimingDrivenRouter(small_layout).run()
        if result.congestion_before.total_overflow == 0:
            assert result.converged
            assert result.iteration_count == 0
            assert result.route is result.first
            assert result.rerouted_nets == ()

    def test_layout_and_router_mutually_exclusive(self, small_layout):
        router = GlobalRouter(small_layout)
        with pytest.raises(RoutingError):
            TimingDrivenRouter(small_layout, router=router)
        with pytest.raises(RoutingError):
            TimingDrivenRouter()

    def test_wraps_existing_router(self, small_layout):
        router = GlobalRouter(small_layout, RouterConfig(inverted_corner=True))
        timing = TimingDrivenRouter(router=router)
        assert timing.router is router
        assert timing.layout is small_layout

    def test_invalid_on_unroutable_rejected(self, small_layout):
        with pytest.raises(RoutingError):
            TimingDrivenRouter(small_layout).run(on_unroutable="explode")

    def test_budget_exhaustion_returns_best_seen(self):
        layout = critical_scene(107, rows=3, cols=2, n_filler=12, n_critical=4)
        result = TimingDrivenRouter(
            layout, timing=TimingConfig(max_iterations=1)
        ).run(on_unroutable="skip")
        assert len(result.iterations) <= 2
        assert verify_global_route(result.route, layout) == {}
