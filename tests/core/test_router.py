"""Unit tests for the GlobalRouter."""

import random

import pytest

from repro.errors import RoutingError, UnroutableError
from repro.core.costs import InvertedCornerCost, WirelengthCost
from repro.core.escape import EscapeMode
from repro.core.negotiate import two_pass
from repro.core.router import GlobalRouter, RouterConfig
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.layout.generators import LayoutSpec, grid_layout, random_layout, random_netlist
from repro.layout.layout import Layout
from repro.layout.net import Net
from repro.analysis.verify import verify_global_route


class TestRouteAll:
    def test_routes_every_net(self, small_layout):
        route = GlobalRouter(small_layout).route_all()
        assert route.routed_count == len(small_layout.nets)
        assert not route.failed_nets

    def test_routes_are_valid(self, small_layout):
        route = GlobalRouter(small_layout).route_all()
        assert verify_global_route(route, small_layout) == {}

    def test_subset_routing(self, small_layout):
        nets = list(small_layout.nets)[:2]
        route = GlobalRouter(small_layout).route_all(nets)
        assert route.routed_count == 2

    def test_adhoc_net_not_in_layout_routes(self, small_layout):
        # route_all accepts nets that were never added to the layout
        adhoc = Net.two_point(
            "adhoc", small_layout.outline.corners[0], small_layout.outline.corners[2]
        )
        route = GlobalRouter(small_layout).route_all([adhoc])
        assert route.routed_count == 1
        assert "adhoc" in route.trees

    def test_stats_accumulate(self, small_layout):
        route = GlobalRouter(small_layout).route_all()
        assert route.stats.nodes_expanded > 0
        assert route.stats.elapsed_seconds > 0

    def test_bad_on_unroutable_value(self, small_layout):
        with pytest.raises(RoutingError):
            GlobalRouter(small_layout).route_all(on_unroutable="explode")

    def test_skip_mode_records_failures(self):
        layout = Layout(Rect(0, 0, 100, 100))
        ring = [
            Cell.rect("w", 40, 40, 2, 20),
            Cell.rect("e", 58, 40, 2, 20),
            Cell.rect("s", 40, 40, 20, 2),
            Cell.rect("n", 40, 58, 20, 2),
        ]
        for cell in ring:
            layout.add_cell(cell)
        layout.add_net(Net.two_point("trapped", Point(10, 10), Point(50, 50)))
        layout.add_net(Net.two_point("fine", Point(5, 5), Point(90, 5)))
        route = GlobalRouter(layout).route_all(on_unroutable="skip")
        assert route.failed_nets == ["trapped"]
        assert route.routed_count == 1

    def test_raise_mode_propagates(self):
        layout = Layout(Rect(0, 0, 100, 100))
        for cell in (
            Cell.rect("w", 40, 40, 2, 20),
            Cell.rect("e", 58, 40, 2, 20),
            Cell.rect("s", 40, 40, 20, 2),
            Cell.rect("n", 40, 58, 20, 2),
        ):
            layout.add_cell(cell)
        layout.add_net(Net.two_point("trapped", Point(10, 10), Point(50, 50)))
        with pytest.raises(UnroutableError):
            GlobalRouter(layout).route_all()


class TestPolygonSeam:
    """A wire must not run along the seam between a polygon cell's slabs."""

    def test_route_goes_around_the_l_cell(self, l_cell_layout):
        route = GlobalRouter(l_cell_layout).route_all()
        cell = l_cell_layout.cell("L")
        points = [
            Point(x, y)
            for segment in route.trees["n"].segments
            for x in range(min(segment.a.x, segment.b.x), max(segment.a.x, segment.b.x) + 1)
            for y in range(min(segment.a.y, segment.b.y), max(segment.a.y, segment.b.y) + 1)
        ]
        assert points and not any(cell.contains_point(p, strict=True) for p in points)
        assert route.total_length == 60
        assert verify_global_route(route, l_cell_layout) == {}


class TestIndependence:
    """Independent net routing is order-invariant (Conclusions)."""

    def test_order_invariance(self, small_layout):
        names = [n.name for n in small_layout.nets]
        router = GlobalRouter(small_layout)
        base = router.route_all()
        shuffled = list(names)
        random.Random(0).shuffle(shuffled)
        permuted = router.route_all([small_layout.net(n) for n in shuffled])
        for name in names:
            assert base.tree(name).total_length == permuted.tree(name).total_length
            assert [p.points for p in base.tree(name).paths] == [
                p.points for p in permuted.tree(name).paths
            ]


class TestConfig:
    def test_aggressive_mode_routes_everything(self, small_layout):
        config = RouterConfig(mode=EscapeMode.AGGRESSIVE)
        route = GlobalRouter(small_layout, config).route_all()
        assert route.routed_count == len(small_layout.nets)
        assert verify_global_route(route, small_layout) == {}

    def test_aggressive_expands_no_more_than_full(self, small_layout):
        full = GlobalRouter(small_layout, RouterConfig(mode=EscapeMode.FULL)).route_all()
        aggressive = GlobalRouter(
            small_layout, RouterConfig(mode=EscapeMode.AGGRESSIVE)
        ).route_all()
        assert aggressive.stats.nodes_generated <= full.stats.nodes_generated

    def test_inverted_corner_config_builds_cost_model(self, small_layout):
        router = GlobalRouter(small_layout, RouterConfig(inverted_corner=True))
        assert isinstance(router.cost_model, InvertedCornerCost)

    def test_explicit_cost_model_wins(self, small_layout):
        model = WirelengthCost()
        router = GlobalRouter(
            small_layout, RouterConfig(inverted_corner=True), cost_model=model
        )
        assert router.cost_model is model

    def test_refine_never_longer(self, medium_layout):
        plain = GlobalRouter(medium_layout).route_all()
        refined = GlobalRouter(medium_layout, RouterConfig(refine=True)).route_all()
        assert refined.total_length <= plain.total_length
        assert verify_global_route(refined, medium_layout) == {}

    def test_bend_penalty_reduces_bends(self, medium_layout):
        plain = GlobalRouter(medium_layout).route_all()
        penalized = GlobalRouter(
            medium_layout, RouterConfig(bend_penalty=0.5)
        ).route_all()
        assert penalized.total_bends <= plain.total_bends
        # Sub-unit penalties keep each individual connection minimal,
        # but multi-terminal trees may differ slightly either way
        # (different path shapes offer different Steiner taps).
        assert penalized.total_length <= plain.total_length * 1.02


class TestTwoPass:
    def congested_layout(self) -> Layout:
        layout = grid_layout(3, 3, cell_width=20, cell_height=20, gap=3, margin=8)
        rng = random.Random(5)
        spec = LayoutSpec(terminals_per_net=(2, 3), pad_fraction=0.0)
        for net in random_netlist(layout, 24, rng=rng, spec=spec):
            layout.add_net(net)
        return layout

    def test_reduces_overflow(self):
        layout = self.congested_layout()
        result = two_pass(GlobalRouter(layout), penalty_weight=4.0)
        assert result.congestion_after.total_overflow <= result.congestion_before.total_overflow
        assert result.rerouted_nets

    def test_more_passes_never_worse(self):
        layout = self.congested_layout()
        two = two_pass(GlobalRouter(layout), penalty_weight=4.0, passes=2)
        four = two_pass(GlobalRouter(layout), penalty_weight=4.0, passes=4)
        assert four.congestion_after.total_overflow <= two.congestion_after.total_overflow

    def test_final_routes_remain_valid(self):
        layout = self.congested_layout()
        result = two_pass(GlobalRouter(layout), penalty_weight=4.0, passes=3)
        assert verify_global_route(result.route, layout) == {}

    def test_uncongested_layout_short_circuits(self, small_layout):
        result = two_pass(GlobalRouter(small_layout))
        if result.congestion_before.total_overflow == 0:
            assert result.route is result.first
            assert result.rerouted_nets == ()

    def test_invalid_passes_rejected(self, small_layout):
        with pytest.raises(RoutingError):
            two_pass(GlobalRouter(small_layout), passes=1)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        layout = random_layout(LayoutSpec(n_cells=10, n_nets=8), seed=77)
        a = GlobalRouter(layout).route_all()
        b = GlobalRouter(layout).route_all()
        assert a.total_length == b.total_length
        for name in a.trees:
            assert [p.points for p in a.tree(name).paths] == [
                p.points for p in b.tree(name).paths
            ]
