"""Unit tests for the sequential (nets-as-obstacles) baseline."""

import hashlib
import random

import pytest

from repro.errors import RoutingError
from repro.baselines.sequential import SequentialConfig, SequentialRouter, _wire_obstacle
from repro.core.escape import EscapeMode
from repro.geometry.point import Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment
from repro.layout.cell import Cell
from repro.layout.generators import LayoutSpec, grid_layout, random_layout, random_netlist
from repro.layout.layout import Layout
from repro.layout.net import Net
from repro.analysis.verify import verify_global_route
from repro.scenarios import route_fingerprint


class TestWireObstacle:
    def test_horizontal_inflates_perpendicular_only(self):
        rect = _wire_obstacle(Segment.horizontal(10, 2, 8), clearance=1)
        assert rect == Rect(2, 9, 8, 11)

    def test_vertical_inflates_perpendicular_only(self):
        rect = _wire_obstacle(Segment.vertical(10, 2, 8), clearance=2)
        assert rect == Rect(8, 2, 12, 8)


class TestSequentialRouting:
    def crossing_layout(self) -> Layout:
        """Two nets whose straight routes would cross at (50, 50)."""
        layout = Layout(Rect(0, 0, 100, 100))
        layout.add_net(Net.two_point("h", Point(10, 50), Point(90, 50)))
        layout.add_net(Net.two_point("v", Point(50, 10), Point(50, 90)))
        return layout

    def test_later_net_detours_around_earlier(self):
        layout = self.crossing_layout()
        route = SequentialRouter(layout).route_all()
        assert route.routed_count == 2
        assert route.tree("h").total_length == 80  # routed first: straight
        assert route.tree("v").total_length > 80  # must detour around h

    def test_order_changes_outcome(self):
        layout = self.crossing_layout()
        router = SequentialRouter(layout)
        hv = router.route_all(["h", "v"])
        vh = router.route_all(["v", "h"])
        assert hv.tree("h").total_length < hv.tree("v").total_length
        assert vh.tree("v").total_length < vh.tree("h").total_length

    def test_detour_respects_clearance(self):
        layout = self.crossing_layout()
        route = SequentialRouter(
            layout, SequentialConfig(clearance=2)
        ).route_all()
        # v's crossing of y=50 must stay >= 2 away from h's wire in x...
        # cheaper check: v's detour must be at least 2*2 longer than straight
        assert route.tree("v").total_length >= 80 + 2 * 2

    def test_routes_stay_legal_against_cells(self):
        layout = random_layout(LayoutSpec(n_cells=8, n_nets=6), seed=3)
        route = SequentialRouter(layout).route_all()
        assert verify_global_route(route, layout) == {}

    def test_failures_recorded_not_raised_by_default(self):
        layout = random_layout(LayoutSpec(n_cells=8, n_nets=10), seed=9)
        route = SequentialRouter(layout).route_all()
        assert route.routed_count + len(route.failed_nets) == 10

    def test_raise_mode(self):
        layout = Layout(Rect(0, 0, 20, 20))
        # net 1 hugs net 2's pin: with clearance the pin is buried
        layout.add_net(Net.two_point("first", Point(0, 10), Point(20, 10)))
        layout.add_net(Net.two_point("second", Point(5, 10), Point(15, 10)))
        from repro.errors import UnroutableError

        with pytest.raises(UnroutableError):
            SequentialRouter(layout).route_all(on_unroutable="raise")

    def test_invalid_clearance(self):
        layout = self.crossing_layout()
        with pytest.raises(RoutingError):
            SequentialRouter(layout, SequentialConfig(clearance=0))

    def test_invalid_on_unroutable(self):
        layout = self.crossing_layout()
        with pytest.raises(RoutingError):
            SequentialRouter(layout).route_all(on_unroutable="explode")

    def test_explicit_order_subset(self):
        layout = self.crossing_layout()
        route = SequentialRouter(layout).route_all(["v"])
        assert route.routed_count == 1
        assert "v" in route.trees


class TestAgainstIndependent:
    def test_sequential_never_shorter_in_total(self):
        from repro.core.router import GlobalRouter

        layout = random_layout(LayoutSpec(n_cells=10, n_nets=8), seed=21)
        independent = GlobalRouter(layout).route_all()
        sequential = SequentialRouter(layout).route_all()
        shared = set(independent.trees) & set(sequential.trees)
        ind_len = sum(independent.tree(n).total_length for n in shared)
        seq_len = sum(sequential.tree(n).total_length for n in shared)
        assert seq_len >= ind_len


def _congested_grid(n_nets=12, seed=5) -> Layout:
    layout = grid_layout(3, 3, cell_width=14, cell_height=14, gap=3, margin=6)
    rng = random.Random(seed)
    spec = LayoutSpec(terminals_per_net=(2, 4), pad_fraction=0.0)
    for net in random_netlist(layout, n_nets, rng=rng, spec=spec):
        layout.add_net(net)
    return layout


def _rect_order_digest(rects) -> str:
    coords = [(r.x0, r.y0, r.x1, r.y1) for r in rects]
    return hashlib.sha256(repr(coords).encode()).hexdigest()[:16]


class TestGolden:
    """Literal results of the sequential baseline on two fixed layouts.

    Each routed net's wires join the obstacle set through
    ``ObstacleSet.extended``, which appends them; insertion order is the
    ray index's tie-break.  Besides the trees, the test pins the final
    obstacle set's rect order, which moves if the wires are ever put in
    front of the cells or of earlier nets' wires.
    """

    @pytest.mark.parametrize(
        "make_layout, config, expected",
        [
            (
                lambda: random_layout(LayoutSpec(n_cells=8, n_nets=6), seed=3),
                SequentialConfig(),
                ("9d40767af2548a59", 184, ["n3", "n4"], 27, 108, 18, "15d011fd9668abd0"),
            ),
            (
                _congested_grid,
                SequentialConfig(mode=EscapeMode.AGGRESSIVE),
                (
                    "f53e7c86f96faffb",
                    289,
                    ["n10", "n11", "n3", "n4", "n5", "n6", "n8", "n9"],
                    57,
                    228,
                    42,
                    "70859a7f51eba78c",
                ),
            ),
        ],
        ids=["random-full", "congested-aggressive"],
    )
    def test_trees_and_obstacle_order(self, monkeypatch, make_layout, config, expected):
        grown = []
        extended = ObstacleSet.extended

        def spy(self, rects):
            grown.append(extended(self, rects))
            return grown[-1]

        monkeypatch.setattr(ObstacleSet, "extended", spy)
        route = SequentialRouter(make_layout(), config).route_all()
        final = grown[-1].rects
        assert (
            route_fingerprint(route),
            sum(tree.total_length for tree in route.trees.values()),
            sorted(route.failed_nets),
            route.stats.nodes_expanded,
            route.stats.cache_misses,
            len(final),
            _rect_order_digest(final),
        ) == expected
