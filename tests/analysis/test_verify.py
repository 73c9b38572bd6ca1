"""Unit tests for the independent route validity checkers."""

import pytest

from repro.errors import RoutingError
from repro.core.route import GlobalRoute, RoutePath, RouteTree
from repro.core.router import GlobalRouter
from repro.detail.detailed import DetailedRouter
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.layout.generators import grid_layout
from repro.layout.layout import Layout
from repro.layout.net import Net
from repro.layout.pin import Pin
from repro.layout.terminal import Terminal
from repro.analysis.verify import (
    assert_optimal_length,
    verify_detailed,
    verify_global_route,
    verify_path,
    verify_route_tree,
)


def one_cell_layout() -> Layout:
    layout = Layout(Rect(0, 0, 100, 100))
    layout.add_cell(Cell.rect("c", 40, 40, 20, 20))
    return layout


class TestVerifyPath:
    def test_legal_path(self):
        layout = one_cell_layout()
        path = RoutePath((Point(0, 0), Point(100, 0)))
        assert verify_path(path, layout) == []

    def test_cell_crossing_flagged(self):
        layout = one_cell_layout()
        path = RoutePath((Point(0, 50), Point(100, 50)))
        violations = verify_path(path, layout)
        assert violations and "crosses cell" in violations[0]

    def test_hugging_is_legal(self):
        layout = one_cell_layout()
        path = RoutePath((Point(0, 40), Point(100, 40)))
        assert verify_path(path, layout) == []

    def test_outside_surface_flagged(self):
        layout = one_cell_layout()
        path = RoutePath((Point(0, 0), Point(120, 0)))
        violations = verify_path(path, layout)
        assert any("outside" in v for v in violations)


class TestPolygonSeam:
    """The seam between an L cell's two slabs is inside the cell."""

    def test_path_along_the_seam_flagged(self, l_cell_layout):
        path = RoutePath((Point(0, 20), Point(40, 20)))
        assert verify_path(path, l_cell_layout) == [
            "segment (0, 20)--(40, 20) crosses cell 'L'"
        ]
        tree = RouteTree("n", [path], ["n.s", "n.d"])
        assert verify_global_route(GlobalRoute({"n": tree}), l_cell_layout) == {
            "n": ["segment (0, 20)--(40, 20) crosses cell 'L'"]
        }

    def test_path_across_the_slabs_and_seam_flagged_once(self, l_cell_layout):
        """The path enters both slabs and the seam bridge: one cell, one message."""
        path = RoutePath((Point(15, 0), Point(15, 40)))
        assert verify_path(path, l_cell_layout) == [
            "segment (15, 0)--(15, 40) crosses cell 'L'"
        ]

    def test_hopless_path_on_the_seam_flagged(self, l_cell_layout):
        path = RoutePath((Point(15, 20),))
        assert verify_path(path, l_cell_layout) == ["point (15, 20) inside cell 'L'"]

    def test_boundary_path_is_legal(self, l_cell_layout):
        path = RoutePath((Point(20, 20), Point(30, 20)))
        assert verify_path(path, l_cell_layout) == []


class TestHoplessPaths:
    """A path without hops is its one point, which must not sit in a cell.

    On ``grid_layout(2, 2)`` cell ``g0_0`` spans ``[6, 6 .. 22, 22]``.
    """

    INSIDE = "point (14, 14) inside cell 'g0_0'"

    def test_single_point_inside_a_cell_flagged(self):
        path = RoutePath((Point(14, 14),))
        assert verify_path(path, grid_layout(2, 2)) == [self.INSIDE]

    def test_repeated_point_inside_a_cell_flagged(self):
        path = RoutePath((Point(14, 14), Point(14, 14)))
        assert verify_path(path, grid_layout(2, 2)) == [self.INSIDE]

    def test_point_on_a_cell_boundary_is_legal(self):
        layout = grid_layout(2, 2)
        for point in (Point(6, 14), Point(22, 22), Point(2, 2)):
            assert verify_path(RoutePath((point,)), layout) == []

    def test_message_follows_the_surface_check(self):
        layout = grid_layout(2, 2)
        paths = [RoutePath((Point(-1, 14),)), RoutePath((Point(14, 14),))]
        tree = RouteTree("n", paths, ["n.s", "n.d"])
        net = Net.two_point("n", Point(-1, 14), Point(14, 14))
        assert verify_route_tree(tree, net, layout) == [
            "point (-1, 14) outside routing surface",
            self.INSIDE,
            "net 'n': terminal 'n.d' not electrically connected to the tree",
        ]

    def test_tree_and_route_report_it(self):
        layout = grid_layout(2, 2)
        net = Net.two_point("n", Point(14, 14), Point(14, 14))
        tree = RouteTree("n", [RoutePath((Point(14, 14),))], ["n.s", "n.d"])
        assert verify_route_tree(tree, net, layout) == [self.INSIDE]
        layout.add_net(net)
        assert verify_global_route(GlobalRoute({"n": tree}), layout) == {"n": [self.INSIDE]}


class TestAnchorTie:
    """The first terminal's two pins sit in different wire components,
    each also reaching one more terminal: a tie on cover.  A terminal's
    pins are electrically one, so the two components join through it
    and the tree is whole, whichever path comes first."""

    @staticmethod
    def net() -> Net:
        return Net(
            "n",
            [
                Terminal("n.t0", [Pin("a", Point(0, 0)), Pin("b", Point(100, 100))]),
                Terminal.single("n.t1", Point(50, 0)),
                Terminal.single("n.t2", Point(100, 50)),
            ],
        )

    def violations(self, paths) -> list[str]:
        tree = RouteTree("n", paths, ["n.t0", "n.t1", "n.t2"])
        return verify_route_tree(tree, self.net(), Layout(Rect(0, 0, 100, 100)))

    def test_tied_components_join_through_the_first_terminal(self):
        west = RoutePath((Point(0, 0), Point(50, 0)))
        east = RoutePath((Point(100, 100), Point(100, 50)))
        assert self.violations([west, east]) == []
        assert self.violations([east, west]) == []

    def test_a_zero_length_point_joins_its_pin_only(self):
        west = RoutePath((Point(0, 0), Point(50, 0)))
        stub = RoutePath((Point(100, 100),))
        missing = ["net 'n': terminal 'n.t2' not electrically connected to the tree"]
        assert self.violations([stub, west]) == missing
        assert self.violations([west, stub]) == missing


class TestVerifyTree:
    def test_disconnected_tree_flagged(self):
        layout = one_cell_layout()
        net = Net.two_point("n", Point(0, 0), Point(100, 100))
        tree = RouteTree(net_name="n")
        # a path that does not touch the destination terminal
        tree.paths.append(RoutePath((Point(0, 0), Point(50, 0))))
        tree.connected_terminals.extend(["n.s", "n.d"])
        violations = verify_route_tree(tree, net, layout)
        assert any("not electrically connected" in v for v in violations)

    def test_missing_terminal_flagged(self):
        layout = one_cell_layout()
        net = Net.two_point("n", Point(0, 0), Point(100, 100))
        tree = RouteTree(net_name="n")
        tree.connected_terminals.append("n.s")
        violations = verify_route_tree(tree, net, layout)
        assert any("never connected" in v for v in violations)

    def test_real_routes_pass(self, medium_layout):
        route = GlobalRouter(medium_layout).route_all()
        for name, tree in route.trees.items():
            assert verify_route_tree(tree, medium_layout.net(name), medium_layout) == []


class TestVerifyGlobalRoute:
    def test_valid_report_empty(self, small_layout):
        route = GlobalRouter(small_layout).route_all()
        assert verify_global_route(route, small_layout) == {}

    def test_strict_raises_on_bad_route(self):
        layout = one_cell_layout()
        layout.add_net(Net.two_point("n", Point(0, 50), Point(100, 50)))
        bad = GlobalRoute()
        tree = RouteTree(net_name="n")
        tree.paths.append(RoutePath((Point(0, 50), Point(100, 50))))  # crosses cell
        tree.connected_terminals.extend(["n.s", "n.d"])
        bad.trees["n"] = tree
        with pytest.raises(RoutingError):
            verify_global_route(bad, layout, strict=True)


class TestVerifyDetailed:
    def test_real_detailed_passes(self, small_layout):
        route = GlobalRouter(small_layout).route_all()
        result = DetailedRouter(small_layout).run(route)
        assert verify_detailed(result, small_layout) == []


class TestOptimalAssert:
    def test_matching_length_passes(self):
        assert_optimal_length(RoutePath((Point(0, 0), Point(5, 0))), 5)

    def test_mismatch_raises(self):
        with pytest.raises(RoutingError, match="oracle"):
            assert_optimal_length(RoutePath((Point(0, 0), Point(5, 0))), 4)


class TestCorruptedRealRoutes:
    """Deliberate corruption of genuinely routed results.

    The synthetic cases above hand-build bad trees; these start from a
    clean router output and break it, proving each checker catches the
    corruption in situ and that ``strict=True`` raises.
    """

    def corrupt_through_cell(self, layout):
        """A clean route with one net's path dragged through a cell."""
        route = GlobalRouter(layout).route_all()
        assert verify_global_route(route, layout) == {}
        cell = layout.cells[0]
        box = cell.bounding_box
        mid_y = (box.y0 + box.y1) // 2
        name, tree = next(iter(route.trees.items()))
        tree.paths[0] = RoutePath(
            (Point(box.x0 - 1, mid_y), Point(box.x1 + 1, mid_y))
        )
        return route, name, cell

    def test_segment_through_cell_flagged(self, small_layout):
        route, name, cell = self.corrupt_through_cell(small_layout)
        report = verify_global_route(route, small_layout)
        assert name in report
        assert any(f"crosses cell {cell.name!r}" in v for v in report[name])

    def test_only_the_corrupted_net_is_reported(self, small_layout):
        route, name, _ = self.corrupt_through_cell(small_layout)
        report = verify_global_route(route, small_layout)
        assert set(report) <= {name}

    def test_disconnected_terminal_flagged(self, small_layout):
        route = GlobalRouter(small_layout).route_all()
        name, tree = next(iter(route.trees.items()))
        net = small_layout.net(name)
        # Collapse the geometry onto the first terminal's first pin:
        # the claimed terminal list stays intact, but the other
        # terminals no longer touch any wire.
        anchor = net.terminals[0].pins[0].location
        tree.paths[:] = [RoutePath((anchor, anchor))]
        report = verify_global_route(route, small_layout)
        assert any("not electrically connected" in v for v in report[name])

    def test_dropped_terminal_claim_flagged(self, small_layout):
        route = GlobalRouter(small_layout).route_all()
        name, tree = next(iter(route.trees.items()))
        dropped = tree.connected_terminals.pop()
        report = verify_global_route(route, small_layout)
        assert any(
            "never connected" in v and dropped in v for v in report[name]
        )

    def test_point_outside_surface_flagged(self, small_layout):
        route = GlobalRouter(small_layout).route_all()
        outline = small_layout.outline
        name, tree = next(iter(route.trees.items()))
        escape = Point(outline.x1 + 10, outline.y0)
        tree.paths.append(RoutePath((Point(outline.x1, outline.y0), escape)))
        report = verify_global_route(route, small_layout)
        assert any("outside routing surface" in v for v in report[name])

    def test_strict_raises_on_corrupted_real_route(self, small_layout):
        route, name, _ = self.corrupt_through_cell(small_layout)
        with pytest.raises(RoutingError, match=name):
            verify_global_route(route, small_layout, strict=True)
