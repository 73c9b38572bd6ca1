"""Unit tests for route result structures and target sets."""

import pytest

from repro.errors import RoutingError
from repro.core.route import GlobalRoute, RoutePath, RouteTree, TargetSet
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment


class TestRoutePath:
    def test_basic_metrics(self):
        path = RoutePath((Point(0, 0), Point(5, 0), Point(5, 3)), cost=8.0)
        assert path.length == 8
        assert path.bends == 1
        assert path.start == Point(0, 0)
        assert path.end == Point(5, 3)
        assert len(path.segments) == 2

    def test_single_point_path(self):
        path = RoutePath((Point(2, 2),))
        assert path.length == 0
        assert path.segments == ()
        assert path.start == path.end == Point(2, 2)

    def test_empty_rejected(self):
        with pytest.raises(RoutingError):
            RoutePath(())

    def test_diagonal_rejected(self):
        with pytest.raises(Exception):
            RoutePath((Point(0, 0), Point(3, 3)))

    def test_repeated_points_allowed_but_no_segments(self):
        path = RoutePath((Point(0, 0), Point(0, 0)))
        assert path.segments == ()


class TestRouteTree:
    def make_tree(self) -> RouteTree:
        tree = RouteTree(net_name="n")
        tree.paths.append(RoutePath((Point(0, 0), Point(10, 0))))
        tree.paths.append(RoutePath((Point(5, 8), Point(5, 0))))
        tree.connected_terminals.extend(["a", "b", "c"])
        return tree

    def test_aggregate_metrics(self):
        tree = self.make_tree()
        assert tree.total_length == 18
        assert tree.total_bends == 0
        assert len(tree.segments) == 2

    def test_bounding_box(self):
        tree = self.make_tree()
        assert tree.bounding_box == Rect(0, 0, 10, 8)

    def test_empty_tree_bounding_box(self):
        assert RouteTree(net_name="n").bounding_box is None


class TestGlobalRoute:
    def make_route(self) -> GlobalRoute:
        route = GlobalRoute()
        tree = RouteTree(net_name="n1")
        tree.paths.append(RoutePath((Point(0, 0), Point(4, 0))))
        route.trees["n1"] = tree
        return route

    def test_totals(self):
        route = self.make_route()
        assert route.total_length == 4
        assert route.routed_count == 1

    def test_tree_lookup(self):
        route = self.make_route()
        assert route.tree("n1").net_name == "n1"
        with pytest.raises(RoutingError):
            route.tree("ghost")

    def test_all_segments_tagged(self):
        tagged = self.make_route().all_segments()
        assert tagged == [("n1", Segment.horizontal(0, 0, 4))]


class TestTargetSet:
    def test_empty_rejected(self):
        with pytest.raises(RoutingError):
            TargetSet()

    def test_point_membership(self):
        targets = TargetSet(points=[Point(5, 5)])
        assert targets.contains(Point(5, 5))
        assert not targets.contains(Point(5, 6))

    def test_segment_membership(self):
        targets = TargetSet(segments=[Segment.horizontal(5, 0, 10)])
        assert targets.contains(Point(3, 5))
        assert targets.contains(Point(0, 5))
        assert not targets.contains(Point(3, 6))

    def test_degenerate_segments_become_points(self):
        targets = TargetSet(segments=[Segment(Point(3, 3), Point(3, 3))])
        assert targets.contains(Point(3, 3))
        assert targets.segments == []

    def test_generator_segments_keep_their_degenerate_members(self):
        segments = [Segment(Point(3, 3), Point(3, 3)), Segment.horizontal(5, 0, 10)]
        targets = TargetSet(segments=(s for s in segments))
        assert targets.points == [Point(3, 3)]
        assert targets.segments == [Segment.horizontal(5, 0, 10)]
        only_degenerate = TargetSet(segments=(s for s in segments[:1]))
        assert only_degenerate.points == [Point(3, 3)]
        assert only_degenerate.segments == []

    def test_distance_to(self):
        targets = TargetSet(
            points=[Point(0, 0)], segments=[Segment.vertical(10, 0, 20)]
        )
        assert targets.distance_to(Point(0, 0)) == 0
        assert targets.distance_to(Point(12, 5)) == 2  # nearest: segment at x=10
        assert targets.distance_to(Point(1, 1)) == 2  # nearest: the point

    def test_nearest_point(self):
        targets = TargetSet(segments=[Segment.vertical(10, 0, 20)])
        assert targets.nearest_point_to(Point(15, 7)) == Point(10, 7)

    def test_escape_coordinates(self):
        targets = TargetSet(
            points=[Point(3, 4)], segments=[Segment.horizontal(9, 5, 8)]
        )
        assert targets.escape_xs() == {3, 5, 8}
        assert targets.escape_ys() == {4, 9}

    def test_connect_grows_the_set_in_place(self):
        targets = TargetSet(points=[Point(0, 0)], segments=[Segment.horizontal(9, 5, 8)])
        new = targets.connect([Point(5, 5)], [Point(5, 5), Point(5, 9)])
        assert new == [5, 5, 5, 5, 5, 5, 5, 9]  # the pin, then the hop, as boxes
        assert targets.contains(Point(5, 7))
        assert targets.flat == [0, 0, 0, 0, 5, 5, 5, 5, 5, 8, 9, 9, 5, 5, 5, 9]

    def test_zero_length_attach_joins_the_points(self):
        targets = TargetSet(points=[Point(0, 0)])
        assert targets.connect([Point(3, 0)], [Point(3, 0)]) == [3, 3, 0, 0, 3, 3, 0, 0]
        assert targets.points == [Point(0, 0), Point(3, 0), Point(3, 0)]
        assert len(targets) == 3

    def test_len(self):
        targets = TargetSet(points=[Point(0, 0)], segments=[Segment.horizontal(9, 5, 8)])
        assert len(targets) == 2
