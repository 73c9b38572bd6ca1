"""Unit tests for passage detection and congestion measurement."""

import pytest

from repro.core.congestion import (
    BOUNDARY,
    CongestionHistory,
    CongestionLedger,
    CongestionMap,
    Passage,
    PassageUsage,
    find_passages,
    measure_congestion,
)
from repro.core.route import GlobalRoute, RoutePath, RouteTree
from repro.errors import RoutingError
from repro.geometry.point import Axis, Point
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment
from repro.layout.cell import Cell
from repro.layout.layout import MAX_COORDINATE, Layout

from tests.conftest import broadcast_congestion


def two_cell_layout() -> Layout:
    """Two cells side by side with a 4-wide passage between them."""
    layout = Layout(Rect(0, 0, 60, 40))
    layout.add_cell(Cell.rect("a", 10, 10, 16, 20))  # x in [10,26]
    layout.add_cell(Cell.rect("b", 30, 10, 16, 20))  # x in [30,46]
    return layout


class TestPassageGeometry:
    def test_capacity_counts_hug_positions(self):
        passage = Passage(Rect(26, 10, 30, 30), Axis.Y, ("a", "b"))
        assert passage.gap == 4
        assert passage.capacity == 5
        assert passage.length == 20

    def test_carries_parallel_wire_inside(self):
        passage = Passage(Rect(26, 10, 30, 30), Axis.Y, ("a", "b"))
        assert passage.carries(Segment.vertical(28, 0, 40))
        assert passage.carries(Segment.vertical(26, 12, 18))  # hugging edge counts

    def test_ignores_crossing_and_outside_wires(self):
        passage = Passage(Rect(26, 10, 30, 30), Axis.Y, ("a", "b"))
        assert not passage.carries(Segment.horizontal(20, 0, 60))  # crossing
        assert not passage.carries(Segment.vertical(50, 0, 40))  # outside
        assert not passage.carries(Segment.vertical(28, 30, 40))  # only touches end


class TestFindPassages:
    def test_detects_cell_pair_passage(self):
        passages = find_passages(two_cell_layout())
        pair = [p for p in passages if set(p.between) == {"a", "b"}]
        assert len(pair) == 1
        assert pair[0].region == Rect(26, 10, 30, 30)
        assert pair[0].flow is Axis.Y

    def test_detects_boundary_passages(self):
        passages = find_passages(two_cell_layout())
        boundary = [p for p in passages if BOUNDARY in p.between]
        assert boundary  # each cell faces the outline on some side

    def test_max_gap_filter(self):
        passages = find_passages(two_cell_layout(), max_gap=3)
        pair = [p for p in passages if set(p.between) == {"a", "b"}]
        assert not pair  # the 4-wide passage is filtered out

    @pytest.mark.parametrize("max_gap", [0, -5])
    def test_max_gap_below_one_rejected(self, max_gap):
        with pytest.raises(RoutingError, match="max_gap must be >= 1"):
            find_passages(two_cell_layout(), max_gap=max_gap)

    def test_intervening_cell_blocks_passage(self):
        layout = two_cell_layout()
        layout.add_cell(Cell.rect("mid", 27, 12, 2, 4))  # sits in the gap
        passages = find_passages(layout)
        pair = [p for p in passages if set(p.between) == {"a", "b"}]
        assert not pair

    def test_vertical_adjacency(self):
        layout = Layout(Rect(0, 0, 40, 60))
        layout.add_cell(Cell.rect("lo", 10, 10, 20, 16))
        layout.add_cell(Cell.rect("hi", 10, 30, 20, 16))
        passages = find_passages(layout)
        pair = [p for p in passages if set(p.between) == {"lo", "hi"}]
        assert len(pair) == 1
        assert pair[0].flow is Axis.X
        assert pair[0].gap == 4

    def test_no_duplicate_symmetric_passages(self):
        passages = find_passages(two_cell_layout())
        keys = [(p.region, p.flow) for p in passages]
        assert len(keys) == len(set(keys))


class TestMeasurement:
    def route_with_wires(self, *tagged: tuple[str, Segment]) -> GlobalRoute:
        route = GlobalRoute()
        for net, seg in tagged:
            tree = route.trees.setdefault(net, RouteTree(net_name=net))
            tree.paths.append(RoutePath((seg.a, seg.b)))
        return route

    def test_usage_counts_distinct_nets(self):
        passages = [Passage(Rect(26, 10, 30, 30), Axis.Y, ("a", "b"))]
        route = self.route_with_wires(
            ("n1", Segment.vertical(27, 0, 40)),
            ("n2", Segment.vertical(28, 0, 40)),
            ("n1", Segment.vertical(29, 0, 40)),  # same net: counted once
        )
        cmap = measure_congestion(passages, route)
        assert cmap.entries[0].usage == 2

    def test_utilization_and_overflow(self):
        passage = Passage(Rect(26, 10, 28, 30), Axis.Y, ("a", "b"))  # capacity 3
        entry = PassageUsage(passage, nets={"n1", "n2", "n3", "n4"})
        assert entry.utilization == 4 / 3
        assert entry.overflow == 1

    def test_map_aggregates(self):
        passage = Passage(Rect(26, 10, 28, 30), Axis.Y, ("a", "b"))
        cmap = CongestionMap(
            [
                PassageUsage(passage, nets={"a", "b", "c", "d"}),
                PassageUsage(passage, nets={"x"}),
            ]
        )
        assert cmap.total_overflow == 1
        assert cmap.max_utilization == 4 / 3
        assert len(cmap.overflowed()) == 1
        assert cmap.affected_nets() == {"a", "b", "c", "d"}

    def test_penalty_regions_scale_with_overload(self):
        small = Passage(Rect(0, 0, 1, 10), Axis.Y, ("a", "b"))  # capacity 2
        cmap = CongestionMap([PassageUsage(small, nets={"1", "2", "3", "4"})])
        regions = cmap.penalty_regions(weight=2.0)
        assert len(regions) == 1
        region, weight = regions[0]
        assert region == small.region
        assert weight == 2.0 * (4 / 2)

    def test_empty_map(self):
        cmap = CongestionMap([])
        assert cmap.max_utilization == 0.0
        assert cmap.total_overflow == 0
        assert cmap.affected_nets() == set()


class TestOverflowQueries:
    def passage(self, width: int = 2) -> Passage:
        return Passage(Rect(26, 10, 26 + width, 30), Axis.Y, ("a", "b"))

    def test_overflow_count_and_max(self):
        passage = self.passage()  # capacity 3
        cmap = CongestionMap(
            [
                PassageUsage(passage, nets={"a", "b", "c", "d", "e"}),  # over by 2
                PassageUsage(passage, nets={"x", "y", "z", "w"}),  # over by 1
                PassageUsage(passage, nets={"q"}),  # fine
            ]
        )
        assert cmap.overflow_count == 2
        assert cmap.max_overflow == 2

    def test_empty_map_queries(self):
        cmap = CongestionMap([])
        assert cmap.overflow_count == 0
        assert cmap.max_overflow == 0

    def test_overuse_positive_once_full(self):
        passage = self.passage()  # capacity 3
        assert PassageUsage(passage, nets={"a"}).overuse == 0.0
        assert PassageUsage(passage, nets={"a", "b"}).overuse == 0.0
        # at capacity: one more net would not fit -> present term kicks in
        assert PassageUsage(passage, nets={"a", "b", "c"}).overuse == pytest.approx(1 / 3)
        assert PassageUsage(passage, nets={"a", "b", "c", "d"}).overuse == pytest.approx(2 / 3)


class TestLedger:
    def passages(self) -> list[Passage]:
        return [
            Passage(Rect(26, 10, 28, 30), Axis.Y, ("a", "b")),  # capacity 3
            Passage(Rect(0, 30, 60, 32), Axis.X, ("c", "d")),  # capacity 3
        ]

    def tree(self, net: str, *points: tuple[int, int]) -> RouteTree:
        tree = RouteTree(net_name=net)
        tree.paths.append(RoutePath(tuple(Point(x, y) for x, y in points)))
        return tree

    def test_add_remove_and_replace_track_the_oracle(self):
        passages = self.passages()
        ledger = CongestionLedger(passages)
        route = GlobalRoute()
        steps = [
            ("n1", self.tree("n1", (27, 0), (27, 40))),
            ("n2", self.tree("n2", (26, 0), (26, 31), (50, 31))),
            ("n1", self.tree("n1", (5, 31), (55, 31))),  # replaces n1's tree
            ("n3", self.tree("n3", (28, 12), (28, 12))),  # degenerate hop
        ]
        for net, tree in steps:
            ledger.add(net, tree)
            route.trees[net] = tree
            assert ledger.snapshot() == broadcast_congestion(passages, route)
        assert ledger.usage.tolist() == [1, 2]
        ledger.remove("n2")
        ledger.remove("never-added")
        del route.trees["n2"]
        assert ledger.snapshot() == broadcast_congestion(passages, route)
        assert ledger.usage.tolist() == [0, 1]

    def test_load_resets_to_the_route(self):
        passages = self.passages()
        ledger = CongestionLedger(passages)
        ledger.add("stale", self.tree("stale", (27, 0), (27, 40)))
        route = GlobalRoute(
            trees={f"n{i}": self.tree(f"n{i}", (27, 0), (27, 40)) for i in range(4)}
        )
        ledger.load(route)
        snapshot = ledger.snapshot()
        assert snapshot == broadcast_congestion(passages, route)
        assert (snapshot.total_overflow, snapshot.affected_nets()) == (1, set(route.trees))

    def test_snapshots_are_immutable(self):
        ledger = CongestionLedger(self.passages())
        ledger.add("n1", self.tree("n1", (27, 0), (27, 40)))
        snapshot = ledger.snapshot()
        ledger.add("n2", self.tree("n2", (27, 0), (27, 40)))
        ledger.remove("n1")
        assert snapshot.usage.tolist() == [1, 0]
        assert snapshot.entries[0].nets == {"n1"}
        with pytest.raises(ValueError):
            snapshot.usage[0] = 5

    def test_maps_differing_in_one_net_set_are_unequal(self):
        passages = self.passages()
        a = CongestionMap([PassageUsage(passages[0], {"n1"}), PassageUsage(passages[1])])
        b = CongestionMap([PassageUsage(passages[0], {"n2"}), PassageUsage(passages[1])])
        assert a.usage.tolist() == b.usage.tolist()
        assert a != b
        assert a == CongestionMap([PassageUsage(passages[0], {"n1"}), PassageUsage(passages[1])])

    def test_no_passages(self):
        ledger = CongestionLedger([])
        ledger.add("n1", self.tree("n1", (27, 0), (27, 40)))
        snapshot = ledger.snapshot()
        assert snapshot == broadcast_congestion([], GlobalRoute())
        assert (snapshot.total_overflow, snapshot.max_utilization) == (0, 0.0)


class TestCoordinateLimit:
    """A passage ``2**63 - 1`` wide: its capacity does not fit in int64."""

    def layout(self) -> Layout:
        layout = Layout(Rect(-MAX_COORDINATE, -MAX_COORDINATE, MAX_COORDINATE, MAX_COORDINATE))
        layout.add_cell(Cell("c", Rect(MAX_COORDINATE - 1, -5, MAX_COORDINATE, 5)))
        return layout

    def route(self, n_nets: int) -> GlobalRoute:
        route = GlobalRoute()
        for i in range(n_nets):
            tree = RouteTree(net_name=f"n{i}")
            tree.paths.append(RoutePath((Point(i, -MAX_COORDINATE), Point(i, MAX_COORDINATE))))
            route.trees[tree.net_name] = tree
        return route

    @pytest.mark.parametrize("n_nets", [0, 1, 3])
    def test_ledger_equals_the_oracle(self, n_nets):
        passages = find_passages(self.layout())
        widest = max(passages, key=lambda p: p.gap)
        assert widest.gap == 2**63 - 1
        route = self.route(n_nets)
        ledger = CongestionLedger(passages)
        ledger.load(route)
        oracle = broadcast_congestion(passages, route)
        snapshot = ledger.snapshot()
        assert snapshot == oracle
        for cmap in (snapshot, oracle):
            assert cmap.total_overflow == sum(e.overflow for e in oracle.entries) == 0
            assert cmap.overflow_count == cmap.max_overflow == 0
            assert cmap.max_utilization == max(e.utilization for e in oracle.entries)
        index = passages.index(widest)
        assert snapshot.usage[index] == n_nets
        assert snapshot.entries[index].utilization == n_nets / 2**63

    def test_history_never_charges_the_wide_passage(self):
        passages = find_passages(self.layout())
        ledger = CongestionLedger(passages)
        ledger.load(self.route(3))
        history = CongestionHistory(gain=2.0)
        history.seed(ledger.snapshot())
        history.update(ledger.snapshot())
        wide = passages.index(max(passages, key=lambda p: p.gap))
        assert history.value(wide) == 0.0
        terms = history.penalty_terms(ledger.snapshot())
        assert all(region != passages[wide].region for region, _, _ in terms)

    @pytest.mark.parametrize("gap", [2**53 - 1, 2**53, 2**53 + 1, 2**62 + 3, 2**63 - 1])
    def test_max_utilization_rounds_as_python_does(self, gap):
        # From 2**53 up, float(gap) + 1 and float(gap + 1) can differ.
        passage = Passage(Rect(-MAX_COORDINATE, 0, gap - MAX_COORDINATE, 10), Axis.Y, ("a", "b"))
        entry = PassageUsage(passage, nets={"n1", "n2", "n3"})
        idle = PassageUsage(Passage(Rect(0, 0, 2, 10), Axis.Y, ("c", "d")))
        cmap = CongestionMap([idle, entry])
        assert cmap.max_utilization == 3 / (gap + 1) == entry.utilization
