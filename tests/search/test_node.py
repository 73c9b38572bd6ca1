"""Unit tests for search nodes and the expansion trace."""

from repro.search.node import SearchNode
from repro.search.stats import ExpansionTrace, SearchStats


class TestSearchNode:
    def test_f_is_g_plus_h(self):
        node = SearchNode("s", g=3.0, h=4.0)
        assert node.f == 7.0

    def test_path_reconstruction(self):
        root = SearchNode("a", g=0)
        mid = SearchNode("b", g=1, parent=root, depth=1)
        leaf = SearchNode("c", g=2, parent=mid, depth=2)
        assert leaf.path() == ["a", "b", "c"]

    def test_nodes_compare_by_identity(self):
        assert SearchNode("s", g=0) != SearchNode("s", g=0)


class TestExpansionTrace:
    def test_records_in_order(self):
        trace = ExpansionTrace()
        trace.record("a")
        trace.record("b", "a")
        assert trace.states == ["a", "b"]
        assert trace.entries[1] == ("b", "a")
        assert len(trace) == 2


class TestSearchStats:
    def test_observe_open_size_keeps_max(self):
        stats = SearchStats()
        stats.observe_open_size(3)
        stats.observe_open_size(1)
        assert stats.max_open_size == 3

    def test_merged_with_propagates_failure(self):
        ok = SearchStats(termination="goal")
        bad = SearchStats(termination="limit")
        assert ok.merged_with(bad).termination == "limit"
        assert ok.merged_with(SearchStats(termination="goal")).termination == "goal"
