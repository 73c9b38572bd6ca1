"""Unit tests for net interference grouping."""

from repro.detail.interference import TaggedSegment, interfere, interference_groups
from repro.geometry.segment import Segment


def ts(net: str, seg: Segment) -> TaggedSegment:
    return TaggedSegment(net, seg)


class TestInterfere:
    def test_same_track_overlapping(self):
        a = Segment.horizontal(10, 0, 20)
        b = Segment.horizontal(10, 10, 30)
        assert interfere(a, b, window=2)

    def test_nearby_tracks_within_window(self):
        a = Segment.horizontal(10, 0, 20)
        b = Segment.horizontal(12, 10, 30)
        assert interfere(a, b, window=2)
        assert not interfere(a, b, window=1)

    def test_touching_spans_do_not_interfere(self):
        a = Segment.horizontal(10, 0, 10)
        b = Segment.horizontal(10, 10, 30)
        assert not interfere(a, b, window=2)

    def test_perpendicular_never_interfere(self):
        a = Segment.horizontal(10, 0, 20)
        b = Segment.vertical(10, 0, 20)
        assert not interfere(a, b, window=5)


class TestGroups:
    def test_transitive_grouping(self):
        # a-b interfere, b-c interfere -> one group of three
        segs = [
            ts("a", Segment.horizontal(10, 0, 20)),
            ts("b", Segment.horizontal(11, 10, 30)),
            ts("c", Segment.horizontal(12, 25, 40)),
        ]
        groups = interference_groups(segs, window=2)
        assert len(groups) == 1
        assert groups[0].nets == {"a", "b", "c"}

    def test_disjoint_tracks_split(self):
        segs = [
            ts("a", Segment.horizontal(10, 0, 20)),
            ts("b", Segment.horizontal(50, 0, 20)),
        ]
        groups = interference_groups(segs, window=2)
        assert len(groups) == 2

    def test_disjoint_spans_split(self):
        segs = [
            ts("a", Segment.horizontal(10, 0, 20)),
            ts("b", Segment.horizontal(10, 30, 50)),
        ]
        groups = interference_groups(segs, window=2)
        assert len(groups) == 2

    def test_singletons_returned(self):
        segs = [ts("a", Segment.horizontal(10, 0, 20))]
        groups = interference_groups(segs)
        assert len(groups) == 1
        assert groups[0].members == segs

    def test_hulls(self):
        segs = [
            ts("a", Segment.horizontal(10, 0, 20)),
            ts("b", Segment.horizontal(12, 10, 30)),
        ]
        group = interference_groups(segs, window=2)[0]
        assert (group.span_hull.lo, group.span_hull.hi) == (0, 30)

    def test_deterministic_order(self):
        segs = [
            ts("hi", Segment.horizontal(50, 0, 20)),
            ts("lo", Segment.horizontal(10, 0, 20)),
        ]
        groups = interference_groups(segs)
        assert groups[0].members[0].net == "lo"

    def test_empty_input(self):
        assert interference_groups([]) == []
