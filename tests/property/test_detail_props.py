"""Property-based tests for the detailed-routing components."""

from hypothesis import given, settings, strategies as st

from repro.detail.leftedge import channel_density, left_edge_assign
from repro.detail.interference import TaggedSegment, interference_groups
from repro.geometry.interval import Interval
from repro.geometry.segment import Segment


@st.composite
def interval_sets(draw):
    n = draw(st.integers(min_value=1, max_value=15))
    out = {}
    for i in range(n):
        a = draw(st.integers(min_value=0, max_value=100))
        b = draw(st.integers(min_value=0, max_value=100))
        out[f"n{i}"] = Interval(min(a, b), max(a, b))
    return out


class TestLeftEdgeProperties:
    @given(interval_sets())
    @settings(max_examples=200, deadline=None)
    def test_no_same_track_overlap(self, intervals):
        result = left_edge_assign(intervals)
        by_track: dict[int, list[Interval]] = {}
        for key, track in result.track_of.items():
            by_track.setdefault(track, []).append(intervals[key])
        for members in by_track.values():
            members.sort(key=lambda iv: iv.lo)
            for a, b in zip(members, members[1:]):
                assert not a.overlaps(b, strict=True)

    @given(interval_sets())
    @settings(max_examples=200, deadline=None)
    def test_track_count_is_density_optimal(self, intervals):
        result = left_edge_assign(intervals)
        assert result.track_count == channel_density(intervals)

    @given(interval_sets())
    @settings(max_examples=100, deadline=None)
    def test_every_interval_assigned(self, intervals):
        result = left_edge_assign(intervals)
        assert set(result.track_of) == set(intervals)
        assert all(0 <= t < result.track_count for t in result.track_of.values())


@st.composite
def horizontal_wire_sets(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    wires = []
    for i in range(n):
        y = draw(st.integers(min_value=0, max_value=40))
        x0 = draw(st.integers(min_value=0, max_value=80))
        length = draw(st.integers(min_value=1, max_value=20))
        wires.append(TaggedSegment(f"n{i % 5}", Segment.horizontal(y, x0, x0 + length)))
    return wires


class TestInterferenceProperties:
    @given(horizontal_wire_sets(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_groups_partition_input(self, wires, window):
        groups = interference_groups(wires, window=window)
        flattened = [m for g in groups for m in g.members]
        assert sorted(flattened, key=id) == sorted(wires, key=id)

    @given(horizontal_wire_sets(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_cross_group_members_never_interfere(self, wires, window):
        from repro.detail.interference import interfere

        groups = interference_groups(wires, window=window)
        for gi in range(len(groups)):
            for gj in range(gi + 1, len(groups)):
                for a in groups[gi].members:
                    for b in groups[gj].members:
                        assert not interfere(a.seg, b.seg, window=window)

    @given(horizontal_wire_sets())
    @settings(max_examples=100, deadline=None)
    def test_hulls_contain_members(self, wires):
        for group in interference_groups(wires, window=2):
            for member in group.members:
                assert group.span_hull.contains_interval(member.seg.span)
