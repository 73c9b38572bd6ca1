"""Unit tests for closed intervals."""

import pytest

from repro.errors import GeometryError
from repro.geometry.interval import Interval, merge_intervals, total_length


class TestConstruction:
    def test_ordered_endpoints_required(self):
        with pytest.raises(GeometryError):
            Interval(5, 3)

    def test_degenerate_allowed(self):
        iv = Interval(4, 4)
        assert iv.is_degenerate
        assert iv.length == 0

    def test_spanning(self):
        assert Interval.spanning([5, 1, 3]) == Interval(1, 5)

    def test_spanning_empty_raises(self):
        with pytest.raises(GeometryError):
            Interval.spanning([])


class TestQueries:
    def test_length_and_midpoint(self):
        iv = Interval(2, 8)
        assert iv.length == 6
        assert iv.midpoint == 5.0

    def test_contains_closed(self):
        iv = Interval(2, 8)
        assert iv.contains(2) and iv.contains(8) and iv.contains(5)
        assert not iv.contains(1) and not iv.contains(9)

    def test_contains_strict_excludes_endpoints(self):
        iv = Interval(2, 8)
        assert iv.contains(3, strict=True)
        assert not iv.contains(2, strict=True)
        assert not iv.contains(8, strict=True)

    def test_contains_interval(self):
        assert Interval(0, 10).contains_interval(Interval(2, 8))
        assert not Interval(0, 10).contains_interval(Interval(2, 12))

    def test_clamp(self):
        iv = Interval(2, 8)
        assert iv.clamp(0) == 2
        assert iv.clamp(9) == 8
        assert iv.clamp(5) == 5


class TestRelations:
    def test_overlaps_touching_counts_closed(self):
        assert Interval(0, 5).overlaps(Interval(5, 9))

    def test_overlaps_strict_needs_positive_length(self):
        assert not Interval(0, 5).overlaps(Interval(5, 9), strict=True)
        assert Interval(0, 6).overlaps(Interval(5, 9), strict=True)

    def test_intersection(self):
        assert Interval(0, 5).intersection(Interval(3, 9)) == Interval(3, 5)
        assert Interval(0, 5).intersection(Interval(6, 9)) is None
        assert Interval(0, 5).intersection(Interval(5, 9)) == Interval(5, 5)

    def test_hull(self):
        assert Interval(0, 2).hull(Interval(8, 9)) == Interval(0, 9)

    def test_union_of_overlapping(self):
        assert Interval(0, 5).union(Interval(4, 9)) == Interval(0, 9)

    def test_union_of_disjoint_raises(self):
        with pytest.raises(GeometryError):
            Interval(0, 2).union(Interval(5, 9))

    def test_gap_to(self):
        assert Interval(0, 2).gap_to(Interval(5, 9)) == 3
        assert Interval(5, 9).gap_to(Interval(0, 2)) == 3
        assert Interval(0, 5).gap_to(Interval(3, 9)) == 0

    def test_expanded(self):
        assert Interval(3, 5).expanded(2) == Interval(1, 7)


class TestAggregates:
    def test_merge_intervals(self):
        merged = merge_intervals([Interval(5, 7), Interval(0, 2), Interval(2, 4)])
        assert merged == [Interval(0, 4), Interval(5, 7)]

    def test_merge_handles_containment(self):
        merged = merge_intervals([Interval(0, 10), Interval(2, 3)])
        assert merged == [Interval(0, 10)]

    def test_total_length_counts_overlaps_once(self):
        assert total_length([Interval(0, 4), Interval(2, 6)]) == 6

    def test_total_length_empty(self):
        assert total_length([]) == 0
