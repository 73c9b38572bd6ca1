"""Property-based tests for the geometry substrate."""

from hypothesis import given, strategies as st

from repro.geometry.interval import Interval, merge_intervals, total_length
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment, path_bends, path_length

coords = st.integers(min_value=-1000, max_value=1000)
points = st.builds(Point, coords, coords)


@st.composite
def intervals(draw):
    a = draw(coords)
    b = draw(coords)
    return Interval(min(a, b), max(a, b))


@st.composite
def rects(draw):
    x0, x1 = sorted((draw(coords), draw(coords)))
    y0, y1 = sorted((draw(coords), draw(coords)))
    return Rect(x0, y0, x1, y1)


@st.composite
def segments(draw):
    p = draw(points)
    if draw(st.booleans()):
        return Segment(p, p.with_x(draw(coords)))
    return Segment(p, p.with_y(draw(coords)))


class TestPointProperties:
    @given(points, points)
    def test_manhattan_symmetry(self, a, b):
        assert a.manhattan(b) == b.manhattan(a)

    @given(points, points, points)
    def test_manhattan_triangle_inequality(self, a, b, c):
        assert a.manhattan(c) <= a.manhattan(b) + b.manhattan(c)

    @given(points, points)
    def test_manhattan_identity(self, a, b):
        assert (a.manhattan(b) == 0) == (a == b)


class TestIntervalProperties:
    @given(intervals(), intervals())
    def test_intersection_commutative(self, a, b):
        assert a.intersection(b) == b.intersection(a)

    @given(intervals(), intervals())
    def test_intersection_within_operands(self, a, b):
        shared = a.intersection(b)
        if shared is not None:
            assert a.contains_interval(shared)
            assert b.contains_interval(shared)

    @given(intervals(), intervals())
    def test_hull_contains_both(self, a, b):
        hull = a.hull(b)
        assert hull.contains_interval(a) and hull.contains_interval(b)

    @given(intervals(), coords)
    def test_clamp_is_inside(self, iv, v):
        assert iv.contains(iv.clamp(v))

    @given(st.lists(intervals(), max_size=20))
    def test_merge_produces_disjoint_sorted(self, ivs):
        merged = merge_intervals(ivs)
        for a, b in zip(merged, merged[1:]):
            assert a.hi < b.lo

    @given(st.lists(intervals(), max_size=20))
    def test_total_length_at_most_sum(self, ivs):
        assert total_length(ivs) <= sum(iv.length for iv in ivs)


class TestRectProperties:
    @given(rects(), rects())
    def test_intersection_symmetric(self, a, b):
        assert a.intersection(b) == b.intersection(a)

    @given(rects(), rects())
    def test_intersects_iff_intersection(self, a, b):
        assert a.intersects(b) == (a.intersection(b) is not None)

    @given(rects(), rects())
    def test_separation_zero_iff_touching(self, a, b):
        assert (a.separation(b) == 0) == a.intersects(b)

    @given(rects(), st.integers(min_value=0, max_value=50))
    def test_inflate_contains_original(self, r, m):
        assert r.inflated(m).contains_rect(r)


class TestSegmentProperties:
    @given(segments())
    def test_span_length_equals_segment_length(self, seg):
        assert seg.span.length == seg.length

    @given(segments(), segments())
    def test_overlap_symmetric(self, a, b):
        assert a.overlap(b) == b.overlap(a)

    @given(segments(), segments())
    def test_crossing_symmetric(self, a, b):
        assert a.crossing_point(b) == b.crossing_point(a)


class TestPolylineProperties:
    @st.composite
    @staticmethod
    def rectilinear_paths(draw):
        start = draw(points)
        pts = [start]
        for _step in range(draw(st.integers(min_value=1, max_value=8))):
            prev = pts[-1]
            if draw(st.booleans()):
                pts.append(prev.with_x(draw(coords)))
            else:
                pts.append(prev.with_y(draw(coords)))
        return pts

    @given(rectilinear_paths())
    def test_length_at_least_endpoint_distance(self, pts):
        assert path_length(pts) >= pts[0].manhattan(pts[-1])

    @given(rectilinear_paths())
    def test_bends_bounded_by_hops(self, pts):
        assert 0 <= path_bends(pts) <= len(pts) - 1

    @given(rectilinear_paths())
    def test_reversal_preserves_length_and_bends(self, pts):
        assert path_length(pts) == path_length(pts[::-1])
        assert path_bends(pts) == path_bends(pts[::-1])
