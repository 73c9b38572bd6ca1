"""Property-based differential parity for the compiled search.

Random scenes, random endpoints, random congestion regions, and for
some cases a random criticality and delay weight: whatever hypothesis
constructs, the default search (the compiled kernel, for these A*
wirelength, congestion and timing-driven requests) must return the exact
path, the exact float cost, and the exact node counters of the scalar
oracle under :func:`~repro.core.pathfinder.reference_search`.  The
same scenes also run stretched and shifted across the whole coordinate
range a layout accepts (``±2**62``), where lengths and distances no
longer fit int64 or float64 exactly.  This is the adversarial
complement of the fixed golden-trace tests in
``tests/core/test_engine_parity.py``.
"""

from hypothesis import given, settings, strategies as st

from repro.core.costs import CongestionPenaltyCost, TimingDrivenCost
from repro.core.pathfinder import PathRequest, find_path, reference_search
from repro.core.route import TargetSet
from repro.geometry.point import Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.rect import Rect
from repro.layout.layout import MAX_COORDINATE

SIZE = 64


@st.composite
def scenes(draw):
    """A routable scene: disjoint-ish random cells on a 64x64 surface."""
    n = draw(st.integers(min_value=0, max_value=6))
    rects = []
    for _ in range(n):
        x0 = draw(st.integers(min_value=1, max_value=SIZE - 12))
        y0 = draw(st.integers(min_value=1, max_value=SIZE - 12))
        w = draw(st.integers(min_value=3, max_value=10))
        h = draw(st.integers(min_value=3, max_value=10))
        candidate = Rect(x0, y0, min(x0 + w, SIZE - 1), min(y0 + h, SIZE - 1))
        if all(not candidate.inflated(1).intersects(r, strict=True) for r in rects):
            rects.append(candidate)
    return ObstacleSet(Rect(0, 0, SIZE, SIZE), rects)


@st.composite
def parity_cases(draw):
    obs = draw(scenes())
    free = st.builds(
        Point,
        st.integers(min_value=0, max_value=SIZE),
        st.integers(min_value=0, max_value=SIZE),
    ).filter(obs.point_free)
    s = draw(free)
    d = draw(free)
    n_regions = draw(st.integers(min_value=0, max_value=5))
    regions = []
    for _ in range(n_regions):
        x0 = draw(st.integers(min_value=0, max_value=SIZE - 4))
        y0 = draw(st.integers(min_value=0, max_value=SIZE - 4))
        w = draw(st.integers(min_value=1, max_value=24))
        h = draw(st.integers(min_value=1, max_value=24))
        weight = draw(
            st.floats(
                min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
            )
        )
        regions.append((Rect(x0, y0, min(x0 + w, SIZE), min(y0 + h, SIZE)), weight))
    # Some cases price as timing-driven: (criticality, delay_weight).
    timing = draw(
        st.none()
        | st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=10.0),
        )
    )
    return obs, s, d, regions, timing


@st.composite
def wide_parity_cases(draw):
    """A :func:`parity_cases` scene mapped by ``c -> offset + scale * c``.

    The scale reaches ``2**56`` and the offset keeps every coordinate
    of the 0..64 scene within ``±MAX_COORDINATE``.
    """
    obs, s, d, regions, timing = draw(parity_cases())
    scale = draw(st.integers(min_value=1, max_value=MAX_COORDINATE // SIZE))
    offset = draw(
        st.integers(min_value=-MAX_COORDINATE, max_value=MAX_COORDINATE - SIZE * scale)
    )

    def point(p):
        return Point(offset + scale * p.x, offset + scale * p.y)

    def rect(r):
        return Rect(*(offset + scale * c for c in (r.x0, r.y0, r.x1, r.y1)))

    wide = ObstacleSet(rect(obs.bound), [rect(r) for r in obs.rects])
    return wide, point(s), point(d), [(rect(r), w) for r, w in regions], timing


def _run(obs, s, d, regions, timing):
    if timing is not None:
        criticality, delay_weight = timing
        model = TimingDrivenCost(
            [(region, weight, 0.0) for region, weight in regions],
            criticality=criticality,
            delay_weight=delay_weight,
        )
    else:
        model = CongestionPenaltyCost(regions) if regions else None
    kwargs = {"cost_model": model} if model is not None else {}
    result = find_path(
        PathRequest(
            obstacles=obs,
            sources=[(s, 0.0)],
            targets=TargetSet(points=[d]),
            **kwargs,
        )
    )
    return (
        result.path.points,
        result.path.cost,
        result.stats.nodes_expanded,
        result.stats.nodes_generated,
        result.stats.nodes_reopened,
    )


class TestEngineParityProperties:
    @given(parity_cases())
    @settings(max_examples=60, deadline=None)
    def test_vectorized_matches_scalar_exactly(self, case):
        with reference_search():
            scalar = _run(*case)
        assert _run(*case) == scalar

    @given(wide_parity_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_across_the_coordinate_range(self, case):
        with reference_search():
            scalar = _run(*case)
        assert _run(*case) == scalar
