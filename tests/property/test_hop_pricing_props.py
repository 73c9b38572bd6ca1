"""The scalar problem prices a move from its two points, not a ``Segment``.

``pathfinder._hop_pricer(model)`` must give, bit for bit, the
``model.segment_cost`` of the segment between the two points, for every
shipped model and the bend and inverted-corner wrappers around them,
whatever the move's direction, at coordinates out to ``±2**62``.  A
model whose ``segment_cost`` is overridden without ``track_terms`` (the
supplier-match rule the kernel follows) must still be priced by that
``segment_cost``, wrapped or not.  ``reference_search`` keeps pricing
with a ``Segment``, so the engine-parity suites compare the two on
every scalar configuration too.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import repro.core.pathfinder as pathfinder
from repro.core.costs import (
    BendPenaltyCost,
    CongestionPenaltyCost,
    CostModel,
    InvertedCornerCost,
    NegotiatedCongestionCost,
    TimingDrivenCost,
    WirelengthCost,
)
from repro.core.pathfinder import _hop_pricer
from repro.geometry.point import Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment
from repro.layout.layout import MAX_COORDINATE

H = MAX_COORDINATE
SMALL = st.integers(min_value=-40, max_value=40)
COORDS = st.one_of(SMALL, st.sampled_from((-H, -H + 1, H - 1, H)), st.integers(-H, H))
WEIGHTS = st.one_of(
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
    st.integers(min_value=0, max_value=7),
    st.sampled_from((0.1, 1 / 3, 2.5e-7)),
)
OBSTACLES = ObstacleSet(Rect(-H, -H, H, H), [Rect(-10, -10, 10, 10)])


@st.composite
def rects(draw) -> Rect:
    x0, x1 = sorted((draw(COORDS), draw(COORDS)))
    y0, y1 = sorted((draw(COORDS), draw(COORDS)))
    return Rect(x0, y0, x1 + (x0 == x1), y1 + (y0 == y1))


class DetourCost(CostModel):
    """Overrides ``segment_cost`` alone: its ``track_terms`` know nothing of it."""

    def segment_cost(self, seg):
        return float(seg.length) + (0.5 if seg.a.x == seg.b.x else 0.25)


@st.composite
def models(draw) -> CostModel:
    regions = draw(st.lists(st.tuples(rects(), WEIGHTS), max_size=4))
    terms = [
        (rect, draw(st.floats(0, 50)), draw(st.floats(0, 50))) for rect, _ in regions
    ]
    kind = draw(st.sampled_from(("wirelength", "congestion", "negotiated", "timing", "detour")))
    model: CostModel = {
        "wirelength": lambda: WirelengthCost(),
        "congestion": lambda: CongestionPenaltyCost(regions),
        "negotiated": lambda: NegotiatedCongestionCost(terms),
        "timing": lambda: TimingDrivenCost(
            terms, criticality=draw(st.floats(0, 1)), delay_weight=draw(st.floats(0, 4))
        ),
        "detour": lambda: DetourCost(),
    }[kind]()
    for wrapper in draw(st.lists(st.sampled_from(("bend", "corner", "congestion")), max_size=2)):
        if wrapper == "bend":
            model = BendPenaltyCost(0.5, base=model)
        elif wrapper == "corner":
            model = InvertedCornerCost(OBSTACLES, base=model)
        else:
            model = CongestionPenaltyCost(regions, base=model)
    return model


@st.composite
def moves(draw) -> tuple[Point, Point]:
    a = Point(draw(COORDS), draw(COORDS))
    c = draw(COORDS.filter(lambda c: c != a.x and c != a.y))
    b = Point(c, a.y) if draw(st.booleans()) else Point(a.x, c)
    return (a, b) if draw(st.booleans()) else (b, a)


@given(models(), st.lists(moves(), min_size=1, max_size=6))
@settings(max_examples=400, deadline=None)
def test_hop_price_is_the_segment_cost_bit_for_bit(model, hops):
    price = _hop_pricer(model)
    for a, b in hops:
        assert price(a, b).hex() == model.segment_cost(Segment(a, b)).hex()


def test_a_segment_cost_override_is_priced_by_it():
    a, b = Point(0, 0), Point(0, 6)
    for model in (DetourCost(), BendPenaltyCost(0.5, base=DetourCost())):
        assert _hop_pricer(model)(a, b) == 6.5
    assert _hop_pricer(WirelengthCost())(a, b) == 6.0


def test_only_a_model_track_terms_cannot_describe_builds_a_segment(monkeypatch):
    """A plain or region model, wrapped or not, is priced without a
    Segment; an override, or a surcharge on a base the terms do not
    describe, is priced by its segment_cost of a Segment."""
    built = []

    def counted(a, b):
        built.append((a, b))
        return Segment(a, b)

    monkeypatch.setattr(pathfinder, "Segment", counted)
    regions = [(Rect(0, 0, 10, 10), 1.5)]
    a, b = Point(0, 2), Point(20, 2)
    for model in (
        WirelengthCost(),
        CongestionPenaltyCost(regions),
        TimingDrivenCost([(Rect(0, 0, 4, 4), 1.0, 1.0)], criticality=0.5),
        InvertedCornerCost(
            OBSTACLES, base=BendPenaltyCost(0.5, base=CongestionPenaltyCost(regions))
        ),
    ):
        assert _hop_pricer(model)(a, b) == model.segment_cost(Segment(a, b))
    assert not built
    for model in (
        DetourCost(),
        BendPenaltyCost(0.5, base=DetourCost()),
        CongestionPenaltyCost(regions, base=BendPenaltyCost(0.5)),
    ):
        _hop_pricer(model)(a, b)
    assert len(built) == 3
