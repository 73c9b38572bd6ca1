"""Differential parity of the columnar detailed router.

The detailed router reads integer ``(track, lo, hi)`` rows instead of
``Segment`` properties: every wire's free gap is one broadcast against
the obstacle columns, a merged channel's corridor is the intersection
of the two it joins, and the interference pairs, vias and conflicts
come from sorted-array pair lists.  The Python walks they replaced
live on here, verbatim, as the oracles: whatever obstacles and wires
hypothesis draws, the columnar forms must return the same gaps, the
same channels, plans, wires, vias and conflicts, in the same order.

The drawn scenes use a coarse grid so that cell edges and wire tracks
coincide: cells touch, overlap, are L-shaped polygons or degenerate,
and wires run on cell edges, through cell interiors (broken corridors)
and off the surface.  Each scene is then mapped to one of several
coordinate ranges, out to ``±2**62``.
"""

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.verify import detailed_violations, verify_global_route
from repro.api import RouteRequest, route as route_request
from repro.api.result import DetailSummary
from repro.core.route import GlobalRoute, RoutePath, RouteTree
from repro.detail import channels
from repro.detail.channels import DynamicChannel, build_channels, free_gaps
from repro.detail.detailed import ChannelPlan, DetailedResult, DetailedRouter, _assign_channel
from repro.detail.interference import InterferenceGroup, TaggedSegment, interference_groups
from repro.detail.layers import (
    LAYER_HORIZONTAL,
    LAYER_VERTICAL,
    DetailedWire,
    LayerAssignment,
    Via,
    assign_layers,
)
from repro.geometry.interval import Interval
from repro.geometry.orthpoly import OrthoPolygon
from repro.geometry.point import Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment, segment_rows
from repro.layout.cell import Cell
from repro.scenarios import load_corpus

SIZE = 60

#: Coarse coordinates so that cell edges and wire ends coincide.
GRID = tuple(range(0, SIZE + 1, 5))

#: Wire span ends: the grid plus points just off the surface.
ENDS = (-5,) + GRID + (SIZE + 5,)

#: Wire tracks: every integer, so tracks land on edges, between them
#: and inside cells.
TRACKS = tuple(range(-5, SIZE + 6))

_STEP = 2**62 // 35

#: ``(offset, scale)`` maps of the drawn coordinates (``-5..65``): as
#: drawn, spread to ``±2**62``, and pushed against either end.
RANGES = ((0, 1), (-30 * _STEP, _STEP), (2**62 - 65, 1), (-(2**62) + 5, 1))

NETS = ("a", "b", "c", "d")


# ----------------------------------------------------------------------
# The scalar oracles: the Python walks the columnar forms replaced.
# ----------------------------------------------------------------------
def scalar_member_gap(seg, horizontal: bool, obstacles: ObstacleSet) -> Interval | None:
    """The free gap (in track coordinates) containing one wire."""
    track = seg.track
    span = seg.span
    bound = obstacles.bound
    lo = bound.y0 if horizontal else bound.x0
    hi = bound.y1 if horizontal else bound.x1
    for rect in obstacles.rects:
        rect_span = rect.x_span if horizontal else rect.y_span
        if not rect_span.overlaps(span, strict=True):
            continue
        rect_lo = rect.y0 if horizontal else rect.x0
        rect_hi = rect.y1 if horizontal else rect.x1
        if rect_hi <= track:
            lo = max(lo, rect_hi)
        elif rect_lo >= track:
            hi = min(hi, rect_lo)
        else:  # the wire crosses a cell interior: illegal input
            return None
    if lo > hi:
        return None
    return Interval(lo, hi)


def scalar_corridor(
    group: InterferenceGroup, horizontal: bool, obstacles: ObstacleSet
) -> Interval | None:
    corridor: Interval | None = None
    for member in group.members:
        gap = scalar_member_gap(member.seg, horizontal, obstacles)
        if gap is None:
            return None
        corridor = gap if corridor is None else corridor.intersection(gap)
        if corridor is None:
            return None
    return corridor


def scalar_merge_shared_corridors(
    channels: list[DynamicChannel],
    horizontal: bool,
    obstacles: ObstacleSet,
) -> list[DynamicChannel]:
    merged = True
    while merged:
        merged = False
        for i in range(len(channels)):
            for j in range(i + 1, len(channels)):
                a, b = channels[i], channels[j]
                if a.corridor is None or b.corridor is None:
                    continue
                if not a.corridor.overlaps(b.corridor):
                    continue
                if not a.group.span_hull.overlaps(b.group.span_hull, strict=True):
                    continue
                joint = InterferenceGroup(a.group.members + b.group.members)
                channels[i] = DynamicChannel(
                    joint, horizontal, scalar_corridor(joint, horizontal, obstacles)
                )
                channels.pop(j)
                merged = True
                break
            if merged:
                break
    return channels


def scalar_interfere(a: Segment, b: Segment, *, window: int) -> bool:
    if a.is_horizontal != b.is_horizontal:
        return False
    if abs(a.track - b.track) > window:
        return False
    return a.span.overlaps(b.span, strict=True)


def scalar_interference_groups(
    tagged: list[TaggedSegment], *, window: int = 2
) -> list[InterferenceGroup]:
    n = len(tagged)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    # Sort by track so only nearby tracks need pairwise checks.
    order = sorted(range(n), key=lambda i: tagged[i].seg.track)
    for a_pos in range(n):
        i = order[a_pos]
        for b_pos in range(a_pos + 1, n):
            j = order[b_pos]
            if tagged[j].seg.track - tagged[i].seg.track > window:
                break
            if scalar_interfere(tagged[i].seg, tagged[j].seg, window=window):
                union(i, j)

    components: dict[int, list[TaggedSegment]] = {}
    for i in range(n):
        components.setdefault(find(i), []).append(tagged[i])
    groups = [InterferenceGroup(members) for members in components.values()]
    groups.sort(key=lambda g: (min(m.seg.track for m in g.members), g.span_hull.lo))
    return groups


def scalar_build_channels(
    tagged: list[TaggedSegment], obstacles: ObstacleSet, *, window: int = 2
) -> list[DynamicChannel]:
    if not tagged:
        return []
    horizontal = tagged[0].seg.is_horizontal
    groups = scalar_interference_groups(tagged, window=window)
    channels = [
        DynamicChannel(group, horizontal, scalar_corridor(group, horizontal, obstacles))
        for group in groups
    ]
    return scalar_merge_shared_corridors(channels, horizontal, obstacles)


def scalar_place_vias(result: LayerAssignment) -> None:
    by_net: dict[str, list[DetailedWire]] = {}
    for wire in result.wires:
        by_net.setdefault(wire.net, []).append(wire)
    seen: set[tuple[str, Point]] = set()
    for net, wires in sorted(by_net.items()):
        horizontals = [w for w in wires if w.layer == LAYER_HORIZONTAL]
        verticals = [w for w in wires if w.layer == LAYER_VERTICAL]
        for h in horizontals:
            for v in verticals:
                touch = h.seg.crossing_point(v.seg)
                if touch is not None and (net, touch) not in seen:
                    seen.add((net, touch))
                    result.vias.append(Via(net, touch))


def scalar_audit_conflicts(result: LayerAssignment) -> None:
    by_layer: dict[int, list[DetailedWire]] = {}
    for wire in result.wires:
        by_layer.setdefault(wire.layer, []).append(wire)
    for wires in by_layer.values():
        wires.sort(key=lambda w: (w.seg.track, w.seg.span.lo))
        for i in range(len(wires)):
            for j in range(i + 1, len(wires)):
                a, b = wires[i], wires[j]
                if b.seg.track != a.seg.track:
                    break  # sorted by track: no further overlaps for i
                if a.net == b.net:
                    continue
                if a.seg.span.overlaps(b.seg.span, strict=True):
                    result.conflicts.append((a, b))


def scalar_assign_layers(tagged_segments) -> LayerAssignment:
    result = LayerAssignment()
    for net, seg in tagged_segments:
        if seg.is_degenerate:
            continue
        layer = LAYER_HORIZONTAL if seg.is_horizontal else LAYER_VERTICAL
        result.wires.append(DetailedWire(net, seg, layer))

    scalar_place_vias(result)
    scalar_audit_conflicts(result)
    return result


def scalar_detailed(route: GlobalRoute, obstacles: ObstacleSet, *, window: int = 2):
    """``DetailedRouter.run`` over the oracles (channel packing is shared)."""
    horizontals: list[TaggedSegment] = []
    verticals: list[TaggedSegment] = []
    for net_name, seg in route.all_segments():
        if seg.is_degenerate:
            continue
        if seg.is_horizontal:
            horizontals.append(TaggedSegment(net_name, seg))
        else:
            verticals.append(TaggedSegment(net_name, seg))

    plans: list[ChannelPlan] = []
    final_wires: list[tuple[str, Segment]] = []
    for tagged in (horizontals, verticals):
        if not tagged:
            continue
        for channel in scalar_build_channels(tagged, obstacles, window=window):
            plan, wires = _assign_channel(channel)
            plans.append(plan)
            final_wires.extend(wires)
    return DetailedResult(scalar_assign_layers(final_wires), plans)


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def assert_same_detailed(result: DetailedResult, oracle: DetailedResult) -> None:
    """Plans and layers equal, every list and track map in the same order."""
    assert len(result.channels) == len(oracle.channels)
    for plan, expected in zip(result.channels, oracle.channels):
        assert plan == expected
        assert list(plan.track_of_net.items()) == list(expected.track_of_net.items())
    assert result.layers == oracle.layers
    assert DetailSummary.from_detailed(result) == DetailSummary.from_detailed(oracle)


# ----------------------------------------------------------------------
# Scenes
# ----------------------------------------------------------------------
def cell_rects(draw) -> list[tuple[int, int, int, int]]:
    """One cell's blocking rects: a box, an L-shaped polygon or a sliver."""
    kind = draw(st.sampled_from(("box", "l-shape", "degenerate")))
    if kind == "l-shape":
        size = draw(st.sampled_from((10, 15, 20)))
        notch = draw(st.sampled_from([n for n in (5, 10) if n < size]))
        x = draw(st.sampled_from([g for g in GRID if g + size <= SIZE]))
        y = draw(st.sampled_from([g for g in GRID if g + size <= SIZE]))
        arm = size - notch
        shape = OrthoPolygon(
            [
                Point(x, y),
                Point(x + size, y),
                Point(x + size, y + arm),
                Point(x + arm, y + arm),
                Point(x + arm, y + size),
                Point(x, y + size),
            ]
        )
        return [(r.x0, r.y0, r.x1, r.y1) for r in Cell("l", shape).blocking_rects]
    x0, x1 = sorted(draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=2)))
    y0, y1 = sorted(draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=2)))
    if kind == "degenerate":
        if draw(st.booleans()):
            x1 = x0
        else:
            y1 = y0
    return [(x0, y0, x1, y1)]


def wires(draw, horizontal: bool) -> list[tuple[str, Segment]]:
    count = draw(st.integers(min_value=0, max_value=12))
    drawn = []
    for _ in range(count):
        net = draw(st.sampled_from(NETS))
        track = draw(st.sampled_from(TRACKS))
        lo, hi = sorted(draw(st.lists(st.sampled_from(ENDS), min_size=2, max_size=2)))
        if hi == lo and draw(st.booleans()):
            hi = lo + 5
        seg = Segment.horizontal(track, lo, hi) if horizontal else Segment.vertical(track, lo, hi)
        drawn.append((net, seg))
    return drawn


def mapped(offset: int, scale: int):
    def point(x: int, y: int) -> Point:
        return Point(offset + x * scale, offset + y * scale)

    def segment(seg: Segment) -> Segment:
        return Segment(point(seg.a.x, seg.a.y), point(seg.b.x, seg.b.y))

    def rect(x0, y0, x1, y1) -> Rect:
        a, b = point(x0, y0), point(x1, y1)
        return Rect(a.x, a.y, b.x, b.y)

    return segment, rect


def obstacle_set(draw, rect) -> ObstacleSet:
    count = draw(st.integers(min_value=0, max_value=6))
    cells = [rect(*box) for _ in range(count) for box in cell_rects(draw)]
    return ObstacleSet(rect(0, 0, SIZE, SIZE), cells)


def interaction_window(draw, scale: int) -> int:
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return 2**63 - 1
    return draw(st.sampled_from((-1, 0, 1, 2, 5, 10))) * scale


@st.composite
def scenes(draw, orientations=(True, False)):
    """``(obstacles, (net, wire) pairs, window)`` in one coordinate range."""
    offset, scale = draw(st.sampled_from(RANGES))
    segment, rect = mapped(offset, scale)
    obstacles = obstacle_set(draw, rect)
    tagged = []
    for horizontal in orientations:
        tagged.extend((net, segment(seg)) for net, seg in wires(draw, horizontal))
    return obstacles, tagged, interaction_window(draw, scale)


@st.composite
def one_orientation(draw):
    horizontal = draw(st.booleans())
    obstacles, tagged, window = draw(scenes(orientations=(horizontal,)))
    return obstacles, [TaggedSegment(net, seg) for net, seg in tagged], window, horizontal


@st.composite
def routes(draw):
    """Obstacles and a hand-drawn route: rectilinear polylines per net."""
    offset, scale = draw(st.sampled_from(RANGES))
    _, rect = mapped(offset, scale)
    obstacles = obstacle_set(draw, rect)
    route = GlobalRoute()
    for net in draw(st.lists(st.sampled_from(NETS), max_size=4, unique=True)):
        paths = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            x, y = draw(st.sampled_from(ENDS)), draw(st.sampled_from(ENDS))
            points = [Point(x, y)]
            for hop in range(draw(st.integers(min_value=0, max_value=4))):
                coord = draw(st.sampled_from(TRACKS if hop % 2 else ENDS))
                last = points[-1]
                points.append(Point(coord, last.y) if hop % 2 == 0 else Point(last.x, coord))
            paths.append(
                RoutePath(tuple(Point(offset + p.x * scale, offset + p.y * scale) for p in points))
            )
        route.trees[net] = RouteTree(net, paths)
    return obstacles, route, interaction_window(draw, scale)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
class TestGapParity:
    @given(one_orientation())
    @settings(max_examples=300, deadline=None)
    def test_same_gap_per_wire(self, scene):
        obstacles, tagged, _, horizontal = scene
        rows = segment_rows([t.seg for t in tagged])
        expected = [scalar_member_gap(t.seg, horizontal, obstacles) for t in tagged]
        # The default chunk holds every drawn scene; a tiny one splits it.
        for chunk in (channels._CHUNK, 3):
            with mock.patch.object(channels, "_CHUNK", chunk):
                gap_lo, gap_hi = free_gaps(rows, horizontal, obstacles)
            gaps = [
                Interval(lo, hi) if lo <= hi else None
                for lo, hi in zip(gap_lo.tolist(), gap_hi.tolist())
            ]
            assert gaps == expected


class TestChannelParity:
    @given(scenes())
    @settings(max_examples=200, deadline=None)
    def test_same_groups_in_the_same_order(self, scene):
        _, tagged, window = scene
        tagged = [TaggedSegment(net, seg) for net, seg in tagged]
        assert interference_groups(tagged, window=window) == scalar_interference_groups(
            tagged, window=window
        )

    @given(one_orientation())
    @settings(max_examples=300, deadline=None)
    def test_same_channels_in_the_same_order(self, scene):
        obstacles, tagged, window, _ = scene
        assert build_channels(tagged, obstacles, window=window) == scalar_build_channels(
            tagged, obstacles, window=window
        )


class TestLayerParity:
    @given(scenes())
    @settings(max_examples=300, deadline=None)
    def test_same_wires_vias_and_conflicts(self, scene):
        _, tagged, _ = scene
        result = assign_layers(tagged)
        oracle = scalar_assign_layers(tagged)
        assert result.wires == oracle.wires
        assert result.vias == oracle.vias
        assert result.conflicts == oracle.conflicts


class TestDetailedParity:
    @given(routes())
    @settings(max_examples=150, deadline=None)
    def test_same_detailed_result(self, scene):
        obstacles, route, window = scene
        router = DetailedRouter(SimpleNamespace(obstacles=lambda: obstacles), window=window)
        assert_same_detailed(router.run(route), scalar_detailed(route, obstacles, window=window))

    @pytest.mark.parametrize("strategy", ["single", "two-pass", "negotiated", "timing-driven"])
    def test_corpus_wide(self, strategy):
        """Every corpus scenario's route, detailed both ways, via the pipeline."""
        for scenario in load_corpus():
            layout = scenario.layout
            outcome = route_request(RouteRequest(layout=layout, strategy=strategy, detail=True))
            result = DetailedRouter(layout).run(outcome.route)
            oracle = scalar_detailed(outcome.route, layout.obstacles())
            assert_same_detailed(result, oracle)
            assert outcome.detail_summary == DetailSummary.from_detailed(oracle)
            oracle_violations = verify_global_route(outcome.route, layout)
            for net, message in detailed_violations(oracle, layout):
                oracle_violations.setdefault(net, []).append(message)
            assert outcome.violations == oracle_violations
