"""The detailed router: channels, tracks, layers, audit.

Pipeline (one pass per orientation):

1. Collect the global route's wires of one orientation.
2. Group them into dynamic channels by net interference.
3. Left-edge assign one track per net inside each channel's corridor.
4. Move wires to their tracks; add stitch stubs at moved endpoints so
   electrical connectivity is preserved by construction.
5. Assign layers (H → 1, V → 2), place vias, audit conflicts.

Channels whose corridor is broken or over capacity keep their original
tracks and are reported, not silently "fixed" — the result object
carries every quality metric a downstream user would gate on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.route import GlobalRoute
from repro.detail.channels import DynamicChannel, build_channels
from repro.detail.interference import TaggedSegment
from repro.detail.layers import LayerAssignment, assign_layers
from repro.detail.leftedge import left_edge_assign
from repro.geometry.point import Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.segment import Segment
from repro.layout.layout import Layout


@dataclass
class ChannelPlan:
    """One channel's assignment outcome."""

    channel: DynamicChannel
    track_of_net: dict[str, int] = field(default_factory=dict)
    track_count: int = 0
    over_capacity: bool = False
    kept_original: bool = False

    @property
    def net_count(self) -> int:
        """Nets sharing this channel."""
        return len(self.channel.group.nets)


@dataclass
class DetailedResult:
    """Everything the detailed phase produced.

    ``layers`` holds the physical wires/vias/conflicts; the channel
    plans record how each dynamic channel was packed.
    """

    layers: LayerAssignment
    channels: list[ChannelPlan] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def track_total(self) -> int:
        """Summed track counts over all channels."""
        return sum(plan.track_count for plan in self.channels)

    @property
    def channel_count(self) -> int:
        """Number of dynamic channels."""
        return len(self.channels)

    @property
    def over_capacity_channels(self) -> int:
        """Channels whose corridor could not hold their tracks."""
        return sum(1 for plan in self.channels if plan.over_capacity)

    @property
    def total_wirelength(self) -> int:
        """Physical wirelength including stitch stubs."""
        return self.layers.total_wirelength

    @property
    def via_count(self) -> int:
        """Total vias."""
        return self.layers.via_count

    @property
    def conflict_count(self) -> int:
        """Residual same-layer different-net overlaps."""
        return self.layers.conflict_count


class DetailedRouter:
    """Runs the detailed phase over a layout's global route."""

    def __init__(self, layout: Layout, *, window: int = 2):
        self.layout = layout
        self.window = window
        self.obstacles: ObstacleSet = layout.obstacles()

    def run(self, route: GlobalRoute) -> DetailedResult:
        """Track-assign and layer-assign *route*."""
        started = time.perf_counter()
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
            channels = build_channels(tagged, self.obstacles, window=self.window)
            for channel in channels:
                plan, wires = _assign_channel(channel)
                plans.append(plan)
                final_wires.extend(wires)

        layers = assign_layers(final_wires)
        result = DetailedResult(layers, plans)
        result.elapsed_seconds = time.perf_counter() - started
        return result


def _assign_channel(channel: DynamicChannel) -> tuple[ChannelPlan, list[tuple[str, Segment]]]:
    """Pack one channel; return its plan and the (moved) wires + stubs."""
    plan = ChannelPlan(channel)
    intervals = channel.net_intervals()
    assignment = left_edge_assign(intervals)
    plan.track_count = assignment.track_count

    if channel.corridor is None or assignment.track_count > channel.capacity:
        # Broken or overfull corridor: report and keep original tracks.
        plan.over_capacity = channel.corridor is not None
        plan.kept_original = True
        plan.track_of_net = assignment.track_of
        wires = [(m.net, m.seg) for m in channel.group.members]
        return plan, wires

    plan.track_of_net = _order_and_place_tracks(channel, assignment)
    wires: list[tuple[str, Segment]] = []
    for member in channel.group.members:
        new_track = plan.track_of_net[member.net]
        if new_track == member.seg.track:
            wires.append((member.net, member.seg))
        else:
            wires.extend((member.net, seg) for seg in moved_with_stubs(member.seg, new_track))
    return plan, wires


def _order_and_place_tracks(channel: DynamicChannel, assignment) -> dict[str, int]:
    """Map LEA track indices to concrete coordinates.

    Two refinements keep stitch stubs short and rarely crossing:
    the LEA tracks are reordered to match the wires' original vertical
    order (left-edge packing is order-agnostic, so any permutation of
    its tracks is equally valid), and the whole track block is centred
    on the original tracks instead of sitting at the corridor floor.
    """
    original_track: dict[str, float] = {}
    counts: dict[str, int] = {}
    for member in channel.group.members:
        original_track[member.net] = original_track.get(member.net, 0) + member.seg.track
        counts[member.net] = counts.get(member.net, 0) + 1
    for net in original_track:
        original_track[net] /= counts[net]

    # Average original track per LEA track index, then rank the indices.
    track_mean: dict[int, list[float]] = {}
    for net, index in assignment.track_of.items():
        track_mean.setdefault(index, []).append(original_track[net])
    ranked = sorted(track_mean, key=lambda idx: (sum(track_mean[idx]) / len(track_mean[idx]), idx))
    rank_of = {index: rank for rank, index in enumerate(ranked)}

    corridor = channel.corridor
    assert corridor is not None
    count = assignment.track_count
    center = sum(original_track.values()) / len(original_track)
    base = round(center - (count - 1) / 2)
    base = max(corridor.lo, min(base, corridor.hi - count + 1))
    return {
        net: base + rank_of[assignment.track_of[net]] for net in assignment.track_of
    }


def moved_with_stubs(seg: Segment, new_track: int) -> tuple[Segment, Segment, Segment]:
    """*seg* moved to *new_track*, then the stubs stitching its old ends.

    The stubs are perpendicular wires from each original endpoint to
    the moved wire, preserving connectivity to pins and to the net's
    perpendicular wires without rewriting them.  Track assignment and
    conflict legalization both move wires this way.
    """
    old_track = seg.track
    if seg.is_horizontal:
        moved = Segment(Point(seg.a.x, new_track), Point(seg.b.x, new_track))
        stub_a = Segment(Point(seg.a.x, old_track), Point(seg.a.x, new_track))
        stub_b = Segment(Point(seg.b.x, old_track), Point(seg.b.x, new_track))
    else:
        moved = Segment(Point(new_track, seg.a.y), Point(new_track, seg.b.y))
        stub_a = Segment(Point(old_track, seg.a.y), Point(new_track, seg.a.y))
        stub_b = Segment(Point(old_track, seg.b.y), Point(new_track, seg.b.y))
    return moved, stub_a, stub_b
