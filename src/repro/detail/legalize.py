"""Conflict legalization: a repair pass after track assignment.

Residual same-layer overlaps (mostly wires of over-capacity channels
that kept their original tracks) are repaired greedily: for each
conflicting pair, try to slide one wire to a nearby free track inside
its corridor gap, stitching the displacement with perpendicular stubs.
The repaired design is re-audited from scratch; if the repair did not
strictly reduce conflicts it is discarded, so legalization never makes
a design worse.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.detail.channels import free_gaps
from repro.detail.detailed import DetailedResult
from repro.detail.interference import segment_rows
from repro.detail.layers import DetailedWire, assign_layers
from repro.geometry.point import Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.segment import Segment

#: Maximum displacement attempted per wire, in tracks.
MAX_SLIDE = 4


@dataclass
class LegalizeResult:
    """Outcome of a legalization pass."""

    design: DetailedResult
    conflicts_before: int
    conflicts_after: int
    moves: int

    @property
    def repaired(self) -> int:
        """Conflicts removed by the pass."""
        return self.conflicts_before - self.conflicts_after


def legalize(result: DetailedResult, obstacles: ObstacleSet) -> LegalizeResult:
    """Attempt to repair same-layer conflicts of *result*.

    Returns the repaired design (or the original, when no strict
    improvement was possible) plus before/after counts.
    """
    before = result.conflict_count
    if before == 0:
        return LegalizeResult(result, 0, 0, 0)

    wires: list[tuple[str, Segment]] = [(w.net, w.seg) for w in result.layers.wires]
    moves = 0
    for a, b in result.layers.conflicts:
        victim = _pick_victim(a, b)
        new_track = _free_track_for(victim, wires, obstacles)
        if new_track is None:
            continue
        moved, stub_a, stub_b = _slide(victim, new_track)
        try:
            index = wires.index((victim.net, victim.seg))
        except ValueError:
            continue  # already moved while fixing an earlier pair
        wires[index] = (victim.net, moved)
        for stub in (stub_a, stub_b):
            if not stub.is_degenerate:
                wires.append((victim.net, stub))
        moves += 1

    repaired_layers = assign_layers(wires)
    if repaired_layers.conflict_count >= before:
        return LegalizeResult(result, before, before, 0)
    repaired = DetailedResult(
        repaired_layers, result.channels, elapsed_seconds=result.elapsed_seconds
    )
    return LegalizeResult(repaired, before, repaired_layers.conflict_count, moves)


def _pick_victim(a: DetailedWire, b: DetailedWire) -> DetailedWire:
    """Move the shorter wire (cheaper stubs, less chance of new overlap)."""
    return a if a.seg.length <= b.seg.length else b


def _free_track_for(
    wire: DetailedWire,
    wires: list[tuple[str, Segment]],
    obstacles: ObstacleSet,
) -> int | None:
    """Nearest legal track for *wire* with no different-net overlap."""
    gap_lo, gap_hi = free_gaps(segment_rows([wire.seg]), wire.seg.is_horizontal, obstacles)
    lo, hi = int(gap_lo[0]), int(gap_hi[0])
    if lo > hi:
        return None
    track = wire.seg.track
    for magnitude in range(1, MAX_SLIDE + 1):
        for delta in (magnitude, -magnitude):
            candidate = track + delta
            if not lo <= candidate <= hi:
                continue
            if _free_at_track(wire, candidate, wires):
                return candidate
    return None


def _free_at_track(wire: DetailedWire, track: int, wires: list[tuple[str, Segment]]) -> bool:
    """No different-net same-orientation wire overlaps at *track*."""
    for net, seg in wires:
        if net == wire.net:
            continue
        if seg.is_horizontal != wire.seg.is_horizontal or seg.is_degenerate:
            continue
        if seg.track == track and seg.span.overlaps(wire.seg.span, strict=True):
            return False
    return True


def _slide(wire: DetailedWire, new_track: int) -> tuple[Segment, Segment, Segment]:
    """The moved segment plus the two stitch stubs."""
    seg = wire.seg
    old = seg.track
    if seg.is_horizontal:
        moved = Segment(Point(seg.a.x, new_track), Point(seg.b.x, new_track))
        stub_a = Segment(Point(seg.a.x, old), Point(seg.a.x, new_track))
        stub_b = Segment(Point(seg.b.x, old), Point(seg.b.x, new_track))
    else:
        moved = Segment(Point(new_track, seg.a.y), Point(new_track, seg.b.y))
        stub_a = Segment(Point(old, seg.a.y), Point(new_track, seg.a.y))
        stub_b = Segment(Point(old, seg.b.y), Point(new_track, seg.b.y))
    return moved, stub_a, stub_b
