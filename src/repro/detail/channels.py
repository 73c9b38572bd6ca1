"""Dynamic channel construction.

A *dynamic channel* wraps one interference group in the corridor of
free space available to it: the gap between the nearest cell edges
below and above the group's wires (for a horizontal channel), clipped
to the routing surface.  Unlike classical channel routers, the
corridor is derived from where the wires actually are — "based on net
interference rather than cell placement".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detail.interference import InterferenceGroup, TaggedSegment, group_indices
from repro.geometry.interval import Interval
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.segment import segment_rows

#: Wire x rect cells per broadcast chunk.
_CHUNK = 1 << 18

_I64_MIN, _I64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


@dataclass
class DynamicChannel:
    """An interference group plus its usable corridor.

    Attributes
    ----------
    group:
        The interfering wires (all one orientation).
    horizontal:
        True when member wires are horizontal (tracks are y values).
    corridor:
        Interval of legal track coordinates, or ``None`` when no single
        gap contains every member track (a *broken* corridor: wires sit
        on opposite sides of an intervening cell; such channels keep
        their original tracks).
    """

    group: InterferenceGroup
    horizontal: bool
    corridor: Interval | None

    @property
    def capacity(self) -> int:
        """Unit-pitch tracks available in the corridor (0 when broken)."""
        if self.corridor is None:
            return 0
        return self.corridor.length + 1

    def net_intervals(self) -> dict[str, Interval]:
        """One merged span interval per net — the left-edge input.

        A net occupies a single track for all its wires in the channel,
        so its pieces merge into their hull.
        """
        merged: dict[str, Interval] = {}
        for member in self.group.members:
            span = member.seg.span
            if member.net in merged:
                merged[member.net] = merged[member.net].hull(span)
            else:
                merged[member.net] = span
        return merged


def build_channels(
    tagged: list[TaggedSegment],
    obstacles: ObstacleSet,
    *,
    window: int = 2,
) -> list[DynamicChannel]:
    """Group same-orientation wires and attach corridors.

    *tagged* must contain segments of a single orientation (the
    detailed router runs one pass per orientation).  Groups whose
    corridors and spans overlap are merged: wires sharing one free gap
    compete for the same tracks even when their original tracks were
    far apart, so they must be packed jointly.

    A group's corridor is the intersection of its members' free gaps
    (:func:`free_gaps`, computed once per wire): a track inside it is
    legal for every member, and the stitch stubs between old and new
    tracks stay inside each member's gap by construction.  An empty
    intersection (members in incompatible gaps) is a broken corridor.
    """
    if not tagged:
        return []
    horizontal = tagged[0].seg.is_horizontal
    rows = segment_rows([t.seg for t in tagged])
    gap_lo, gap_hi = free_gaps(rows, horizontal, obstacles)
    _, _, los, his = rows
    groups = group_indices(rows, window)
    members = [[tagged[i] for i in indices] for indices in groups]
    order = np.concatenate(groups)
    starts = np.cumsum([0] + [len(indices) for indices in groups[:-1]])
    corridors = [
        (lo, hi) if lo <= hi else None
        for lo, hi in zip(
            np.maximum.reduceat(gap_lo[order], starts).tolist(),
            np.minimum.reduceat(gap_hi[order], starts).tolist(),
        )
    ]
    hulls = list(
        zip(
            np.minimum.reduceat(los[order], starts).tolist(),
            np.maximum.reduceat(his[order], starts).tolist(),
        )
    )
    survivors = _merge_shared_corridors(members, corridors, hulls)
    return [
        DynamicChannel(
            InterferenceGroup(members[k]),
            horizontal,
            None if corridors[k] is None else Interval(*corridors[k]),
        )
        for k in survivors
    ]


def _merge_shared_corridors(
    members: list[list[TaggedSegment]],
    corridors: list[tuple[int, int] | None],
    hulls: list[tuple[int, int]],
) -> list[int]:
    """Merge channels that would pack into the same space; the survivors.

    Two channels merge when both corridors exist, the corridors
    overlap and the span hulls overlap with positive length.  The
    merge is the first such pair ``i < j`` in row-major order,
    repeated until none is left: ``i`` takes ``j``'s members after its
    own, and ``j`` goes.  The merged corridor is the intersection of
    the two, which is exact: each is the intersection of its members'
    gaps, and they overlap.  The lists are updated in place; the
    return value lists the surviving positions in order.

    Only a channel that has just grown can form a new pair.  So after
    a merge the search looks at that channel's pairs (earlier partners
    first) and otherwise resumes the row scan where it stopped, which
    finds the same pair as restarting the scan from the top.
    """
    count = len(members)
    alive = [True] * count

    def mergeable(i: int, j: int) -> bool:
        if corridors[i] is None or corridors[j] is None:
            return False
        (a_lo, a_hi), (b_lo, b_hi) = corridors[i], corridors[j]
        (h_lo, h_hi), (k_lo, k_hi) = hulls[i], hulls[j]
        return a_lo <= b_hi and b_lo <= a_hi and h_lo < k_hi and k_lo < h_hi

    def absorb(i: int, j: int) -> None:
        (a_lo, a_hi), (b_lo, b_hi) = corridors[i], corridors[j]
        (h_lo, h_hi), (k_lo, k_hi) = hulls[i], hulls[j]
        members[i] = members[i] + members[j]
        corridors[i] = (max(a_lo, b_lo), min(a_hi, b_hi))
        hulls[i] = (min(h_lo, k_lo), max(h_hi, k_hi))
        alive[j] = False

    def first(pairs) -> tuple[int, int] | None:
        return next(
            ((i, j) for i, j in pairs if alive[i] and alive[j] and mergeable(i, j)), None
        )

    grown: int | None = None  # the channel that grew last
    scanned = 0  # rows before this one hold no mergeable pair but grown's
    while True:
        pair = None
        if grown is not None:
            pair = first((i, grown) for i in range(grown)) or first(
                (grown, j) for j in range(grown + 1, count)
            )
        if pair is None:
            pair = first((i, j) for i in range(scanned, count) for j in range(i + 1, count))
            if pair is None:
                break
            scanned = pair[0] + 1
        absorb(*pair)
        grown = pair[0]
    return [k for k in range(count) if alive[k]]


def free_gaps(
    rows: np.ndarray, horizontal: bool, obstacles: ObstacleSet
) -> tuple[np.ndarray, np.ndarray]:
    """Each wire's free gap (in track coordinates) as ``lo, hi`` columns.

    *rows* are :func:`~repro.geometry.segment.segment_rows`.  The
    gap runs between the nearest cell edges below and above the wire
    (left and right of it when *horizontal* is false), among cells
    whose span overlaps the wire's with positive length, clipped to
    the routing surface.  A cell whose top edge is on the wire's track
    bounds it from below.  A wire through a cell interior (illegal
    input) has no gap; neither has one whose bounds cross.  Both show
    as ``lo > hi``.  One int64 broadcast of wires against
    :attr:`ObstacleSet.columns`, chunked to bound its memory.
    """
    _, tracks, los, his = rows
    bound = obstacles.bound
    floor, ceiling = (bound.y0, bound.y1) if horizontal else (bound.x0, bound.x1)
    gap_lo = np.full(len(tracks), floor, dtype=np.int64)
    gap_hi = np.full(len(tracks), ceiling, dtype=np.int64)
    x0, y0, x1, y1 = obstacles.columns
    if not len(x0):
        return gap_lo, gap_hi
    span_lo, span_hi, across_lo, across_hi = (x0, x1, y0, y1) if horizontal else (y0, y1, x0, x1)
    step = max(1, _CHUNK // len(x0))
    for start in range(0, len(tracks), step):
        part = slice(start, start + step)
        track, lo, hi = tracks[part, None], los[part, None], his[part, None]
        beside = (span_lo < hi) & (lo < span_hi)
        below = beside & (across_hi <= track)
        above = beside & ~below & (across_lo >= track)
        crossed = (beside & ~below & ~above).any(axis=1)
        gap_lo[part] = np.where(crossed, _I64_MAX, np.where(below, across_hi, floor).max(axis=1))
        gap_hi[part] = np.where(crossed, _I64_MIN, np.where(above, across_lo, ceiling).min(axis=1))
    return gap_lo, gap_hi
