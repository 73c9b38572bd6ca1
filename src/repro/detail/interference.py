"""Net interference detection.

Two parallel global wires *interfere* when they would compete for
tracks in the same corridor: their spans overlap (with positive
length) and their track coordinates are within an interaction window.
Connected components of the interference relation are the paper's
"dynamically assigned channels ... based on net interference rather
than cell placement".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.interval import Interval
from repro.geometry.segment import Segment, segment_rows

_I64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class TaggedSegment:
    """A global wire segment with its owning net."""

    net: str
    seg: Segment


@dataclass
class InterferenceGroup:
    """One connected component of interfering parallel wires."""

    members: list[TaggedSegment]

    @property
    def nets(self) -> set[str]:
        """Distinct nets present in the group."""
        return {m.net for m in self.members}

    @property
    def span_hull(self) -> Interval:
        """Hull of all member spans (the channel's length extent)."""
        spans = [m.seg.span for m in self.members]
        return Interval(min(s.lo for s in spans), max(s.hi for s in spans))


def interfere(a: Segment, b: Segment, *, window: int) -> bool:
    """Whether two same-orientation segments compete for tracks.

    ``window`` is the maximum track distance at which two wires still
    constrain each other (the channel pitch neighbourhood).
    """
    if a.is_horizontal != b.is_horizontal:
        return False
    if abs(a.track - b.track) > window:
        return False
    return a.span.overlaps(b.span, strict=True)


def window_pairs(tracks: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Every position pair ``a < b`` of ascending *tracks* within *window*.

    ``tracks[b] - tracks[a] <= window``, in row-major order: ``a``
    ascending, then ``b``.  These are the pairs the sorted pairwise
    walk visits before its ``> window`` break.  The limit saturates at
    the int64 maximum instead of wrapping.
    """
    if window < 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    window = min(window, _I64_MAX)
    limits = np.minimum(tracks, _I64_MAX - window) + window
    ends = np.searchsorted(tracks, limits, side="right")
    return range_pairs(np.arange(1, len(tracks) + 1), ends)


def range_pairs(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(a, b)`` with ``starts[a] <= b < ends[a]``, in row-major order."""
    counts = np.maximum(ends - starts, 0)
    firsts = np.repeat(np.arange(len(counts)), counts)
    offsets = np.arange(len(firsts)) - np.repeat(np.cumsum(counts) - counts, counts)
    return firsts, np.repeat(starts, counts) + offsets


def interference_groups(
    tagged: list[TaggedSegment], *, window: int = 2
) -> list[InterferenceGroup]:
    """Partition same-orientation wires into interference components.

    Connected components of the pairwise :func:`interfere` relation.
    Singleton groups (wires constraining nobody) are returned too —
    they become single-track channels.
    """
    rows = segment_rows([t.seg for t in tagged])
    return [
        InterferenceGroup([tagged[i] for i in members])
        for members in group_indices(rows, window)
    ]


def group_indices(rows: np.ndarray, window: int) -> list[list[int]]:
    """Member indices of each interference component, in output order.

    *rows* are :func:`segment_rows`.  Members keep input order; the
    components are ordered by their lowest track, then their lowest
    span end, ties in order of first member.
    """
    horizontal, tracks, los, his = rows
    n = len(tracks)
    # Sort by track so only nearby tracks pair up.
    order = np.argsort(tracks, kind="stable")
    first, second = window_pairs(tracks[order], window)
    i, j = order[first], order[second]
    hit = (horizontal[i] == horizontal[j]) & (los[i] < his[j]) & (los[j] < his[i])

    parent = list(range(n))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for a, b in zip(i[hit].tolist(), j[hit].tolist()):
        parent[find(b)] = find(a)
    # Components in order of their first member, before the stable sort.
    components: dict[int, list[int]] = {}
    for k in range(n):
        components.setdefault(find(k), []).append(k)
    track_of, lo_of = tracks.tolist(), los.tolist()
    return sorted(
        components.values(),
        key=lambda members: (
            min(track_of[k] for k in members),
            min(lo_of[k] for k in members),
        ),
    )
