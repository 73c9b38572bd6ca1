"""Two-layer assignment with vias.

The simplest production-credible scheme of the era: horizontal wires
on layer 1, vertical wires on layer 2, a via wherever a net's wires
meet across layers.  The assignment also audits itself: any two
same-layer wires of *different* nets overlapping with positive length
is a conflict (the detailed router's quality metric).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.detail.interference import range_pairs, window_pairs
from repro.geometry.point import Point
from repro.geometry.segment import Segment, segment_rows

LAYER_HORIZONTAL = 1
LAYER_VERTICAL = 2


@dataclass(frozen=True)
class DetailedWire:
    """A physical wire on a specific layer."""

    net: str
    seg: Segment
    layer: int


@dataclass(frozen=True)
class Via:
    """A layer-1/layer-2 connection point of one net."""

    net: str
    at: Point


@dataclass
class LayerAssignment:
    """Wires, vias, and same-layer conflicts of a detailed design."""

    wires: list[DetailedWire] = field(default_factory=list)
    vias: list[Via] = field(default_factory=list)
    conflicts: list[tuple[DetailedWire, DetailedWire]] = field(default_factory=list)

    @property
    def via_count(self) -> int:
        """Total vias."""
        return len(self.vias)

    @property
    def total_wirelength(self) -> int:
        """Total physical wirelength."""
        return sum(w.seg.length for w in self.wires)

    @property
    def conflict_count(self) -> int:
        """Same-layer different-net overlap pairs."""
        return len(self.conflicts)


def assign_layers(tagged_segments: Iterable[tuple[str, Segment]]) -> LayerAssignment:
    """Assign layers, place vias, and audit same-layer overlaps.

    Degenerate segments are dropped (they carry no metal).  Horizontal
    wires land on layer 1, vertical on layer 2.  A via is placed at
    every point where two wires of the same net on different layers
    touch.
    """
    tagged = list(tagged_segments)
    rows = segment_rows([seg for _, seg in tagged])
    kept = rows[2] < rows[3]  # a degenerate segment has lo == hi
    result = LayerAssignment()
    for (net, seg), keep, flat in zip(tagged, kept.tolist(), rows[0].tolist()):
        if keep:
            result.wires.append(
                DetailedWire(net, seg, LAYER_HORIZONTAL if flat else LAYER_VERTICAL)
            )
    rows = rows[:, kept]

    _place_vias(result, rows)
    _audit_conflicts(result, rows)
    return result


def _place_vias(result: LayerAssignment, rows: np.ndarray) -> None:
    """A via at each same-net cross-layer touch point.

    Nets in name order; in each, every horizontal wire against every
    vertical one, both in wire order.  A horizontal and a vertical
    wire touch at ``(vertical track, horizontal track)`` when that
    point lies on both closed spans.  *rows* are the wires'
    :func:`segment_rows`; every net's (horizontal, vertical) pairs are
    listed and tested in one pass over the columns.
    """
    horizontal, tracks, los, his = rows
    names = sorted({wire.net for wire in result.wires})
    rank_of = {net: rank for rank, net in enumerate(names)}
    ranks = np.array([rank_of[wire.net] for wire in result.wires], dtype=np.int64)
    flat = horizontal == 1
    h = np.flatnonzero(flat)
    h = h[np.argsort(ranks[h], kind="stable")]
    v = np.flatnonzero(~flat)
    v = v[np.argsort(ranks[v], kind="stable")]
    # The vertical wires of each horizontal wire's net: one run of v.
    first, second = range_pairs(
        np.searchsorted(ranks[v], ranks[h], side="left"),
        np.searchsorted(ranks[v], ranks[h], side="right"),
    )
    h, v = h[first], v[second]
    touch = (
        (los[h] <= tracks[v]) & (tracks[v] <= his[h])
        & (los[v] <= tracks[h]) & (tracks[h] <= his[v])
    )
    seen: set[tuple[int, int, int]] = set()
    for rank, x, y in zip(
        ranks[h[touch]].tolist(), tracks[v[touch]].tolist(), tracks[h[touch]].tolist()
    ):
        if (rank, x, y) not in seen:
            seen.add((rank, x, y))
            result.vias.append(Via(names[rank], Point(x, y)))


def _audit_conflicts(result: LayerAssignment, rows: np.ndarray) -> None:
    """Record same-layer different-net positive-length overlaps.

    Per layer (in order of first wire), the wires sorted by track and
    then span start, stably; every pair on one track in that order.
    *rows* are the wires' :func:`segment_rows`.
    """
    _, tracks, los, his = rows
    wires = result.wires
    net_ids: dict[str, int] = {}
    nets = np.array([net_ids.setdefault(w.net, len(net_ids)) for w in wires], dtype=np.int64)
    layers = np.array([w.layer for w in wires], dtype=np.int64)
    for layer in dict.fromkeys(layers.tolist()):
        same = np.flatnonzero(layers == layer)
        same = same[np.lexsort((los[same], tracks[same]))]
        first, second = window_pairs(tracks[same], 0)
        a, b = same[first], same[second]
        hit = (nets[a] != nets[b]) & (los[a] < his[b]) & (los[b] < his[a])
        result.conflicts.extend(
            (wires[i], wires[j]) for i, j in zip(a[hit].tolist(), b[hit].tolist())
        )
