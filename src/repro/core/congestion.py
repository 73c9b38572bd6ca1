"""Passage congestion: detection, measurement, penalty regions.

From the Conclusions: "a cost function may be associated with what is
called channel congestion.  Since there are no channels the term is
slightly abused, but it refers here to congested passages between
adjacent cells.  A first-pass route of all nets would reveal congested
areas.  These congested areas would manifest themselves in the form of
several nets hugging the edge of a cell which was close to an adjacent
cell.  A second route of the affected nets could penalize those paths
which chose the congested area."

A *passage* is the rectangular corridor between two facing cell edges
(or between a cell edge and the routing boundary) with no third cell
in between.  Its capacity is the number of unit-pitch wire tracks that
fit across the gap — ``gap + 1``, counting the two hugging positions
on the cell boundaries themselves.  Usage counts distinct nets running
*through* the passage parallel to its flow direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.core.route import GlobalRoute
from repro.errors import RoutingError
from repro.geometry.point import Axis
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment
from repro.layout.layout import Layout

#: Pseudo cell name for passages against the routing boundary.
BOUNDARY = "<boundary>"


@dataclass(frozen=True)
class Passage:
    """A corridor between two facing cell edges.

    Attributes
    ----------
    region:
        The corridor rectangle (closed; its long sides lie on the two
        facing boundaries).
    flow:
        Axis along which wires pass *through* the corridor:
        ``Axis.Y`` for a corridor between horizontally adjacent cells.
    between:
        Names of the two cells (or :data:`BOUNDARY`).
    """

    region: Rect
    flow: Axis
    between: tuple[str, str]

    @property
    def gap(self) -> int:
        """Distance between the two facing edges."""
        return self.region.width if self.flow is Axis.Y else self.region.height

    @property
    def capacity(self) -> int:
        """Unit-pitch wire tracks across the gap (both hug positions count)."""
        return self.gap + 1

    @property
    def length(self) -> int:
        """Extent of the corridor along its flow axis."""
        return self.region.height if self.flow is Axis.Y else self.region.width

    def carries(self, seg: Segment) -> bool:
        """Whether *seg* flows through the passage.

        A carrying segment is parallel to the flow axis, lies within
        the corridor across the gap (hugging the facing edges counts),
        and overlaps the corridor's flow extent with positive length.
        """
        if seg.is_degenerate:
            return False
        if self.flow is Axis.Y:
            if not seg.is_vertical or seg.is_horizontal:
                return False
            if not self.region.x_span.contains(seg.a.x):
                return False
            return seg.span.overlaps(self.region.y_span, strict=True)
        if not seg.is_horizontal or seg.is_vertical:
            return False
        if not self.region.y_span.contains(seg.a.y):
            return False
        return seg.span.overlaps(self.region.x_span, strict=True)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        a, b = self.between
        return f"Passage({a}|{b}, gap={self.gap}, {self.region})"


def check_max_gap(max_gap: Optional[int]) -> None:
    """Reject a passage-width cutoff that no passage can meet.

    Every passage is at least one unit wide, so ``max_gap < 1`` would
    measure no passages at all and report any route as uncongested.
    """
    if max_gap is not None and max_gap < 1:
        raise RoutingError(f"max_gap must be >= 1 (or None for every passage), got {max_gap}")


def find_passages(layout: Layout, *, max_gap: Optional[int] = None) -> list[Passage]:
    """Detect all inter-cell and cell-to-boundary passages of *layout*.

    Parameters
    ----------
    max_gap:
        When given, corridors wider than this are ignored (they are
        not plausible bottlenecks).  Must be at least 1
        (:func:`check_max_gap`).

    Passages blocked by an intervening third cell are dropped rather
    than split: a corridor with a cell in the middle is two *other*
    passages against that cell, which the pairwise sweep finds anyway.
    """
    check_max_gap(max_gap)
    passages: list[Passage] = []
    boxes = [(cell.name, cell.bounding_box) for cell in layout.cells]

    for i in range(len(boxes)):
        for j in range(len(boxes)):
            if i == j:
                continue
            name_a, a = boxes[i]
            name_b, b = boxes[j]
            # Horizontal adjacency: a strictly left of b.
            if a.x1 <= b.x0:
                overlap = a.y_span.intersection(b.y_span)
                if overlap is not None and overlap.length >= 1:
                    region = Rect(a.x1, overlap.lo, b.x0, overlap.hi)
                    _append_if_clear(
                        passages, region, Axis.Y, (name_a, name_b), boxes, max_gap
                    )
            # Vertical adjacency: a strictly below b.
            if a.y1 <= b.y0:
                overlap = a.x_span.intersection(b.x_span)
                if overlap is not None and overlap.length >= 1:
                    region = Rect(overlap.lo, a.y1, overlap.hi, b.y0)
                    _append_if_clear(
                        passages, region, Axis.X, (name_a, name_b), boxes, max_gap
                    )

    outline = layout.outline
    for name, box in boxes:
        candidates = (
            (Rect(outline.x0, box.y0, box.x0, box.y1), Axis.Y, (BOUNDARY, name)),
            (Rect(box.x1, box.y0, outline.x1, box.y1), Axis.Y, (name, BOUNDARY)),
            (Rect(box.x0, outline.y0, box.x1, box.y0), Axis.X, (BOUNDARY, name)),
            (Rect(box.x0, box.y1, box.x1, outline.y1), Axis.X, (name, BOUNDARY)),
        )
        for region, flow, between in candidates:
            _append_if_clear(passages, region, flow, between, boxes, max_gap)

    return _dedupe(passages)


def _append_if_clear(
    passages: list[Passage],
    region: Rect,
    flow: Axis,
    between: tuple[str, str],
    boxes: list[tuple[str, Rect]],
    max_gap: Optional[int],
) -> None:
    """Append the passage unless degenerate, too wide, or obstructed."""
    gap = region.width if flow is Axis.Y else region.height
    span = region.height if flow is Axis.Y else region.width
    if gap < 1 or span < 1:
        return
    if max_gap is not None and gap > max_gap:
        return
    for name, box in boxes:
        if name in between:
            continue
        if box.intersects(region, strict=True):
            return
    passages.append(Passage(region, flow, between))


def _dedupe(passages: list[Passage]) -> list[Passage]:
    """Drop symmetric duplicates (a|b vs b|a over the same region)."""
    seen: set[tuple[Rect, Axis, frozenset[str]]] = set()
    unique: list[Passage] = []
    for p in passages:
        key = (p.region, p.flow, frozenset(p.between))
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique


@dataclass
class PassageUsage:
    """Measured load of one passage."""

    passage: Passage
    nets: set[str] = field(default_factory=set)

    @property
    def usage(self) -> int:
        """Distinct nets flowing through the passage."""
        return len(self.nets)

    @property
    def utilization(self) -> float:
        """usage / capacity."""
        return self.usage / self.passage.capacity

    @property
    def overflow(self) -> int:
        """Nets beyond capacity (0 when within capacity)."""
        return max(0, self.usage - self.passage.capacity)

    @property
    def overuse(self) -> float:
        """PathFinder's present-sharing term, relative to capacity.

        ``max(0, usage + 1 - capacity) / capacity``: positive as soon
        as the passage has no room for one more net, so full passages
        already repel newcomers before they overflow.
        """
        return max(0, self.usage + 1 - self.passage.capacity) / self.passage.capacity


@dataclass
class CongestionMap:
    """Usage of every passage after a routing pass."""

    entries: list[PassageUsage]

    @property
    def max_utilization(self) -> float:
        """Peak usage/capacity over all passages (0.0 with no passages)."""
        return max((e.utilization for e in self.entries), default=0.0)

    @property
    def total_overflow(self) -> int:
        """Summed overflow over all passages."""
        return sum(e.overflow for e in self.entries)

    @property
    def overflow_count(self) -> int:
        """Number of passages loaded beyond capacity."""
        return len(self.overflowed())

    @property
    def max_overflow(self) -> int:
        """Worst single-passage overflow (0 when everything fits)."""
        return max((e.overflow for e in self.entries), default=0)

    def overflowed(self) -> list[PassageUsage]:
        """Passages loaded beyond capacity."""
        return [e for e in self.entries if e.overflow > 0]

    def affected_nets(self) -> set[str]:
        """Nets flowing through any overflowed passage."""
        nets: set[str] = set()
        for entry in self.overflowed():
            nets |= entry.nets
        return nets

    def penalty_regions(self, *, weight: float = 2.0) -> list[tuple[Rect, float]]:
        """Cost-model regions for the second pass.

        The per-unit-length weight scales with relative overload so
        that badly overflowed passages repel harder.
        """
        regions: list[tuple[Rect, float]] = []
        for entry in self.overflowed():
            overload = entry.usage / entry.passage.capacity
            regions.append((entry.passage.region, weight * overload))
        return regions


@dataclass
class CongestionHistory:
    """Accumulated per-passage overflow history — PathFinder's *h* term.

    The two-pass scheme forgets: a passage that overflowed in round one
    but drained in round two exerts no force in round three, so nets
    oscillate back in.  Negotiated congestion (McMurchie & Ebeling's
    PathFinder, and both cgra_pnr routers) fixes this by accumulating a
    monotone history value per congested resource; the penalty a
    passage exerts grows with every iteration it spends over capacity,
    so repeat offenders become ever more expensive and the negotiation
    converges instead of cycling.

    Values are keyed by the (hashable) :class:`Passage` itself and
    never decrease; :meth:`update` folds in one iteration's measured
    overflow, scaled by ``gain``.
    """

    gain: float = 1.0
    values: dict[Passage, float] = field(default_factory=dict)

    def value(self, passage: Passage) -> float:
        """Accumulated history of *passage* (0.0 if it never overflowed)."""
        return self.values.get(passage, 0.0)

    def update(self, congestion: CongestionMap) -> None:
        """Fold one iteration's overflow into the history.

        Each overflowed passage gains ``gain * overflow / capacity``,
        so badly overloaded narrow passages build history fastest.
        History is monotone: passages that stopped overflowing keep
        what they accrued.
        """
        for entry in congestion.overflowed():
            self.values[entry.passage] = self.value(entry.passage) + self.gain * (
                entry.overflow / entry.passage.capacity
            )

    def seed(self, congestion: CongestionMap) -> None:
        """Pre-charge history from an existing routing's utilization.

        The incremental re-router starts from kept routes that a prior
        negotiation already detoured; their conflicts are *resolved*,
        so :meth:`update` (overflow-driven) would record nothing and a
        ripped-up net would forget why it detoured.  Seeding charges
        every *full* passage (``usage >= capacity``) with
        ``gain * usage / capacity`` — the saturated structure of the
        previous solution — so dirty nets steer around it from wave 0
        and re-negotiation does not unravel the kept assignment.
        Existing history is kept when larger (seed never decreases).
        """
        for entry in congestion.entries:
            capacity = entry.passage.capacity
            if capacity > 0 and entry.usage >= capacity:
                charge = self.gain * entry.usage / capacity
                if charge > self.value(entry.passage):
                    self.values[entry.passage] = charge

    def penalty_terms(self, congestion: CongestionMap) -> list[tuple[Rect, float, float]]:
        """``(region, present, history)`` terms for the negotiated cost.

        One term per passage that is presently out of room
        (:attr:`PassageUsage.overuse` > 0) *or* carries history; the
        history term keeps repelling even after a passage drains, which
        is what stops ripped-up nets from oscillating straight back.
        Terms follow the congestion map's entry order, so identical
        inputs yield an identical (deterministic) cost model.
        """
        terms: list[tuple[Rect, float, float]] = []
        for entry in congestion.entries:
            history = self.value(entry.passage)
            if entry.overuse > 0 or history > 0:
                terms.append((entry.passage.region, entry.overuse, history))
        return terms


def measure_congestion(passages: Iterable[Passage], route: GlobalRoute) -> CongestionMap:
    """Count, per passage, the distinct nets flowing through it.

    Column-batched form of the naive ``passage.carries(seg)`` double
    loop: segment endpoints go into int64 columns once, then each
    passage's carry test is a handful of elementwise comparisons.  The
    membership math is integer-exact and ``nets`` is a set, so the
    result is identical to the scalar loop for any input.
    """
    entries = [PassageUsage(p) for p in passages]
    tagged = route.all_segments()
    if not entries or not tagged:
        return CongestionMap(entries)

    n = len(tagged)
    ax = np.empty(n, dtype=np.int64)
    ay = np.empty(n, dtype=np.int64)
    bx = np.empty(n, dtype=np.int64)
    by = np.empty(n, dtype=np.int64)
    for i, (_, seg) in enumerate(tagged):
        ax[i] = seg.a.x
        ay[i] = seg.a.y
        bx[i] = seg.b.x
        by[i] = seg.b.y
    # Degenerate segments are in neither class (carries() ignores
    # them); non-rectilinear ones would be in neither either.
    vertical = (ax == bx) & (ay != by)
    horizontal = (ay == by) & (ax != bx)
    v_lo = np.minimum(ay, by)
    v_hi = np.maximum(ay, by)
    h_lo = np.minimum(ax, bx)
    h_hi = np.maximum(ax, bx)
    names = [name for name, _ in tagged]

    for entry in entries:
        region = entry.passage.region
        if entry.passage.flow is Axis.Y:
            # Vertical segments crossing the corridor: on a track
            # inside the closed x span, overlapping the y span with
            # positive length.
            mask = (
                vertical
                & (region.x0 <= ax)
                & (ax <= region.x1)
                & (v_lo < region.y1)
                & (region.y0 < v_hi)
            )
        else:
            mask = (
                horizontal
                & (region.y0 <= ay)
                & (ay <= region.y1)
                & (h_lo < region.x1)
                & (region.x0 < h_hi)
            )
        entry.nets.update(names[i] for i in np.flatnonzero(mask).tolist())
    return CongestionMap(entries)
