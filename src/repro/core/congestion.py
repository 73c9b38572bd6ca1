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

A :class:`CongestionLedger` counts usage from each path's
:attr:`~repro.core.route.RoutePath.hops`, the path's one integer form.
The wave loop keeps one ledger per run, which recounts only the nets
whose trees change and hands out immutable :class:`CongestionMap`
snapshots; :func:`measure_congestion` is a fresh ledger loaded with a
whole route.  :class:`CongestionHistory` accumulates PathFinder's
history term over the same passage indices.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core.route import GlobalRoute, RouteTree
from repro.errors import RoutingError
from repro.geometry.point import Axis
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment
from repro.layout.layout import Layout
from repro.layout.validate import bounding_boxes

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


#: Booleans in one chunk of a pairwise broadcast.  ``find_passages``
#: takes its source cells and the ledger its passages in chunks of
#: about this many elements, so no intermediate grows as the cube of
#: the cell count or as passages x hops.
_CHUNK = 1 << 18

#: The hop row and the sign of each of the ledger's six carry tests.
_TEST_ROWS = np.array([0, 0, 1, 1, 2, 3])
_TEST_SIGNS = np.array([[-1], [1], [1], [-1], [-1], [1]], dtype=np.int64)


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

    The sweep runs on int64 columns of the cell bounding boxes, one
    chunk of source cells at a time.  Candidates keep the pairwise
    order: for each ordered pair ``(a, b)`` the corridor with ``a``
    left of ``b``, then the one with ``a`` below ``b``; after every
    pair, each cell's four boundary corridors (left, right, bottom,
    top).  The negotiated cost's terms follow this order.
    """
    check_max_gap(max_gap)
    names = [cell.name for cell in layout.cells]
    n = len(names)
    boxes = bounding_boxes(layout.cells)
    # Owner index n labels the routing boundary.  A cell that is itself
    # named BOUNDARY takes that role, as a comparison of names would.
    labels = names + [BOUNDARY]
    boundary = names.index(BOUNDARY) if BOUNDARY in names else n

    pairs: list[list[int]] = []
    walls: list[list[int]] = []
    step = max(1, _CHUNK // max(1, 2 * n * n))
    for start in range(0, n, step):
        src = np.arange(start, min(start + step, n))
        pairs += _clear_rows(*_pair_candidates(boxes, src), boxes, max_gap)
        walls += _clear_rows(
            *_wall_candidates(boxes, src, layout.outline, boundary), boxes, max_gap
        )
    return _unique_passages(pairs + walls, labels)


def _pair_candidates(
    boxes: np.ndarray, src: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corridors from each source box to every box, in pairwise order.

    Returns ``(regions, flow_y, owners)``: ``[x0, y0, x1, y1]`` rows,
    whether each flows along y, and the two owner indices.  A row may
    be inverted (no corridor); :func:`_clear_rows` drops it.
    """
    n = len(boxes)
    a = boxes[src][:, None, :]
    b = boxes[None, :, :]
    lo = np.maximum(a, b)
    hi = np.minimum(a, b)
    # a left of b: [a.x1, b.x0] across the overlap of the y spans;
    # a below b: the overlap of the x spans across [a.y1, b.y0].  A box
    # paired with itself gets a gap below 1 both ways, so it drops out.
    left = np.broadcast_arrays(a[..., 2], lo[..., 1], b[..., 0], hi[..., 3])
    below = np.broadcast_arrays(lo[..., 0], a[..., 3], hi[..., 2], b[..., 1])
    regions = np.stack((np.stack(left, axis=-1), np.stack(below, axis=-1)), axis=2)
    flow_y = np.tile([True, False], len(src) * n)
    owners = np.stack(
        (np.repeat(src, 2 * n), np.tile(np.repeat(np.arange(n), 2), len(src))), axis=1
    )
    return regions.reshape(-1, 4), flow_y, owners


def _wall_candidates(
    boxes: np.ndarray, src: np.ndarray, outline: Rect, boundary: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each source box's corridors to the routing boundary, in the
    order left, right, bottom, top (:func:`_pair_candidates`' shape)."""
    x0, y0, x1, y1 = boxes[src].T
    ox0, oy0, ox1, oy1 = (
        np.full(len(src), v) for v in (outline.x0, outline.y0, outline.x1, outline.y1)
    )
    wall = np.full(len(src), boundary)
    regions = np.stack(
        (ox0, y0, x0, y1, x1, y0, ox1, y1, x0, oy0, x1, y0, x0, y1, x1, oy1), axis=1
    )
    flow_y = np.tile([True, True, False, False], len(src))
    owners = np.stack((wall, src, src, wall, wall, src, src, wall), axis=1)
    return regions.reshape(-1, 4), flow_y, owners.reshape(-1, 2)


def _clear_rows(
    regions: np.ndarray,
    flow_y: np.ndarray,
    owners: np.ndarray,
    boxes: np.ndarray,
    max_gap: Optional[int],
) -> list[list[int]]:
    """The candidates that are neither degenerate, too wide, nor obstructed.

    Returns one ``[x0, y0, x1, y1, flows along y, owner, owner]`` row
    per passage, in candidate order.  A box obstructs a corridor when
    their open interiors overlap; the two owners of the corridor never
    do.
    """
    width = regions[:, 2] - regions[:, 0]
    height = regions[:, 3] - regions[:, 1]
    gap = np.where(flow_y, width, height)
    span = np.where(flow_y, height, width)
    fits = (gap >= 1) & (span >= 1)
    if max_gap is not None:
        fits &= gap <= max_gap
    rows = np.flatnonzero(fits)
    r = regions[rows]
    blocked = (
        (boxes[:, 0] < r[:, 2:3])
        & (r[:, 0:1] < boxes[:, 2])
        & (boxes[:, 1] < r[:, 3:4])
        & (r[:, 1:2] < boxes[:, 3])
    )
    k = np.arange(len(boxes))
    blocked &= (k != owners[rows, 0:1]) & (k != owners[rows, 1:2])
    rows = rows[~blocked.any(axis=1)]
    return np.column_stack((regions[rows], flow_y[rows], owners[rows])).tolist()


def _unique_passages(rows: list[list[int]], labels: list[str]) -> list[Passage]:
    """One :class:`Passage` per row, dropping symmetric duplicates.

    A row repeats an earlier one when both cover the same region along
    the same axis between the same two names (a|b vs b|a).  Keys are
    plain ints and a sorted name pair, so only the passages kept are
    ever built.
    """
    seen: set[tuple[int, int, int, int, int, str, str]] = set()
    passages: list[Passage] = []
    along, across = Axis.Y, Axis.X
    for x0, y0, x1, y1, along_y, a, b in rows:
        first, second = labels[a], labels[b]
        pair = (first, second) if first <= second else (second, first)
        key = (x0, y0, x1, y1, along_y, *pair)
        if key not in seen:
            seen.add(key)
            passages.append(
                Passage(Rect(x0, y0, x1, y1), along if along_y else across, (first, second))
            )
    return passages


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


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _gaps(passages: Sequence[Passage]) -> np.ndarray:
    return _frozen(np.array([p.gap for p in passages], dtype=np.int64))


class CongestionMap:
    """Usage of every passage after a routing pass: an immutable snapshot.

    The map holds the passages in measurement order, their ``gap`` and
    ``usage`` as int64 columns, and for every net the sorted indices of
    the passages its wiring flows through.  Every total and query reads
    those columns; :attr:`entries`, the per-passage
    :class:`PassageUsage` view, is built only when asked for.

    ``CongestionMap(entries)`` wraps measured (or hand-built) entries;
    :meth:`CongestionLedger.snapshot` builds maps from its columns.
    A passage can be ``2**63 - 1`` wide, so its capacity ``gap + 1``
    does not fit in an int64: overflow compares ``usage - 1`` with
    ``gap`` instead, and every ratio is divided in Python.
    """

    def __init__(self, entries: Iterable[PassageUsage] = ()):
        entries = list(entries)
        rows: dict[str, list[int]] = {}
        for index, entry in enumerate(entries):
            for net in entry.nets:
                rows.setdefault(net, []).append(index)
        passages = tuple(entry.passage for entry in entries)
        self._fill(
            passages,
            _gaps(passages),
            _frozen(np.array([entry.usage for entry in entries], dtype=np.int64)),
            {net: _frozen(np.array(indices, dtype=np.intp)) for net, indices in rows.items()},
        )

    @classmethod
    def _from_columns(
        cls,
        passages: tuple[Passage, ...],
        gap: np.ndarray,
        usage: np.ndarray,
        rows: dict[str, np.ndarray],
    ) -> "CongestionMap":
        cmap = cls.__new__(cls)
        cmap._fill(passages, gap, usage, rows)
        return cmap

    def _fill(
        self,
        passages: tuple[Passage, ...],
        gap: np.ndarray,
        usage: np.ndarray,
        rows: dict[str, np.ndarray],
    ) -> None:
        self.passages = passages
        self.gap = gap
        self.usage = usage
        self._rows = rows
        self._overflow = _frozen(np.maximum(usage - 1 - gap, 0))

    @functools.cached_property
    def entries(self) -> list[PassageUsage]:
        """One :class:`PassageUsage` per passage, in measurement order."""
        entries = [PassageUsage(passage) for passage in self.passages]
        for net, rows in self._rows.items():
            for index in rows.tolist():
                entries[index].nets.add(net)
        return entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CongestionMap):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return (
            f"CongestionMap({len(self.passages)} passages, "
            f"total_overflow={self.total_overflow})"
        )

    @functools.cached_property
    def max_utilization(self) -> float:
        """Peak usage/capacity over all passages (0.0 with no passages).

        Divided in Python over the passages in use, as
        :attr:`PassageUsage.utilization` divides, so the peak is
        bit-identical even where ``gap + 1`` fits in neither an int64
        nor a float64.
        """
        return max(
            (usage / (gap + 1) for _, usage, gap in self._pick(np.flatnonzero(self.usage))),
            default=0.0,
        )

    @functools.cached_property
    def total_overflow(self) -> int:
        """Summed overflow over all passages."""
        return int(self._overflow.sum())

    @functools.cached_property
    def overflow_count(self) -> int:
        """Number of passages loaded beyond capacity."""
        return int(np.count_nonzero(self._overflow))

    @functools.cached_property
    def max_overflow(self) -> int:
        """Worst single-passage overflow (0 when everything fits)."""
        return int(self._overflow.max(initial=0))

    def overflowed(self) -> list[PassageUsage]:
        """Passages loaded beyond capacity."""
        entries = self.entries
        return [entries[index] for index in np.flatnonzero(self._overflow).tolist()]

    def affected_nets(self) -> set[str]:
        """Nets flowing through any overflowed passage."""
        if not self.overflow_count:
            return set()
        over = self._overflow > 0
        return {net for net, rows in self._rows.items() if over[rows].any()}

    def penalty_regions(self, *, weight: float = 2.0) -> list[tuple[Rect, float]]:
        """Cost-model regions for the second pass.

        The per-unit-length weight scales with relative overload so
        that badly overflowed passages repel harder.
        """
        return [
            (self.passages[index].region, weight * (usage / (gap + 1)))
            for index, usage, gap in self._pick(np.flatnonzero(self._overflow))
        ]

    def _pick(self, indices: np.ndarray) -> Iterator[tuple[int, int, int]]:
        """``(index, usage, gap)`` of each passage in *indices*, as Python ints."""
        return zip(indices.tolist(), self.usage[indices].tolist(), self.gap[indices].tolist())


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

    Values are keyed by passage index, so every map a history reads
    must measure the same passage list (one run's
    :class:`CongestionLedger`); they never decrease, and
    :meth:`update` folds in one iteration's measured overflow, scaled
    by ``gain``.  Each method touches only the full or historied
    passages.
    """

    gain: float = 1.0
    values: dict[int, float] = field(default_factory=dict)

    def value(self, index: int) -> float:
        """Accumulated history of passage *index* (0.0 if it never overflowed)."""
        return self.values.get(index, 0.0)

    def update(self, congestion: CongestionMap) -> None:
        """Fold one iteration's overflow into the history.

        Each overflowed passage gains ``gain * overflow / capacity``,
        so badly overloaded narrow passages build history fastest.
        History is monotone: passages that stopped overflowing keep
        what they accrued.
        """
        for index, usage, gap in congestion._pick(np.flatnonzero(congestion._overflow)):
            self.values[index] = self.value(index) + self.gain * (
                (usage - 1 - gap) / (gap + 1)
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
        full = np.flatnonzero((congestion.usage > congestion.gap) & (congestion.gap >= 0))
        for index, usage, gap in congestion._pick(full):
            charge = self.gain * usage / (gap + 1)
            if charge > self.value(index):
                self.values[index] = charge

    def penalty_terms(self, congestion: CongestionMap) -> list[tuple[Rect, float, float]]:
        """``(region, present, history)`` terms for the negotiated cost.

        One term per passage that is presently out of room
        (:attr:`PassageUsage.overuse` > 0) *or* carries history; the
        history term keeps repelling even after a passage drains, which
        is what stops ripped-up nets from oscillating straight back.
        Terms follow the map's passage order, so identical inputs
        yield an identical (deterministic) cost model.
        """
        full = congestion.usage > congestion.gap
        historied = [index for index, value in self.values.items() if value > 0]
        if historied:
            full = full.copy()
            full[historied] = True
        return [
            (congestion.passages[index].region, max(0, usage - gap) / (gap + 1), self.value(index))
            for index, usage, gap in congestion._pick(np.flatnonzero(full))
        ]


def measure_congestion(passages: Iterable[Passage], route: GlobalRoute) -> CongestionMap:
    """Count, per passage, the distinct nets flowing through it.

    A fresh :class:`CongestionLedger` over *passages*, loaded with
    *route*: the same map the wave loop's ledger reports for that
    route.
    """
    ledger = CongestionLedger(passages)
    ledger.load(route)
    return ledger.snapshot()


class CongestionLedger:
    """A route's passage usage, kept up to date as its trees change.

    One fixed passage list (the one the wave loop finds once per run),
    each passage's ``gap`` and ``usage`` as int64 columns, and each
    net's passages as one sorted index array, computed when the net's
    tree is merged by one carry broadcast over the tree's
    :attr:`RoutePath.hops <repro.core.route.RoutePath.hops>`.
    :meth:`load` counts a whole route, :meth:`add` and :meth:`remove`
    move one net's row, and :meth:`snapshot` hands out an immutable
    :class:`CongestionMap` of the route the ledger has been told about
    (what :func:`measure_congestion` returns for it).
    """

    def __init__(self, passages: Iterable[Passage]):
        self.passages = tuple(passages)
        self.gap = _gaps(self.passages)
        self.usage = np.zeros(len(self.passages), dtype=np.int64)
        self._rows: dict[str, np.ndarray] = {}
        # Passage.carries as six "passage bound <= signed hop value"
        # tests (_TEST_ROWS, _TEST_SIGNS), one row each, against a hop's
        # (-horizontal, horizontal, track, -track, -lo, hi): the hop runs
        # the way the passage flows (horizontal is 1 - d, where d is 1 for
        # a passage flowing along y), on a track inside the closed span
        # across the flow, and overlaps the span along it with positive
        # length (lo < flow_hi, flow_lo < hi).  Coordinates are bounded by
        # MAX_COORDINATE, so the negations and unit shifts cannot wrap.
        bounds = []
        for passage in self.passages:
            r = passage.region
            if passage.flow is Axis.Y:
                d, cross_lo, cross_hi, flow_lo, flow_hi = 1, r.x0, r.x1, r.y0, r.y1
            else:
                d, cross_lo, cross_hi, flow_lo, flow_hi = 0, r.y0, r.y1, r.x0, r.x1
            bounds.append((d - 1, 1 - d, cross_lo, -cross_hi, 1 - flow_hi, flow_lo + 1))
        self._bounds = np.ascontiguousarray(np.array(bounds, dtype=np.int64).reshape(-1, 6).T)

    def load(self, route: GlobalRoute) -> None:
        """Count exactly *route*'s trees, every net in one broadcast."""
        names = list(route.trees)
        hit = self._hits([route.trees[name] for name in names])
        self.usage = hit.sum(axis=0, dtype=np.int64)
        # Tree-major (net, passage) pairs, cut into one row per net.
        owner, passage = np.nonzero(hit)
        cuts = np.searchsorted(owner, np.arange(len(names) + 1)).tolist()
        passage = _frozen(passage)
        self._rows = {name: passage[lo:hi] for name, lo, hi in zip(names, cuts, cuts[1:])}

    def add(self, net: str, tree: RouteTree) -> None:
        """Count *tree* as *net*'s wiring, replacing any earlier tree."""
        self.remove(net)
        rows = _frozen(np.flatnonzero(self._hits([tree])))
        self.usage[rows] += 1
        self._rows[net] = rows

    def remove(self, net: str) -> None:
        """Stop counting *net* (a no-op for a net the ledger never saw)."""
        rows = self._rows.pop(net, None)
        if rows is not None:
            self.usage[rows] -= 1

    def snapshot(self) -> CongestionMap:
        """The current usage as an immutable :class:`CongestionMap`."""
        return CongestionMap._from_columns(
            self.passages, self.gap, _frozen(self.usage.copy()), dict(self._rows)
        )

    def _hits(self, trees: Sequence[RouteTree]) -> np.ndarray:
        """Whether each tree flows through each passage: (trees, passages) bools.

        The trees' :attr:`RoutePath.hops` stack into one table, whose
        columns give every hop's values for the six tests set up in
        ``__init__``; one hops x passages broadcast (in chunks of
        passages) makes them all, and an OR over each tree's hops folds
        them per tree.
        """
        hit = np.zeros((len(trees), len(self.passages)), dtype=bool)
        counts = [sum(path.hops.shape[1] for path in tree.paths) for tree in trees]
        owners = [index for index, count in enumerate(counts) if count]
        if not owners:
            return hit
        offsets = list(itertools.accumulate(counts, initial=0))
        starts = [offsets[index] for index in owners]
        hops = np.concatenate([path.hops for tree in trees for path in tree.paths], axis=1)
        values = (_TEST_SIGNS * hops[_TEST_ROWS]).T[:, :, None]
        step = max(1, _CHUNK // (6 * hops.shape[1]))
        for first in range(0, len(self.passages), step):
            columns = slice(first, first + step)
            carried = (self._bounds[:, columns] <= values).all(axis=1)
            hit[owners, columns] = np.logical_or.reduceat(carried, starts, axis=0)
        return hit
