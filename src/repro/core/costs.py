"""Generalized cost functions.

"Because of the generality of the A* algorithm, the heuristic cost
function can be used to favor certain classes of routes over others."

A :class:`CostModel` prices the two things a rectilinear route is made
of: straight segments and the bends between them.  Every model must
dominate pure wirelength from below — i.e. ``segment_cost >= length``
and ``bend_cost >= 0`` — so the rectilinear-distance heuristic remains
a lower bound and A* stays admissible.

Models that price bends need to know the incoming direction at each
search state, which the pathfinder supports by switching to
direction-tagged states; they declare ``direction_sensitive = True``.

:meth:`CostModel.expansion_costs` is the one batched form of
:meth:`~CostModel.segment_cost`: all successors of one expansion in a
single array, bit-identical to the scalar prices.  Wirelength,
congestion, negotiated and timing-driven models each supply it next to
their ``segment_cost``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import RoutingError
from repro.geometry.point import Direction, Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment


class CostModel:
    """Base model: cost is exactly rectilinear wirelength.

    Subclasses override :meth:`segment_cost` and/or :meth:`bend_cost`,
    and :meth:`expansion_costs` alongside :meth:`segment_cost` to be
    searched with the batched problem.
    """

    #: Whether the pathfinder must track arrival directions so that
    #: :meth:`bend_cost` can be charged.
    direction_sensitive: bool = False

    def segment_cost(self, seg: Segment) -> float:
        """Cost of routing a wire along *seg*.  Must be >= ``seg.length``."""
        return float(seg.length)

    def bend_cost(self, at: Point, incoming: Direction, outgoing: Direction) -> float:
        """Extra cost for turning at *at*.  Must be >= 0."""
        return 0.0

    def expansion_costs(self, x: int, y: int, hx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        """:meth:`segment_cost` of every successor of one expansion.

        Horizontal successors ``(hx[j], y)`` come first, then vertical
        successors ``(x, vy[j])``, all priced into one float64 array
        whose values equal the scalar method's bit for bit (integer
        lengths are exact in float64).  The pathfinder batches a model
        only when the class that supplies its :meth:`segment_cost`
        also supplies this method, so a subclass that overrides just
        :meth:`segment_cost` is searched with the scalar problem
        rather than mispriced here.
        """
        nh = hx.shape[0]
        out = np.empty(nh + vy.shape[0], dtype=np.float64)
        if nh:
            head = out[:nh]
            head[...] = hx
            np.subtract(head, x, out=head)
            np.abs(head, out=head)
        if vy.shape[0]:
            tail = out[nh:]
            tail[...] = vy
            np.subtract(tail, y, out=tail)
            np.abs(tail, out=tail)
        return out


class WirelengthCost(CostModel):
    """Explicit name for the default minimal-length objective."""


class BendPenaltyCost(CostModel):
    """Charge a fixed penalty per corner.

    Corners become vias after layer assignment, so this is the "other
    heuristics [are] easily implemented" knob for via minimization.
    The penalty may be any non-negative number; fractional values
    (< 1 database unit) act purely as tie-breakers among equal-length
    routes.
    """

    direction_sensitive = True

    def __init__(self, penalty: float = 0.25, base: Optional[CostModel] = None):
        if penalty < 0:
            raise RoutingError(f"bend penalty must be >= 0, got {penalty}")
        self.penalty = penalty
        self.base = base or CostModel()
        self.direction_sensitive = True

    def segment_cost(self, seg: Segment) -> float:
        return self.base.segment_cost(seg)

    def bend_cost(self, at: Point, incoming: Direction, outgoing: Direction) -> float:
        inherited = self.base.bend_cost(at, incoming, outgoing)
        if incoming is not outgoing:
            return inherited + self.penalty
        return inherited


class InvertedCornerCost(CostModel):
    """The paper's inverted-corner epsilon (Figure 2).

    Among equal-length routes around a cell corner, the preferred route
    turns exactly at the cell boundary; the non-preferred route turns
    in free space ("the inverted corner"), wasting the passage next to
    the cell.  "Since both routes have exactly the same length, if a
    small number, e, is added to the cost of the non-preferred route
    the algorithm will automatically pick the preferred route."

    Detection: a bend at a point on some cell (or surface) boundary is
    free; a bend floating in free space costs epsilon.  Epsilon must be
    small enough never to change which *lengths* are optimal — the
    default 1/16 is far below the 1-unit coordinate resolution.
    """

    direction_sensitive = True

    def __init__(
        self,
        obstacles: ObstacleSet,
        epsilon: float = 1.0 / 16.0,
        base: Optional[CostModel] = None,
    ):
        if epsilon <= 0:
            raise RoutingError(f"inverted-corner epsilon must be > 0, got {epsilon}")
        self.obstacles = obstacles
        self.epsilon = epsilon
        self.base = base or CostModel()
        self.direction_sensitive = True

    def _on_any_boundary(self, p: Point) -> bool:
        return self.obstacles.on_any_boundary(p)

    def segment_cost(self, seg: Segment) -> float:
        return self.base.segment_cost(seg)

    def bend_cost(self, at: Point, incoming: Direction, outgoing: Direction) -> float:
        inherited = self.base.bend_cost(at, incoming, outgoing)
        if incoming is outgoing:
            return inherited
        if self._on_any_boundary(at):
            return inherited
        return inherited + self.epsilon


#: Coordinate offset separating the two axes of a fused expansion
#: surcharge.  Vertical successors and vertical-track regions are
#: shifted here so that a cross-axis (region, successor) pair can never
#: overlap: one operand stays in ordinary coordinate range, the other
#: sits beyond it, so the clamped interval is empty and the
#: contribution is exactly ``0.0``.  Same-axis pairs are unaffected —
#: the offset cancels in the interval subtraction (exact int64).
_FUSE_OFFSET = 1 << 40


class CongestionPenaltyCost(CostModel):
    """Per-unit-length surcharge inside congested regions.

    Used by the two-pass scheme from the Conclusions: "A second route
    of the affected nets could penalize those paths which chose the
    congested area."  Each region carries its own weight (cost added
    per unit of wire inside it); overlapping regions stack.

    The scalar :meth:`segment_cost` prices one segment against every
    region, so the region bounds are flattened once at construction
    (the model is frozen for a whole routing pass) into plain int
    tuples for a tight loop.  Per-region contributions are
    bit-identical to the original object-per-query code and to
    :meth:`expansion_costs` (same product, accumulated in the same
    region order), so routed results do not depend on which method
    priced them.
    """

    def __init__(
        self,
        regions: Sequence[tuple[Rect, float]],
        base: Optional[CostModel] = None,
    ):
        for region, weight in regions:
            if weight < 0:
                raise RoutingError(f"congestion weight must be >= 0, got {weight} for {region}")
        self.regions = list(regions)
        self.base = base or CostModel()
        self.direction_sensitive = self.base.direction_sensitive
        self._bounds = [(r.x0, r.y0, r.x1, r.y1, w) for r, w in self.regions]
        self._batch_columns: Optional[tuple[np.ndarray, ...]] = None
        self._track_regions: dict[tuple[bool, int], Optional[tuple[np.ndarray, ...]]] = {}
        self._pair_spans_cache: dict[tuple[int, int], Optional[tuple[np.ndarray, ...]]] = {}

    def segment_cost(self, seg: Segment) -> float:
        cost = self.base.segment_cost(seg)
        if not self._bounds:
            return cost
        a, b = seg.a, seg.b  # normalized: a <= b
        ax, ay = a.x, a.y
        bx, by = b.x, b.y
        if ax == bx and ay == by:  # degenerate: no wire, no surcharge
            return cost
        if ay == by:  # horizontal
            for x0, y0, x1, y1, weight in self._bounds:
                if y0 <= ay <= y1:
                    lo = x0 if x0 > ax else ax
                    hi = x1 if x1 < bx else bx
                    if lo < hi:
                        cost += weight * (hi - lo)
        else:
            for x0, y0, x1, y1, weight in self._bounds:
                if x0 <= ax <= x1:
                    lo = y0 if y0 > ay else ay
                    hi = y1 if y1 < by else by
                    if lo < hi:
                        cost += weight * (hi - lo)
        return cost

    def bend_cost(self, at: Point, incoming: Direction, outgoing: Direction) -> float:
        return self.base.bend_cost(at, incoming, outgoing)

    def _region_columns(self) -> tuple[np.ndarray, ...]:
        """Region bounds as int64/float64 columns, in declaration order."""
        if self._batch_columns is None:
            self._batch_columns = (
                np.array([b[0] for b in self._bounds], dtype=np.int64),
                np.array([b[1] for b in self._bounds], dtype=np.int64),
                np.array([b[2] for b in self._bounds], dtype=np.int64),
                np.array([b[3] for b in self._bounds], dtype=np.int64),
                np.array([b[4] for b in self._bounds], dtype=np.float64),
            )
        return self._batch_columns

    def _regions_on_track(self, horizontal: bool, fixed: int) -> Optional[tuple[np.ndarray, ...]]:
        """Region columns whose perpendicular span contains *fixed*.

        The model is frozen for a whole routing pass and searches
        revisit the same tracks constantly, so the per-track selection
        (in declaration order) is cached; ``None`` marks tracks no
        region touches, which lets most batch calls exit immediately.
        """
        key = (horizontal, fixed)
        try:
            return self._track_regions[key]
        except KeyError:
            pass
        rx0, ry0, rx1, ry1, weights = self._region_columns()
        if horizontal:
            perp_lo, perp_hi = ry0, ry1
            span_lo, span_hi = rx0, rx1
        else:
            perp_lo, perp_hi = rx0, rx1
            span_lo, span_hi = ry0, ry1
        inside = np.flatnonzero((perp_lo <= fixed) & (fixed <= perp_hi))
        selection: Optional[tuple[np.ndarray, ...]]
        if inside.size:
            selection = (span_lo[inside], span_hi[inside], weights[inside])
        else:
            selection = None
        self._track_regions[key] = selection
        return selection

    @staticmethod
    def _fold_contributions(
        costs: np.ndarray, hi: np.ndarray, weights: np.ndarray
    ) -> None:
        """``costs[j] += sum_r weights[r] * hi[r, j]`` in row order.

        Accumulates contributions per successor in region declaration
        order — the exact accumulation order of the scalar path
        (including its zero terms: ``x + 0.0 == x`` for the positive
        finite costs here, so skipped-vs-added zeros cannot differ).
        """
        n = costs.shape[0]
        if n == 1:
            # Degenerate batch: a (R, 1) column is contiguous, where
            # numpy reductions switch to pairwise summation and can
            # drift by an ULP.  Accumulate with Python floats instead.
            acc = costs[0]
            for overlap, weight in zip(hi[:, 0].tolist(), weights.tolist()):
                acc += weight * overlap
            costs[0] = acc
        else:
            # Row 0 is the running total, each later row one region's
            # weighted overlap (multiplied straight into the buffer —
            # no intermediate contribution matrix).  An axis-0 reduce
            # over a C-contiguous matrix with a non-trivial inner axis
            # folds rows top-down sequentially (pairwise summation
            # only applies along a contiguous reduction axis) — i.e.
            # ``((base + c0) + c1) + ...`` per successor,
            # bit-identical to the scalar loop.  The parity suite and
            # an adversarial unit test pin this.
            stacked = np.empty((hi.shape[0] + 1, n), dtype=np.float64)
            stacked[0] = costs
            np.multiply(hi, weights[:, None], out=stacked[1:])
            np.add.reduce(stacked, axis=0, out=costs)

    def _pair_spans(self, y: int, x: int) -> Optional[tuple[np.ndarray, ...]]:
        """Region spans of both expansion tracks, fused into one set.

        The horizontal track ``y`` contributes its regions' x spans
        as-is; the vertical track ``x`` contributes its regions' y
        spans shifted by :data:`_FUSE_OFFSET` so they can only ever
        overlap (equally shifted) vertical successors.  Cached per
        ``(y, x)`` origin: searches re-expand the same origins across
        nets and iterations while the model is frozen.
        """
        key = (y, x)
        try:
            return self._pair_spans_cache[key]
        except KeyError:
            pass
        sel_h = self._regions_on_track(True, y)
        sel_v = self._regions_on_track(False, x)
        combined: Optional[tuple[np.ndarray, ...]]
        if sel_v is None:
            combined = sel_h
        elif sel_h is None:
            lo_v, hi_v, w_v = sel_v
            combined = (lo_v + _FUSE_OFFSET, hi_v + _FUSE_OFFSET, w_v)
        else:
            lo_h, hi_h, w_h = sel_h
            lo_v, hi_v, w_v = sel_v
            combined = (
                np.concatenate((lo_h, lo_v + _FUSE_OFFSET)),
                np.concatenate((hi_h, hi_v + _FUSE_OFFSET)),
                np.concatenate((w_h, w_v)),
            )
        self._pair_spans_cache[key] = combined
        return combined

    def expansion_costs(self, x: int, y: int, hx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        """Wirelength plus both tracks' surcharges in one fused pass.

        Batched only over a plain-wirelength base (the pathfinder's
        rule), whose cost is exactly ``b - a`` for the normalized
        endpoints ``a = min(c, origin)``/``b = max`` the surcharge
        clamp needs anyway (integer lengths are exact in float64).
        The vertical successors are shifted by :data:`_FUSE_OFFSET`
        together with their track's regions, so each successor folds
        its own track's regions in declaration order, as the scalar
        loop does, plus the other track's, whose clamped overlaps are
        exactly zero — and ``x + 0.0 == x`` for these positive costs.
        """
        nh = hx.shape[0]
        n = nh + vy.shape[0]
        if not n:
            return np.empty(0, dtype=np.float64)
        a = np.empty(n, dtype=np.int64)
        b = np.empty(n, dtype=np.int64)
        np.minimum(hx, x, out=a[:nh])
        np.maximum(hx, x, out=b[:nh])
        np.minimum(vy, y, out=a[nh:])
        np.maximum(vy, y, out=b[nh:])
        costs = (b - a).astype(np.float64)
        combined = self._pair_spans(y, x)
        if combined is None:
            return costs
        a[nh:] += _FUSE_OFFSET
        b[nh:] += _FUSE_OFFSET
        span_lo, span_hi, weights = combined
        lo = np.maximum(span_lo[:, None], a[None, :])
        hi = np.minimum(span_hi[:, None], b[None, :])
        np.subtract(hi, lo, out=hi)
        np.maximum(hi, 0, out=hi)
        self._fold_contributions(costs, hi, weights)
        return costs


class NegotiatedCongestionCost(CongestionPenaltyCost):
    """PathFinder-style negotiated congestion surcharge.

    Where :class:`CongestionPenaltyCost` takes fixed region weights,
    this model derives each region's per-unit-length weight from the
    negotiation state, in PathFinder's multiplicative form
    ``cost = (base + history) * present``.  With the base unit of wire
    already priced by the underlying model, the *surcharge* per unit
    of wire inside a region is::

        weight = (1 + history_weight * history)
                 * (1 + present_weight * present) - 1

    The present term repels nets from passages that have no room right
    now; the history term makes passages that keep overflowing
    progressively more expensive across iterations — and keeps
    repelling even when the present term drops to zero, which is what
    breaks the oscillation the plain two-pass scheme is prone to.  All
    weights are >= 0, so the model still dominates pure wirelength and
    A* stays admissible.

    Parameters
    ----------
    terms:
        ``(region, present, history)`` triples, typically from
        :meth:`repro.core.congestion.CongestionHistory.penalty_terms`.
    present_weight, history_weight:
        Scale factors for the two terms (both must be >= 0).
    base:
        Underlying model to surcharge (default plain wirelength).
    """

    def __init__(
        self,
        terms: Sequence[tuple[Rect, float, float]],
        *,
        present_weight: float = 1.0,
        history_weight: float = 2.0,
        base: Optional[CostModel] = None,
    ):
        terms = list(terms)
        if present_weight < 0:
            raise RoutingError(f"present_weight must be >= 0, got {present_weight}")
        if history_weight < 0:
            raise RoutingError(f"history_weight must be >= 0, got {history_weight}")
        for region, present, history in terms:
            if present < 0 or history < 0:
                raise RoutingError(
                    f"negotiated terms must be >= 0, got ({present}, {history}) for {region}"
                )
        self.terms = terms
        self.present_weight = present_weight
        self.history_weight = history_weight
        regions = [
            (region, self.region_weight(present, history))
            for region, present, history in terms
        ]
        super().__init__(regions, base=base)

    def region_weight(self, present: float, history: float) -> float:
        """The derived per-unit-length weight for one ``(present, history)``."""
        return (1.0 + self.history_weight * history) * (
            1.0 + self.present_weight * present
        ) - 1.0


class TimingDrivenCost(NegotiatedCongestionCost):
    """Criticality-blended negotiated congestion surcharge.

    The timing-driven strategy prices each net under its own model: a
    net's criticality ``c`` (in ``[0, 1]``, from
    :func:`repro.core.timing.analyze_route_timing`) blends a delay term
    against the congestion term::

        segment_cost = length
                       + c * delay_weight * length          (delay term)
                       + (1 - c) * negotiated_surcharge     (congestion term)

    A critical net (``c`` near 1) pays for every unit of wire but is
    nearly blind to congestion, so it holds the shortest attainable
    path; a non-critical net (``c`` near 0) prices congestion at full
    strength and detours on its behalf.  Both terms are >= 0, so the
    model still dominates pure wirelength and A* stays admissible.

    Each search prices one net, so the per-net criticality is just one
    more per-successor column: :meth:`expansion_costs` adds the delay
    term to the fused congestion pricing, in the scalar sum's order.
    """

    def __init__(
        self,
        terms: Sequence[tuple[Rect, float, float]],
        *,
        criticality: float,
        delay_weight: float = 0.5,
        present_weight: float = 1.0,
        history_weight: float = 2.0,
        base: Optional[CostModel] = None,
    ):
        if not 0.0 <= criticality <= 1.0:
            raise RoutingError(f"criticality must be in [0, 1], got {criticality}")
        if delay_weight < 0:
            raise RoutingError(f"delay_weight must be >= 0, got {delay_weight}")
        # region_weight runs inside super().__init__, so the blend
        # factors must exist first.
        self.criticality = float(criticality)
        self.delay_weight = float(delay_weight)
        super().__init__(
            terms,
            present_weight=present_weight,
            history_weight=history_weight,
            base=base,
        )

    def region_weight(self, present: float, history: float) -> float:
        return (1.0 - self.criticality) * super().region_weight(present, history)

    def segment_cost(self, seg: Segment) -> float:
        return (
            super().segment_cost(seg)
            + (self.criticality * self.delay_weight) * seg.length
        )

    def expansion_costs(self, x: int, y: int, hx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        costs = super().expansion_costs(x, y, hx, vy)
        lengths = CostModel.expansion_costs(self, x, y, hx, vy)
        costs += (self.criticality * self.delay_weight) * lengths
        return costs
