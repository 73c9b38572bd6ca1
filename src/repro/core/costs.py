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

:meth:`CostModel.track_terms` describes :meth:`~CostModel.segment_cost`
as data for the compiled search (:mod:`repro.search.vector`), which
prices every successor from it bit-identically to the scalar method.
Wirelength, congestion, negotiated and timing-driven models each
supply it next to their ``segment_cost``.
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
    and :meth:`track_terms` alongside :meth:`segment_cost` to be
    searched by the compiled search.
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

    def track_terms(self) -> tuple[np.ndarray, np.ndarray, float]:
        """:meth:`segment_cost` as the compiled search prices it.

        Returns ``(regions, weights, length_weight)``: the surcharged
        rects as an ``(r, 4)`` int64 array of ``x0, y0, x1, y1`` rows
        and their float64 weights, in declaration order.  A segment from
        ``a`` to ``b`` (``a <= b``) costs ``float(length)``, then
        ``+= weight * overlap`` for each region whose closed
        perpendicular span holds the segment's track and whose open
        overlap with it is non-empty, in order, then
        ``+= length_weight * length`` when ``length_weight`` is not
        zero.  The pathfinder hands a model to the kernel only when the
        class that supplies its :meth:`segment_cost` also supplies this
        method, so a subclass that overrides just :meth:`segment_cost`
        is searched with the scalar problem rather than mispriced.
        """
        return _NO_REGIONS, _NO_WEIGHTS, 0.0


#: The terms of a model without surcharged rects.
_NO_REGIONS = np.empty((0, 4), dtype=np.int64)
_NO_WEIGHTS = np.empty(0, dtype=np.float64)


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


class CongestionPenaltyCost(CostModel):
    """Per-unit-length surcharge inside congested regions.

    Used by the two-pass scheme from the Conclusions: "A second route
    of the affected nets could penalize those paths which chose the
    congested area."  Each region carries its own weight (cost added
    per unit of wire inside it); overlapping regions stack.

    The scalar :meth:`segment_cost` prices one segment against every
    region, so the region bounds are flattened once at construction
    (the model is frozen for a whole routing pass) into plain int
    tuples for a tight loop.  The compiled search reads the same bounds
    from :meth:`track_terms` and accumulates the same products in the
    same region order, so routed results do not depend on which search
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
        # Float weights, as track_terms hands them to the compiled search.
        self._bounds = [(r.x0, r.y0, r.x1, r.y1, float(w)) for r, w in self.regions]

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

    def track_terms(self) -> tuple[np.ndarray, np.ndarray, float]:
        return (
            np.array([b[:4] for b in self._bounds], dtype=np.int64).reshape(-1, 4),
            np.array([b[4] for b in self._bounds], dtype=np.float64),
            0.0,
        )


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

    Each search prices one net, so the per-net criticality is one more
    term of :meth:`track_terms`: the delay factor ``c * delay_weight``
    as its ``length_weight``, added after the congestion surcharge as
    the scalar sum adds it.
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

    def track_terms(self) -> tuple[np.ndarray, np.ndarray, float]:
        regions, weights, _ = super().track_terms()
        return regions, weights, self.criticality * self.delay_weight
