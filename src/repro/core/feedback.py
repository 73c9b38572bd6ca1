"""Placement feedback: congestion-driven placement adjustment.

The Introduction raises (and defers) this: "the routing system [could]
provide feedback so that the placement can be automatically adjusted.
With the latter approach one must be concerned about convergence.
Placement adjustment can alter the paths taken during global routing
thereby creating inter-cell spacing problems where they did not
previously exist. ... This is the topic of further research by the
author."

This module implements that loop as the paper frames it: route all
nets, find the worst over-capacity passage, widen it by sliding one of
its flanking cells outward (pins ride along), re-validate the
placement restrictions, and reroute — stopping on success, on a stall
(the oscillation the paper worries about), or when no legal move
remains.  Experiment X1 measures the convergence behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import LayoutError, ValidationError
from repro.core.congestion import BOUNDARY, CongestionMap, find_passages, measure_congestion
from repro.core.route import GlobalRoute
from repro.core.router import GlobalRouter, RouterConfig
from repro.geometry.point import Axis
from repro.incremental.delta import CellMove, LayoutDelta, apply_delta
from repro.layout.layout import Layout
from repro.layout.validate import validate_layout


def move_cell(layout: Layout, cell_name: str, dx: int, dy: int) -> Layout:
    """A new layout with one cell (and every pin on it) displaced.

    Raises :class:`LayoutError` when the moved cell would leave the
    routing surface; separation against other cells is the caller's
    check (via :func:`validate_layout`).
    """
    return apply_delta(layout, LayoutDelta(move_cells=(CellMove(cell_name, dx, dy),)))


@dataclass
class FeedbackResult:
    """Outcome of the placement-feedback loop.

    Attributes
    ----------
    layout:
        The final (possibly adjusted) layout.
    route:
        The final global route on that layout.
    overflow_history:
        Total passage overflow after each routing pass (index 0 is the
        original placement).
    moves:
        The cell displacements applied, in order.
    converged:
        True when the loop ended with zero overflow.
    stalled:
        True when it stopped because overflow stopped improving — the
        non-convergence the paper warns about.
    """

    layout: Layout
    route: GlobalRoute
    congestion: CongestionMap
    overflow_history: list[int] = field(default_factory=list)
    moves: list[tuple[str, int, int]] = field(default_factory=list)
    converged: bool = False
    stalled: bool = False


def adjust_placement(
    layout: Layout,
    *,
    config: RouterConfig = RouterConfig(),
    step: int = 2,
    max_rounds: int = 8,
    min_separation: int = 1,
    stall_rounds: int = 3,
) -> FeedbackResult:
    """Iteratively widen over-capacity passages by moving cells.

    Parameters
    ----------
    step:
        Displacement applied per adjustment (database units).
    max_rounds:
        Routing passes before giving up.
    stall_rounds:
        Stop when the best overflow has not improved for this many
        consecutive rounds (oscillation guard).
    """
    current = layout
    history: list[int] = []
    moves: list[tuple[str, int, int]] = []
    best_overflow: Optional[int] = None
    rounds_since_improvement = 0

    route = GlobalRouter(current, config).route_all()
    congestion = measure_congestion(find_passages(current), route)
    history.append(congestion.total_overflow)

    for _round in range(max_rounds):
        if congestion.total_overflow == 0:
            return FeedbackResult(
                current, route, congestion, history, moves, converged=True
            )
        if best_overflow is None or congestion.total_overflow < best_overflow:
            best_overflow = congestion.total_overflow
            rounds_since_improvement = 0
        else:
            rounds_since_improvement += 1
            if rounds_since_improvement >= stall_rounds:
                return FeedbackResult(
                    current, route, congestion, history, moves, stalled=True
                )

        adjusted = _widen_worst_passage(current, congestion, step, min_separation, moves)
        if adjusted is None:
            break  # no legal move remains
        current = adjusted
        route = GlobalRouter(current, config).route_all()
        congestion = measure_congestion(find_passages(current), route)
        history.append(congestion.total_overflow)

    return FeedbackResult(
        current,
        route,
        congestion,
        history,
        moves,
        converged=congestion.total_overflow == 0,
    )


def _widen_worst_passage(
    layout: Layout,
    congestion: CongestionMap,
    step: int,
    min_separation: int,
    moves: list[tuple[str, int, int]],
) -> Optional[Layout]:
    """Try to widen the most overloaded passage; None when impossible."""
    overloaded = sorted(
        congestion.overflowed(), key=lambda e: (-e.utilization, e.passage.region)
    )
    for entry in overloaded:
        passage = entry.passage
        first, second = passage.between
        # Flow along Y means the gap is horizontal: widen along x.
        if passage.flow is Axis.Y:
            candidates = [(second, step, 0), (first, -step, 0)]
        else:
            candidates = [(second, 0, step), (first, 0, -step)]
        for cell_name, dx, dy in candidates:
            if cell_name == BOUNDARY:
                continue
            try:
                adjusted = move_cell(layout, cell_name, dx, dy)
                validate_layout(adjusted, min_separation=min_separation)
            except (LayoutError, ValidationError):
                continue
            moves.append((cell_name, dx, dy))
            return adjusted
    return None
