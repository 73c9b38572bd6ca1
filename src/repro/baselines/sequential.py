"""The classical sequential (nets-as-obstacles) router.

"Classically, nets have been ordered and routed one after another.
With this approach nets must avoid other nets as well as cells,
greatly increasing the search time.  Independent net routing also
eliminates the problem of net ordering which can consume a great deal
of computing resources in itself."

This baseline routes nets in a caller-chosen order; every routed wire
is inflated by a clearance margin into a thin blocking rect for all
subsequent nets.  It exists so experiment E7 can quantify both costs
the paper names: the extra search effort and the order sensitivity
(different orders produce different wirelength and different failure
sets).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import RoutingError, UnroutableError
from repro.core.costs import CostModel, WirelengthCost
from repro.core.escape import EscapeMode
from repro.core.route import GlobalRoute
from repro.core.router import check_on_unroutable
from repro.core.steiner import route_net
from repro.geometry.rect import Rect
from repro.layout.layout import Layout
from repro.search.engine import Order


@dataclass(frozen=True)
class SequentialConfig:
    """Knobs of the sequential baseline.

    Attributes
    ----------
    clearance:
        Inflation margin turning routed wires into obstacles; models
        single-layer wire spacing.  Must be >= 1 so that crossing an
        earlier net is impossible, as in a classical single-layer Lee
        router.
    """

    clearance: int = 1
    mode: EscapeMode = EscapeMode.FULL
    order: Order = Order.A_STAR
    node_limit: Optional[int] = None


class SequentialRouter:
    """Routes nets one at a time, each becoming an obstacle."""

    def __init__(
        self,
        layout: Layout,
        config: SequentialConfig = SequentialConfig(),
        *,
        cost_model: Optional[CostModel] = None,
    ):
        if config.clearance < 1:
            raise RoutingError("sequential clearance must be >= 1")
        self.layout = layout
        self.config = config
        self.cost_model = cost_model if cost_model is not None else WirelengthCost()

    def route_all(
        self,
        net_order: Optional[Sequence[str]] = None,
        *,
        on_unroutable: str = "skip",
    ) -> GlobalRoute:
        """Route nets in *net_order* (default: netlist order).

        Unroutable nets are recorded in ``failed_nets`` by default —
        failures under unlucky orders are the phenomenon this baseline
        exists to exhibit — or re-raised with ``on_unroutable="raise"``.
        """
        check_on_unroutable(on_unroutable)
        names = list(net_order) if net_order is not None else [n.name for n in self.layout.nets]
        obstacles = self.layout.obstacles()  # cells; each routed net extends it
        route = GlobalRoute()
        started = time.perf_counter()
        for name in names:
            net = self.layout.net(name)
            try:
                tree = route_net(
                    net,
                    obstacles,
                    cost_model=self.cost_model,
                    mode=self.config.mode,
                    order=self.config.order,
                    node_limit=self.config.node_limit,
                )
            except UnroutableError:
                if on_unroutable == "raise":
                    raise
                route.failed_nets.append(name)
                continue
            route.trees[name] = tree
            route.stats = route.stats.merged_with(tree.stats)
            obstacles = obstacles.extended(
                _wire_obstacle(seg, self.config.clearance) for seg in tree.segments
            )
        route.stats.elapsed_seconds = time.perf_counter() - started
        return route


def _wire_obstacle(seg, clearance: int) -> Rect:
    """A routed wire as a blocking rect.

    Inflation is applied only perpendicular to the wire so that later
    nets may still attach flush against the wire's end coordinates;
    crossing or running alongside within the clearance is blocked,
    touching the clearance envelope itself is allowed (open-interior
    blocking).
    """
    if seg.is_horizontal:
        return Rect(seg.a.x, seg.a.y - clearance, seg.b.x, seg.a.y + clearance)
    return Rect(seg.a.x - clearance, seg.a.y, seg.a.x + clearance, seg.b.y)
