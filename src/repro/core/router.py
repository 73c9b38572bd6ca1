"""The global router: all nets, routed independently.

"Independently routing each net considerably reduces the complexity of
the search since the only obstacles are the cells. ... Independent net
routing also eliminates the problem of net ordering."

In its base mode :class:`GlobalRouter` routes every net of a layout
against the cells alone — there the cells are the only obstacles, and
nets can be routed in any order with identical results (experiment E7
checks that order-invariance).  The congestion strategies qualify
both statements: two-pass, negotiated and timing-driven routing, all
run by the one wave loop in :mod:`repro.core.negotiate`, add
usage-dependent penalty regions on top of the cells, so route costs
there depend on where other nets went in *earlier* passes.  Within any
single pass the cost model is frozen, so E7 order-invariance still
holds pass by pass; it is only across passes that ordering (which
iteration a net is ripped up in) matters.  Every pass, first or
reroute, runs :meth:`GlobalRouter.route_into`: it routes the nets
serially, in one process, merging each as it lands; work spreads across
cores one level up, over whole requests (:mod:`repro.api.batch` and
the service tiers).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

from repro.errors import RoutingError, UnroutableError
from repro.core.congestion import CongestionLedger, CongestionMap
from repro.core.costs import (
    BendPenaltyCost,
    CostModel,
    InvertedCornerCost,
    WirelengthCost,
)
from repro.core.escape import EscapeMode
from repro.core.route import GlobalRoute, RouteTree
from repro.core.steiner import route_net
from repro.layout.layout import Layout
from repro.layout.net import Net
from repro.search.engine import Order


@dataclass(frozen=True)
class RouterConfig:
    """Tuning knobs of the global router.

    Attributes
    ----------
    mode:
        Escape successor policy (``FULL`` is admissible; ``AGGRESSIVE``
        is the paper's lean generator — see DESIGN.md §3).
    order:
        OPEN-list discipline; A* is the paper's algorithm.
    inverted_corner:
        Charge the Figure 2 epsilon so corner-hugging routes win ties.
    corner_epsilon:
        Size of that epsilon (must stay below coordinate resolution,
        and above 0 when ``inverted_corner`` is set).
    bend_penalty:
        Optional per-corner surcharge (via minimization); 0 disables.
    exact_steiner_order:
        Use true-cost Prim ordering for multi-terminal nets.
    refine:
        Apply rip-up-and-reconnect refinement to each routed tree
        (never longer; see :mod:`repro.core.refine`).
    node_limit:
        Per-connection expansion budget (``None`` = unlimited).
    trace:
        Record expansion traces on every connection.
    prune_clean_nets:
        Negotiation-loop pruning (standard PathFinder practice): each
        iteration reroutes only nets whose current path overlaps a
        presently-congested passage.  Opting out
        (``prune_clean_nets=False``) rips up and reroutes *every*
        routed net per iteration — the original PathFinder formulation,
        far slower and occasionally shorter.

    The search problem and net-level parallelism are not configurable
    because neither can change a route:
    :func:`~repro.core.pathfinder.find_path` runs the compiled search
    wherever it prices bit-identically to the scalar oracle and the
    scalar problem everywhere else, and every pass routes its nets
    serially.  Tests compare against the plain oracle
    through :func:`~repro.core.pathfinder.reference_search`.
    """

    mode: EscapeMode = EscapeMode.FULL
    order: Order = Order.A_STAR
    inverted_corner: bool = False
    corner_epsilon: float = 1.0 / 16.0
    bend_penalty: float = 0.0
    exact_steiner_order: bool = False
    refine: bool = False
    node_limit: Optional[int] = None
    trace: bool = False
    prune_clean_nets: bool = True

    def __post_init__(self) -> None:
        """Reject malformed configs at construction time.

        Programmatic callers get the same errors the CLI used to
        hand-check, and a bad config can never reach a routing pass.
        """
        if self.bend_penalty < 0:
            raise RoutingError(f"bend_penalty must be >= 0, got {self.bend_penalty}")
        if self.corner_epsilon < 0:
            raise RoutingError(
                f"corner_epsilon must be >= 0, got {self.corner_epsilon}"
            )
        if self.inverted_corner and not self.corner_epsilon > 0:
            raise RoutingError(
                f"corner_epsilon must be > 0 with inverted_corner, got {self.corner_epsilon}"
            )
        if self.node_limit is not None and self.node_limit < 1:
            raise RoutingError(f"node_limit must be >= 1, got {self.node_limit}")


#: The failure policies every routing entry point accepts.
UNROUTABLE_POLICIES = ("raise", "skip")


def check_on_unroutable(on_unroutable: str) -> None:
    """Reject anything but the ``"raise"``/``"skip"`` failure policies."""
    if on_unroutable not in UNROUTABLE_POLICIES:
        raise RoutingError(f"on_unroutable must be 'raise' or 'skip', not {on_unroutable!r}")


class GlobalRouter:
    """Routes the nets of one layout.

    Parameters
    ----------
    layout:
        The placed design.  Cells are the only obstacles.
    config:
        Router knobs; defaults reproduce the paper's base algorithm.
    cost_model:
        Overrides the config-derived cost model when given.
    """

    def __init__(
        self,
        layout: Layout,
        config: RouterConfig = RouterConfig(),
        *,
        cost_model: Optional[CostModel] = None,
    ):
        self.layout = layout
        self.config = config
        self.obstacles = layout.obstacles()
        self._cost_model = cost_model if cost_model is not None else self._build_cost_model()

    def _build_cost_model(self) -> CostModel:
        """Stack cost decorators per the config."""
        model: CostModel = WirelengthCost()
        if self.config.bend_penalty > 0:
            model = BendPenaltyCost(self.config.bend_penalty, base=model)
        if self.config.inverted_corner:
            model = InvertedCornerCost(
                self.obstacles, epsilon=self.config.corner_epsilon, base=model
            )
        return model

    @property
    def cost_model(self) -> CostModel:
        """The active cost model."""
        return self._cost_model

    # ------------------------------------------------------------------
    # Routing entry points
    # ------------------------------------------------------------------
    def route_one(self, net: Net, *, cost_model: Optional[CostModel] = None) -> RouteTree:
        """Route a single net against the cells only."""
        model = cost_model if cost_model is not None else self._cost_model
        tree = route_net(
            net,
            self.obstacles,
            cost_model=model,
            mode=self.config.mode,
            order=self.config.order,
            exact_order=self.config.exact_steiner_order,
            node_limit=self.config.node_limit,
            trace=self.config.trace,
        )
        if self.config.refine:
            from repro.core.refine import refine_tree

            tree = refine_tree(
                net,
                tree,
                self.obstacles,
                cost_model=model,
                mode=self.config.mode,
                order=self.config.order,
            )
        return tree

    def route_into(
        self,
        route: GlobalRoute,
        nets: Iterable[Union[str, Net]],
        cost_model: Union[Optional[CostModel], Mapping[str, CostModel]] = None,
        *,
        on_unroutable: str,
        ledger: Optional[CongestionLedger] = None,
    ) -> list[str]:
        """Route *nets* in order, merging each into *route* as it lands.

        *nets* are layout net names or :class:`Net` objects (ad-hoc nets
        route too).  *cost_model* is one frozen model (``None`` for the
        router's own) or a mapping giving each net, by name, its own.
        A routed net's tree replaces any earlier one, its stats fold
        into ``route.stats`` and its *ledger* row, if given, moves.  In
        raise mode the first :class:`UnroutableError` propagates as
        raised (``partial`` intact); in skip mode a failed net keeps the
        tree *route* holds for it, or joins ``failed_nets`` if none.
        Returns the merged names in input order.
        """
        check_on_unroutable(on_unroutable)
        per_net = isinstance(cost_model, Mapping)
        merged: list[str] = []
        for net in nets:
            if isinstance(net, str):
                net = self.layout.net(net)
            name = net.name
            try:
                tree = self.route_one(net, cost_model=cost_model[name] if per_net else cost_model)
            except UnroutableError:
                if on_unroutable == "raise":
                    raise
                if name not in route.trees:
                    route.failed_nets.append(name)
                continue
            route.trees[name] = tree
            route.stats = route.stats.merged_with(tree.stats)
            if ledger is not None:
                ledger.add(name, tree)
            merged.append(name)
        return merged

    def reroute_pass(
        self,
        current: GlobalRoute,
        affected: Iterable[str],
        cost_model: Union[Optional[CostModel], Mapping[str, CostModel]],
        *,
        ledger: CongestionLedger,
        on_unroutable: str,
    ) -> tuple[GlobalRoute, CongestionMap, list[str]]:
        """One reroute wave: :meth:`route_into` over a copy of *current*.

        The *ledger* counts *current* on entry and the candidate on
        return.  Returns ``(candidate, ledger snapshot, moved names)``.
        """
        candidate = current.copy()
        moved = self.route_into(
            candidate, affected, cost_model, on_unroutable=on_unroutable, ledger=ledger
        )
        return candidate, ledger.snapshot(), moved

    def route_all(
        self,
        nets: Optional[Iterable[Net]] = None,
        *,
        on_unroutable: str = "raise",
    ) -> GlobalRoute:
        """Route every net (or the given subset) independently.

        Parameters
        ----------
        on_unroutable:
            ``"raise"`` (default) propagates the first failure at once;
            ``"skip"`` records the net in ``failed_nets`` and carries
            on — useful for diagnostics on deliberately hard inputs.

        Ad-hoc :class:`Net` objects not registered in the layout are
        routed too.
        """
        route = GlobalRoute()
        started = time.perf_counter()
        self.route_into(
            route, self.layout.nets if nets is None else nets, on_unroutable=on_unroutable
        )
        route.stats.elapsed_seconds = time.perf_counter() - started
        return route
