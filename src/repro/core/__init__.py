"""The paper's primary contribution: gridless line-search A* global routing.

Public surface:

* :func:`~repro.core.pathfinder.find_path` — one two-point (or
  set-to-set) connection via line-search A*.
* :func:`~repro.core.steiner.route_net` — a whole multi-terminal /
  multi-pin net as an approximate Steiner tree.
* :class:`~repro.core.router.GlobalRouter` — all nets of a layout,
  independently routed (optionally fanned out over worker processes).
* :func:`~repro.core.negotiate.negotiate` — the one rip-up-and-reroute
  wave loop behind the congestion-driven second pass from the paper's
  Conclusions (:func:`~repro.core.negotiate.two_pass`) and its
  generalizations below; every run returns one
  :class:`~repro.core.negotiate.StrategyOutcome`.
* :class:`~repro.core.negotiate.NegotiatedRouter` — the PathFinder-
  style generalization of that sketch: iterated rip-up-and-reroute
  under present-usage × accumulated-history congestion costs.
* :class:`~repro.core.timing.TimingDrivenRouter` — the negotiated
  policy with a tree-walk delay model on top: per-net criticality
  blends a delay term into the congestion cost and orders each wave
  most-critical-first (:mod:`repro.core.timing`).
* Cost models (:mod:`repro.core.costs`) — the "generalized cost
  function concept": wirelength, inverted-corner epsilon, bend/via
  penalties, congestion penalties (fixed, negotiated, timing-blended).
"""

from repro.core.escape import EscapeMode, escape_moves
from repro.core.costs import (
    BendPenaltyCost,
    CongestionPenaltyCost,
    CostModel,
    InvertedCornerCost,
    NegotiatedCongestionCost,
    TimingDrivenCost,
    WirelengthCost,
)
from repro.core.route import GlobalRoute, RoutePath, RouteTree, TargetSet
from repro.core.pathfinder import PathRequest, find_path
from repro.core.steiner import route_net
from repro.core.congestion import (
    CongestionHistory,
    CongestionLedger,
    CongestionMap,
    Passage,
    find_passages,
    measure_congestion,
)
from repro.core.negotiate import (
    IterationStats,
    NegotiatedRouter,
    NegotiationConfig,
    StrategyOutcome,
)
from repro.core.router import GlobalRouter, RouterConfig
from repro.core.timing import (
    NetTiming,
    TimingAnalysis,
    TimingConfig,
    TimingDrivenRouter,
    analyze_route_timing,
    net_delay,
)
from repro.core.feedback import FeedbackResult, adjust_placement, move_cell
from repro.core.refine import refine_tree
from repro.core.route_io import (
    route_from_dict,
    route_from_json,
    route_to_dict,
    route_to_json,
)

__all__ = [
    "BendPenaltyCost",
    "CongestionHistory",
    "CongestionLedger",
    "CongestionMap",
    "CongestionPenaltyCost",
    "CostModel",
    "EscapeMode",
    "FeedbackResult",
    "GlobalRoute",
    "GlobalRouter",
    "IterationStats",
    "NegotiatedCongestionCost",
    "NegotiatedRouter",
    "NegotiationConfig",
    "NetTiming",
    "adjust_placement",
    "move_cell",
    "InvertedCornerCost",
    "Passage",
    "PathRequest",
    "RoutePath",
    "RouteTree",
    "RouterConfig",
    "StrategyOutcome",
    "TargetSet",
    "TimingAnalysis",
    "TimingConfig",
    "TimingDrivenCost",
    "TimingDrivenRouter",
    "WirelengthCost",
    "analyze_route_timing",
    "escape_moves",
    "find_path",
    "find_passages",
    "measure_congestion",
    "net_delay",
    "route_from_dict",
    "route_from_json",
    "refine_tree",
    "route_net",
    "route_to_dict",
    "route_to_json",
]
