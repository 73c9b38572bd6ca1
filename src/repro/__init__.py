"""repro — gridless line-search A* global routing for general cells.

A full reproduction of Gary W. Clow, "A Global Routing Algorithm for
General Cells", 21st Design Automation Conference, 1984.

The top-level namespace re-exports the public API; subpackages:

* :mod:`repro.geometry` — exact rectilinear geometry and ray tracing.
* :mod:`repro.layout` — cells, pins, terminals, nets, generators, I/O.
* :mod:`repro.search` — the OPEN/CLOSED search family (DFS, BFS,
  best-first, A*).
* :mod:`repro.core` — the paper's router: escape-point successor
  generation, generalized cost functions, Steiner trees, congestion
  two-pass, :class:`~repro.core.router.GlobalRouter`.
* :mod:`repro.baselines` — Lee–Moore, grid A*, Hightower, sequential.
* :mod:`repro.detail` — dynamic-channel detailed routing.
* :mod:`repro.analysis` — metrics, verification, rendering.
* :mod:`repro.api` — the canonical public surface: ``RouteRequest`` →
  :class:`~repro.api.pipeline.RoutingPipeline` → ``RouteResult``, the
  pluggable strategy registry, and the ``route_many`` batch facade.
* :mod:`repro.incremental` — incremental re-routing: JSON-round-
  trippable layout deltas, the kept/ripped/new dirty-set classifier,
  and warm-started engines behind ``RoutingPipeline.reroute``.
* :mod:`repro.scenarios` — named seeded scenario families, the
  checked-in ``scenarios/`` corpus, and the differential conformance
  runner over every strategy × config-toggle combination.
* :mod:`repro.service` — routing as a service: async job queue with
  admission control, content-addressed result cache, stdlib HTTP
  server (``python -m repro serve``), and the matching client.
"""

from repro.errors import (
    GeometryError,
    LayoutError,
    QueueFullError,
    ReproError,
    RoutingError,
    SearchError,
    ServiceError,
    UnroutableError,
    ValidationError,
)
from repro.geometry import Direction, Interval, ObstacleSet, OrthoPolygon, Point, Rect, Segment
from repro.layout import (
    Cell,
    Layout,
    LayoutSpec,
    Net,
    Pin,
    Terminal,
    grid_layout,
    random_layout,
    validate_layout,
)
from repro.search import Order, SearchProblem, SearchStats, search
from repro.core import (
    CongestionHistory,
    CongestionLedger,
    CongestionMap,
    CostModel,
    EscapeMode,
    GlobalRoute,
    GlobalRouter,
    InvertedCornerCost,
    IterationStats,
    NegotiatedCongestionCost,
    NegotiatedRouter,
    NegotiationConfig,
    NetTiming,
    PathRequest,
    RoutePath,
    RouteTree,
    RouterConfig,
    TargetSet,
    TimingAnalysis,
    TimingConfig,
    TimingDrivenCost,
    TimingDrivenRouter,
    WirelengthCost,
    analyze_route_timing,
    find_path,
    route_net,
)
from repro.baselines import (
    SequentialRouter,
    grid_astar_route,
    hightower_route,
    lee_moore_route,
    route_with_fallback,
)
from repro.detail import DetailedResult, DetailedRouter
from repro.analysis import (
    render_expansion,
    render_layout,
    summarize_route,
    verify_global_route,
)
from repro.incremental import (
    CellMove,
    DirtySet,
    LayoutDelta,
    apply_delta,
    classify_nets,
    compose_deltas,
    plan_reroute,
)
from repro.api import (
    Batch,
    BatchError,
    CongestionSummary,
    DetailSummary,
    RerouteRequest,
    RouteRequest,
    RouteResult,
    RoutingPipeline,
    StrategyOutcome,
    StrategyParamError,
    StrategyRegistry,
    layout_fingerprint,
    register_strategy,
    request_cache_key,
    reroute,
    reroute_cache_key,
    route_many,
)
from repro.scenarios import (
    Scenario,
    build_scenario,
    load_corpus,
    run_conformance,
)
from repro.service import (
    Client,
    RoutingService,
    make_server,
)

__version__ = "1.0.0"

__all__ = [
    "Batch",
    "BatchError",
    "Cell",
    "CellMove",
    "Client",
    "CongestionHistory",
    "CongestionLedger",
    "CongestionMap",
    "CongestionSummary",
    "CostModel",
    "DetailSummary",
    "DetailedResult",
    "DetailedRouter",
    "Direction",
    "DirtySet",
    "EscapeMode",
    "GeometryError",
    "GlobalRoute",
    "GlobalRouter",
    "Interval",
    "InvertedCornerCost",
    "IterationStats",
    "Layout",
    "LayoutDelta",
    "LayoutError",
    "LayoutSpec",
    "NegotiatedCongestionCost",
    "NegotiatedRouter",
    "NegotiationConfig",
    "Net",
    "NetTiming",
    "ObstacleSet",
    "Order",
    "OrthoPolygon",
    "PathRequest",
    "Pin",
    "Point",
    "QueueFullError",
    "Rect",
    "ReproError",
    "RerouteRequest",
    "RoutePath",
    "RouteRequest",
    "RouteResult",
    "RouteTree",
    "RouterConfig",
    "RoutingError",
    "RoutingPipeline",
    "RoutingService",
    "Scenario",
    "SearchError",
    "SearchProblem",
    "SearchStats",
    "Segment",
    "SequentialRouter",
    "ServiceError",
    "StrategyOutcome",
    "StrategyParamError",
    "StrategyRegistry",
    "TargetSet",
    "Terminal",
    "TimingAnalysis",
    "TimingConfig",
    "TimingDrivenCost",
    "TimingDrivenRouter",
    "UnroutableError",
    "ValidationError",
    "WirelengthCost",
    "analyze_route_timing",
    "apply_delta",
    "build_scenario",
    "classify_nets",
    "compose_deltas",
    "find_path",
    "grid_astar_route",
    "grid_layout",
    "hightower_route",
    "layout_fingerprint",
    "lee_moore_route",
    "load_corpus",
    "make_server",
    "plan_reroute",
    "random_layout",
    "register_strategy",
    "render_expansion",
    "render_layout",
    "request_cache_key",
    "reroute",
    "reroute_cache_key",
    "route_many",
    "route_net",
    "route_with_fallback",
    "run_conformance",
    "search",
    "summarize_route",
    "validate_layout",
    "verify_global_route",
]
