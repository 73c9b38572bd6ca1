"""Single-connection line-search A*.

:func:`find_path` routes one connection: from a set of source points
(all pins of the terminal being connected — multi-pin terminals are
just multiple start states) to a :class:`~repro.core.route.TargetSet`
(a destination terminal's pins, or the whole partial route tree).

The search state is a plain :class:`~repro.geometry.point.Point` —
"the space is the routing plane" — unless the cost model prices bends,
in which case states carry the arrival direction so that turning can
be charged exactly.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from repro.errors import UnroutableError
from repro.core.costs import BendPenaltyCost, CostModel, InvertedCornerCost, WirelengthCost
from repro.core.escape import EscapeMode, escape_moves
from repro.core.route import RoutePath, TargetSet
from repro.geometry.point import Direction, Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.segment import Segment
from repro.search.engine import Order, SearchResult, search
from repro.search.problem import SearchProblem
from repro.search.stats import ExpansionTrace, SearchStats
from repro.search.vector import EndpointError, KernelSearch, kernel, search_vectorized

#: Largest escape grid (in states) the compiled search runs on.  The
#: kernel holds 13 bytes per grid state for one search (a float64 g, an
#: int32 parent and a status byte: 52 MB at 4M states), so larger grids
#: take the scalar problem, which allocates per visited state only,
#: with identical results.  This is a memory guard only: a corpus or
#: perfbench grid has a few hundred states.
_DENSE_KEY_LIMIT = 1 << 22


@dataclass
class PathRequest:
    """Everything one connection search needs.

    Attributes
    ----------
    obstacles:
        Ray-tracing view of the layout (cells only, per independent
        net routing; baselines may have added wire obstacles).
    sources:
        Start points with initial costs (normally 0 each).
    targets:
        Goal points/segments.
    cost_model:
        Pricing of segments and bends; defaults to pure wirelength.
    mode:
        Escape-point stop policy.
    order:
        OPEN-list discipline; ``A_STAR`` is the paper's algorithm, the
        others exist for the strategy-comparison experiment.
    node_limit:
        Optional expansion budget.
    trace:
        Record expansion order for rendering.

    One request serves many connections: ``route_net`` builds one per
    net and swaps in each connection's ``sources`` (its ``targets``, the
    tree, grow in place).  Whether the compiled search can serve the
    request at all is decided on its first search, from the fields
    other than those two, and kept with the kernel's problem block
    (:class:`~repro.search.vector.KernelSearch`); so change nothing
    else between searches.  A request belongs to one thread at a time.
    """

    obstacles: ObstacleSet
    sources: list[tuple[Point, float]]
    targets: TargetSet
    cost_model: CostModel = field(default_factory=WirelengthCost)
    mode: EscapeMode = EscapeMode.FULL
    order: Order = Order.A_STAR
    node_limit: Optional[int] = None
    trace: bool = False

    @functools.cached_property
    def _kernel_search(self) -> Optional[KernelSearch]:
        """The compiled search of this request's connections, or ``None``
        where the scalar problem serves every one of them."""
        if not _kernel_serves(self) or kernel() is None:
            return None
        return KernelSearch(
            self.obstacles, self.cost_model, self.order,
            node_limit=self.node_limit, trace=self.trace,
        )


@dataclass
class PathSearchResult:
    """A found connection plus its search telemetry."""

    path: RoutePath
    stats: SearchStats
    trace: Optional[ExpansionTrace] = None


_Pricer = Callable[[Point, Point], float]


class _PointProblem(SearchProblem):
    """Escape search over bare points (direction-insensitive costs)."""

    def __init__(
        self, request: PathRequest, extra_xs: list[int], extra_ys: list[int], price: _Pricer
    ):
        self._req = request
        self._extra_xs = extra_xs
        self._extra_ys = extra_ys
        self._price = price

    def start_states(self) -> Iterable[tuple[Point, float]]:
        return self._req.sources

    def is_goal(self, state: Point) -> bool:
        return self._req.targets.contains(state)

    def successors(self, state: Point) -> Iterable[tuple[Point, float]]:
        for succ, _direction in escape_moves(
            state,
            self._req.obstacles,
            mode=self._req.mode,
            extra_xs=self._extra_xs,
            extra_ys=self._extra_ys,
        ):
            yield succ, self._price(state, succ)

    def heuristic(self, state: Point) -> float:
        return float(self._req.targets.distance_to(state))


DirectedState = tuple[Point, Optional[Direction]]


class _DirectedProblem(SearchProblem):
    """Escape search over (point, heading) states (bend-priced costs)."""

    def __init__(
        self, request: PathRequest, extra_xs: list[int], extra_ys: list[int], price: _Pricer
    ):
        self._req = request
        self._extra_xs = extra_xs
        self._extra_ys = extra_ys
        self._price = price

    def start_states(self) -> Iterable[tuple[DirectedState, float]]:
        return [((point, None), g0) for point, g0 in self._req.sources]

    def is_goal(self, state: DirectedState) -> bool:
        return self._req.targets.contains(state[0])

    def successors(self, state: DirectedState) -> Iterable[tuple[DirectedState, float]]:
        point, heading = state
        model = self._req.cost_model
        for succ, direction in escape_moves(
            point,
            self._req.obstacles,
            mode=self._req.mode,
            extra_xs=self._extra_xs,
            extra_ys=self._extra_ys,
        ):
            cost = self._price(point, succ)
            if heading is not None and heading is not direction:
                cost += model.bend_cost(point, heading, direction)
            yield (succ, direction), cost

    def heuristic(self, state: DirectedState) -> float:
        return float(self._req.targets.distance_to(state[0]))


#: Set while :func:`reference_search` is active.
_REFERENCE = False


@contextmanager
def reference_search() -> Iterator[None]:
    """Route with the scalar oracle.

    While active, every :func:`find_path` in this process searches the
    scalar problem, tracing its rays with
    :meth:`~repro.geometry.raytrace.ObstacleSet.rays` — the plainest
    form of the line-search A*, against which the compiled search and
    its own ray scan are checked.
    The override is process-local: it never reaches the processes of a
    batch or service worker pool.  It is meant for tests, the conformance matrix and the hot-path bench; no
    config, request, CLI flag or environment variable selects it.
    """
    global _REFERENCE
    previous = _REFERENCE
    _REFERENCE = True
    try:
        yield
    finally:
        _REFERENCE = previous


@functools.cache
def _supplier(model_type: type, method: str) -> type:
    """The class in *model_type*'s MRO that defines *method*."""
    return next(cls for cls in model_type.__mro__ if method in vars(cls))


def _prices_in_kernel(model: CostModel) -> bool:
    """Whether ``model.track_terms`` describes ``model.segment_cost``.

    True when one class supplies both methods and any ``base`` the
    model wraps is plain wirelength (the only base the kernel's pricing
    knows).  A subclass that overrides :meth:`segment_cost` alone
    inherits ``track_terms`` that know nothing of it, so it gets the
    scalar problem instead of a mispriced kernel search.
    """
    base = getattr(model, "base", None)
    return _kernel_prices(type(model), None if base is None else type(base))


@functools.cache
def _kernel_prices(kind: type, base: Optional[type]) -> bool:
    """:func:`_prices_in_kernel` for a model class and its base's class."""
    return _supplier(kind, "segment_cost") is _supplier(kind, "track_terms") and (
        base is None or _supplier(base, "segment_cost") is CostModel
    )


def _plain_starts(sources: list[tuple[Point, float]]) -> bool:
    """Whether *sources* are non-empty, non-negative, and never repeated cheaper.

    The scalar engine gives a start point listed again at a lower cost
    a second, detached start node whose stale heap entry can still be
    expanded; the kernel keeps one node per state.  Every router passes
    cost-0 sources, so only a hand-built request takes the scalar
    problem here (which also reports empty and negative starts).
    """
    first: dict[Point, float] = {}
    for point, g0 in sources:
        if not g0 >= 0 or g0 < first.setdefault(point, g0):
            return False
    return bool(sources)


def _use_batched_engine(request: PathRequest) -> bool:
    """Whether the compiled escape-grid search serves *request*.

    The kernel covers the paper's primary configuration: FULL escape
    mode, a cost-ordered OPEN list, and a direction-insensitive cost
    model it prices bit-identically (:func:`_prices_in_kernel`), from
    plain start lists (:func:`_plain_starts`).
    Everything else (AGGRESSIVE mode, blind orders, bend-priced or
    inverted-corner models, subclasses that override only
    ``segment_cost``, unusual start lists) runs the scalar
    problem — results are identical by construction, only the wall
    clock differs.  So do escape grids above :data:`_DENSE_KEY_LIMIT`
    states, and every search of a process whose kernel cannot be built
    (:func:`repro.search.vector.kernel`), which :func:`find_path`
    checks too.
    """
    return _kernel_serves(request) and _plain_starts(request.sources)


def _kernel_serves(request: PathRequest) -> bool:
    """The part of :func:`_use_batched_engine` that holds for every
    connection of a request: made once per request (once per net)."""
    return (
        request.mode is EscapeMode.FULL
        and request.order.is_cost_ordered
        and not request.cost_model.direction_sensitive
        and _prices_in_kernel(request.cost_model)
    )


def _fits_kernel(request: PathRequest) -> bool:
    """Whether *request*'s escape grid is within :data:`_DENSE_KEY_LIMIT` states.

    A line search only ever stops at escape coordinates: the cell and
    bound edges the obstacle set registers (``edge_xs``/``edge_ys``)
    and the connection's source and target coordinates, which the
    kernel merges into the grid that holds every state.  The cheap
    bound counts every box edge and source as a new coordinate; only
    when that bound is over the limit are the shared ones counted out.
    """
    edge_xs, edge_ys = request.obstacles.edge_xs, request.obstacles.edge_ys
    extra = len(request.targets.flat) // 2 + len(request.sources)
    if (len(edge_xs) + extra) * (len(edge_ys) + extra) <= _DENSE_KEY_LIMIT:
        return True
    xs = request.targets.escape_xs() | {p.x for p, _ in request.sources}
    ys = request.targets.escape_ys() | {p.y for p, _ in request.sources}
    columns = len(edge_xs) + sum(x not in edge_xs for x in xs)
    rows = len(edge_ys) + sum(y not in edge_ys for y in ys)
    return columns * rows <= _DENSE_KEY_LIMIT  # a memory guard: the scalar problem has no grid


def find_path(request: PathRequest) -> PathSearchResult:
    """Route one connection.

    Returns the found path with its telemetry, or raises
    :class:`UnroutableError` (carrying the final
    :class:`~repro.search.stats.SearchStats` as ``partial``) when the
    search exhausts or hits its node limit without reaching a target.
    """
    sources, targets = request.sources, request.targets
    engine = None
    if not _REFERENCE and _plain_starts(sources):
        engine = request._kernel_search
        if engine is not None and not _fits_kernel(request):
            engine = None
    if engine is None:
        _check_endpoints(request)  # the kernel checks its endpoints itself

    # Source already touching a target: zero-length connection.
    for point, g0 in sources:
        if targets.contains(point):
            if engine is not None:
                _check_endpoints(request)
            return PathSearchResult(RoutePath((point,), cost=g0), SearchStats(termination="goal"))

    obstacles = request.obstacles
    if engine is not None:
        try:
            result = search_vectorized(engine, sources, targets.flat, len(targets.points))
        except EndpointError:
            _check_endpoints(request)  # raises the precise error
            raise
        # The kernel's rays, on the obstacle set's running count.
        obstacles.ray_probes += result.stats.cache_misses
        flat = result.states
        trace = result.trace
    else:
        # The rays this search traced: the delta of the obstacle set's
        # count, which spans every search on the set.  SearchStats keeps
        # its hit/miss fields; with no memo every probe is a miss.
        probes_before = obstacles.ray_probes
        result = _scalar_search(request)
        result.stats.cache_misses = obstacles.ray_probes - probes_before
        directed = request.cost_model.direction_sensitive
        flat = None
        if result.found:
            points = [state[0] for state in result.states] if directed else result.states
            flat = [c for point in points for c in (point.x, point.y)]
        trace = _strip_trace(result.trace, directed)
    if flat is None:
        raise UnroutableError(
            f"no route from {[str(p) for p, _ in sources]} to "
            f"{len(targets)} target(s) "
            f"(termination: {result.stats.termination})",
            partial=result.stats,
        )
    return PathSearchResult(RoutePath.from_flat(flat, result.goal_cost), result.stats, trace)


def _scalar_search(request: PathRequest) -> SearchResult:
    """Run the scalar problem of *request* through the generic engine.

    Moves are priced by :func:`_hop_pricer`, except under
    :func:`reference_search`, whose oracle prices every move with the
    model's ``segment_cost`` of a :class:`Segment`.
    """
    extra_xs = sorted(request.targets.escape_xs() | {p.x for p, _ in request.sources})
    extra_ys = sorted(request.targets.escape_ys() | {p.y for p, _ in request.sources})
    model = request.cost_model
    price = _segment_pricer(model) if _REFERENCE else _hop_pricer(model)
    problem: SearchProblem
    if model.direction_sensitive:
        problem = _DirectedProblem(request, extra_xs, extra_ys, price)
    else:
        problem = _PointProblem(request, extra_xs, extra_ys, price)
    return search(
        problem,
        request.order,
        node_limit=request.node_limit,
        trace=request.trace,
    )


def _segment_pricer(model: CostModel) -> _Pricer:
    """Price a move by ``model.segment_cost`` of its :class:`Segment`."""
    return lambda a, b: model.segment_cost(Segment(a, b))


def _hop_pricer(model: CostModel) -> _Pricer:
    """``model.segment_cost`` of the move from one point to another,
    bit for bit, without building a :class:`Segment` where it can.

    A model whose ``track_terms`` describe its ``segment_cost``
    (:func:`_prices_in_kernel`, the rule the kernel's pricing follows)
    is priced from those terms, the way the kernel prices it; the bend
    and inverted-corner models, whose own ``segment_cost`` is their
    base's, are priced as their base.  Any other model (a subclass that
    overrides ``segment_cost`` alone, say) is priced by its
    ``segment_cost``.
    """
    if _supplier(type(model), "segment_cost") in (BendPenaltyCost, InvertedCornerCost):
        return _hop_pricer(model.base)
    if not _prices_in_kernel(model):
        return _segment_pricer(model)
    regions, weights, length_weight = model.track_terms()
    terms = list(zip(regions.tolist(), weights.tolist()))
    if not terms and not length_weight:
        return _hop_length
    return functools.partial(_price_by_terms, terms, length_weight)


def _hop_length(a: Point, b: Point) -> float:
    """The plain wirelength price of the move from *a* to *b*."""
    return float(abs(a.x - b.x) + abs(a.y - b.y))


def _price_by_terms(
    terms: list[tuple[list[int], float]], length_weight: float, a: Point, b: Point
) -> float:
    """The price of the move from *a* to *b* by ``track_terms``: its
    length, each region's surcharge on the move's track in declaration
    order, then the length term (:meth:`CostModel.track_terms`)."""
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    if ay == by:  # horizontal: regions whose y span holds the track
        track, lo, hi, axis = ay, min(ax, bx), max(ax, bx), 0
    else:
        track, lo, hi, axis = ax, min(ay, by), max(ay, by), 1
    length = hi - lo
    cost = float(length)
    for region, weight in terms:
        if region[1 - axis] <= track <= region[3 - axis]:
            start = region[axis] if region[axis] > lo else lo
            end = region[axis + 2] if region[axis + 2] < hi else hi
            if start < end:
                cost += weight * (end - start)
    if length_weight:
        cost += length_weight * length
    return cost


def _check_endpoints(request: PathRequest) -> None:
    """Fail fast on illegal endpoints with a precise message."""
    if not request.sources:
        raise UnroutableError("no source points given")
    targets = request.targets.points
    free = request.obstacles.points_free([p for p, _ in request.sources] + targets)
    for (point, g0), ok in zip(request.sources, free):
        if g0 < 0:
            raise UnroutableError(f"negative initial cost {g0} at source {point}")
        if not ok:
            raise UnroutableError(f"source {point} is not routable (inside a cell or outside)")
    for point, ok in zip(targets, free[len(request.sources):]):
        if not ok:
            raise UnroutableError(f"target {point} is not routable (inside a cell or outside)")


def _strip_trace(
    trace: Optional[ExpansionTrace], directed: bool
) -> Optional[ExpansionTrace]:
    """Reduce directed-state traces to point traces for rendering."""
    if trace is None or not directed:
        return trace
    stripped = ExpansionTrace()
    for state, parent in trace.entries:
        stripped.record(state[0], parent[0] if parent is not None else None)
    return stripped
