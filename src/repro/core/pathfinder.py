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

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from repro.errors import SearchError, UnroutableError
from repro.core.costs import CostModel, WirelengthCost
from repro.core.escape import EscapeMode, escape_moves
from repro.core.route import RoutePath, TargetSet
from repro.geometry.point import Direction, Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.segment import Segment
from repro.search.engine import Order, SearchResult, search
from repro.search.problem import SearchProblem
from repro.search.stats import ExpansionTrace, SearchStats
from repro.search.vector import VectorSearchProblem, search_vectorized

#: Largest escape grid (in states) the batched problem searches.  The
#: engine holds two grid-sized float64 arrays per search (the g mirror
#: and the heuristic table; 32 MB each at 4M states), so larger grids
#: take the scalar problem, which needs neither, with identical
#: results.  This is a memory guard only: a corpus or perfbench grid
#: has a few hundred states.
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
    """

    obstacles: ObstacleSet
    sources: list[tuple[Point, float]]
    targets: TargetSet
    cost_model: CostModel = field(default_factory=WirelengthCost)
    mode: EscapeMode = EscapeMode.FULL
    order: Order = Order.A_STAR
    node_limit: Optional[int] = None
    trace: bool = False


@dataclass
class PathSearchResult:
    """A found connection plus its search telemetry."""

    path: RoutePath
    stats: SearchStats
    trace: Optional[ExpansionTrace] = None


class _PointProblem(SearchProblem):
    """Escape search over bare points (direction-insensitive costs)."""

    def __init__(self, request: PathRequest, extra_xs: list[int], extra_ys: list[int]):
        self._req = request
        self._extra_xs = extra_xs
        self._extra_ys = extra_ys

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
            yield succ, self._req.cost_model.segment_cost(Segment(state, succ))

    def heuristic(self, state: Point) -> float:
        return float(self._req.targets.distance_to(state))


DirectedState = tuple[Point, Optional[Direction]]


class _DirectedProblem(SearchProblem):
    """Escape search over (point, heading) states (bend-priced costs)."""

    def __init__(self, request: PathRequest, extra_xs: list[int], extra_ys: list[int]):
        self._req = request
        self._extra_xs = extra_xs
        self._extra_ys = extra_ys

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
            cost = model.segment_cost(Segment(point, succ))
            if heading is not None and heading is not direction:
                cost += model.bend_cost(point, heading, direction)
            yield (succ, direction), cost

    def heuristic(self, state: DirectedState) -> float:
        return float(self._req.targets.distance_to(state[0]))


class _BatchedPointProblem(VectorSearchProblem):
    """FULL-mode escape search over the connection's escape grid, batched.

    A line search only ever stops at escape coordinates: the cell and
    bound edges the obstacle set registers (``edge_xs``/``edge_ys``)
    and the connection's source and target coordinates.  Merged once
    into ascending columns ``mx`` and rows ``my``, they span a small
    grid that holds every state, so a state is its flat grid index
    ``ix * len(my) + iy``, a plain int; :meth:`point` converts back and
    :func:`find_path` does so at the boundary.

    One expansion is one :meth:`~repro.geometry.raytrace.ObstacleSet.reaches`
    probe (memoized, else two lookups in the per-track blocker index),
    whose four reaches are exactly where ``first_hit`` stops in
    :func:`~repro.core.escape.escape_moves` and always lie on the grid
    (a reach off it raises :class:`SearchError`).  Each ray's stops
    are then a contiguous slice of ``mx`` or ``my`` — east
    ``mx[ix + 1 : ie + 1]``, west ``mx[iw : ix]``, north and south
    likewise — and all successors are priced in one
    :meth:`~repro.core.costs.CostModel.expansion_costs` call.  Successor
    order (EAST, WEST, NORTH, SOUTH, each ray's stops ascending) and
    every float match the scalar :class:`_PointProblem` bit for bit.

    The engine's g mirror has one entry per grid state, and heuristics
    are one gather from a per-search table of
    :meth:`~repro.core.route.TargetSet.distance_grid`, built on first
    use.  :func:`find_path` only builds this problem for grids of at
    most :data:`_DENSE_KEY_LIMIT` states.
    """

    def __init__(
        self,
        request: PathRequest,
        extra_xs: list[int],
        extra_ys: list[int],
    ):
        self._obstacles = request.obstacles
        self._model = request.cost_model
        self._targets = request.targets
        self._mx = np.union1d(
            request.obstacles.edge_xs.as_array(), np.asarray(extra_xs, dtype=np.int64)
        )
        self._my = np.union1d(
            request.obstacles.edge_ys.as_array(), np.asarray(extra_ys, dtype=np.int64)
        )
        self._xs = self._mx.tolist()
        self._ys = self._my.tolist()
        self._col = {x: i for i, x in enumerate(self._xs)}
        self._row = {y: j for j, y in enumerate(self._ys)}
        ny = self._ny = len(self._ys)
        self._sources = [
            (self._col[p.x] * ny + self._row[p.y], g0) for p, g0 in request.sources
        ]
        self._size = len(self._xs) * ny
        self._h: Optional[np.ndarray] = None

    def point(self, state: int) -> Point:
        """The routing-plane point of a grid state."""
        ix, iy = divmod(state, self._ny)
        return Point(self._xs[ix], self._ys[iy])

    def describe(self, state: int) -> str:
        p = self.point(state)
        return f"({p.x}, {p.y})"

    def start_states(self) -> list[tuple[int, float]]:
        return self._sources

    def is_goal(self, state: int) -> bool:
        ix, iy = divmod(state, self._ny)
        return self._targets.contains_xy(self._xs[ix], self._ys[iy])

    def size(self) -> int:
        return self._size

    def expand(self, state: int) -> tuple[np.ndarray, np.ndarray]:
        """Every successor of *state* and its edge cost, in order."""
        ny = self._ny
        ix, iy = divmod(state, ny)
        x = self._xs[ix]
        y = self._ys[iy]
        east, west, north, south = self._obstacles.reaches(x, y)
        col = self._col
        row = self._row
        try:
            ie, iw, in_, is_ = col[east], col[west], row[north], row[south]
        except KeyError:
            raise SearchError(
                f"ray reaches {(east, west, north, south)} from ({x}, {y}) "
                "are not all on the escape grid"
            ) from None
        mx = self._mx
        my = self._my
        stops = np.concatenate(
            (mx[ix + 1 : ie + 1], mx[iw:ix], my[iy + 1 : in_ + 1], my[is_:iy])
        )
        # The same successors as states: a step along a row moves the
        # state by ny, a step along a column by 1.
        spans = (
            (state + ny, state + (ie - ix + 1) * ny, ny),
            (state - (ix - iw) * ny, state, ny),
            (state + 1, state + in_ - iy + 1, 1),
            (state - iy + is_, state, 1),
        )
        succ = np.concatenate([np.arange(*span, dtype=np.int64) for span in spans])
        nh = ie - iw
        return succ, self._model.expansion_costs(x, y, stops[:nh], stops[nh:])

    def heuristics(self, states: np.ndarray) -> np.ndarray:
        table = self._h
        if table is None:
            grid = self._targets.distance_grid(self._mx, self._my)
            table = self._h = grid.ravel().astype(np.float64)
        return table[states]


#: Set while :func:`reference_search` is active.
_REFERENCE = False


@contextmanager
def reference_search() -> Iterator[None]:
    """Route with the scalar oracle, the ray memo off, and scanned rays.

    While active, every :func:`find_path` in this process searches the
    scalar problem with the obstacle set's ray memo switched off and
    its rays traced by the plain numpy scan instead of the per-track
    blocker index, for the duration of the search — the plainest form
    of the line-search A*, against which the batched problem, the memo
    and the index are checked.
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


def _supplier(model: CostModel, method: str) -> type:
    """The class in *model*'s MRO that defines *method*."""
    return next(cls for cls in type(model).__mro__ if method in vars(cls))


def _prices_in_batches(model: CostModel) -> bool:
    """Whether ``model.expansion_costs`` prices like ``model.segment_cost``.

    True when one class supplies both methods and any ``base`` the
    model wraps is plain wirelength (the only base the fused batched
    pricing folds in).  A subclass that overrides :meth:`segment_cost`
    alone inherits an ``expansion_costs`` that knows nothing of it, so
    it gets the scalar problem instead of a mispriced batch.
    """
    base = getattr(model, "base", None)
    return _supplier(model, "segment_cost") is _supplier(model, "expansion_costs") and (
        base is None or _supplier(base, "segment_cost") is CostModel
    )


def _use_batched_engine(request: PathRequest) -> bool:
    """Whether the batched problem serves *request*.

    The batched problem covers the paper's primary configuration: FULL
    escape mode, a cost-ordered OPEN list, and a direction-insensitive
    cost model that prices batches bit-identically
    (:func:`_prices_in_batches`).  Everything else (AGGRESSIVE mode,
    blind orders, bend-priced or inverted-corner models, subclasses
    that override only ``segment_cost``) runs the scalar problem —
    results are identical by construction, only the wall clock differs.
    So do escape grids above :data:`_DENSE_KEY_LIMIT` states, which
    :func:`find_path` checks once the grid is built.
    """
    return (
        request.mode is EscapeMode.FULL
        and request.order.is_cost_ordered
        and not request.cost_model.direction_sensitive
        and _prices_in_batches(request.cost_model)
    )


def find_path(request: PathRequest) -> PathSearchResult:
    """Route one connection.

    Returns the found path with its telemetry, or raises
    :class:`UnroutableError` (carrying the final
    :class:`~repro.search.stats.SearchStats` as ``partial``) when the
    search exhausts or hits its node limit without reaching a target.
    """
    _check_endpoints(request)

    # Source already touching a target: zero-length connection.
    for point, g0 in request.sources:
        if request.targets.contains(point):
            return PathSearchResult(RoutePath((point,), cost=g0), SearchStats(termination="goal"))

    extra_xs = sorted(request.targets.escape_xs() | {p.x for p, _ in request.sources})
    extra_ys = sorted(request.targets.escape_ys() | {p.y for p, _ in request.sources})

    reference = _REFERENCE
    grid = None
    if not reference and _use_batched_engine(request):
        grid = _BatchedPointProblem(request, extra_xs, extra_ys)
        if grid.size() > _DENSE_KEY_LIMIT:
            grid = None  # memory guard: the scalar problem has no grid arrays

    # Ray-cache traffic attributable to this search: delta of the
    # obstacle set's counters around the search (the set is shared
    # across connections, so absolute values span many searches).
    obstacles = request.obstacles
    hits_before = obstacles.ray_cache_hits
    misses_before = obstacles.ray_cache_misses
    if reference:
        memo_enabled = obstacles.ray_cache_enabled
        scan_rays = obstacles._scan_rays
        obstacles.ray_cache_enabled = False
        obstacles._scan_rays = True
        try:
            result = _search(request, extra_xs, extra_ys, grid)
        finally:
            obstacles.ray_cache_enabled = memo_enabled
            obstacles._scan_rays = scan_rays
    else:
        result = _search(request, extra_xs, extra_ys, grid)
    result.stats.cache_hits = obstacles.ray_cache_hits - hits_before
    result.stats.cache_misses = obstacles.ray_cache_misses - misses_before
    if not result.found:
        raise UnroutableError(
            f"no route from {[str(p) for p, _ in request.sources]} to "
            f"{len(request.targets)} target(s) "
            f"(termination: {result.stats.termination})",
            partial=result.stats,
        )

    raw_states = result.path
    if grid is not None:
        points = [grid.point(state) for state in raw_states]
    elif request.cost_model.direction_sensitive:
        points = [state[0] for state in raw_states]
    else:
        points = list(raw_states)
    path = RoutePath(tuple(_compress_collinear(points)), cost=result.cost)
    if grid is not None:
        trace = _point_trace(result.trace, grid.point)
    else:
        trace = _strip_trace(result.trace, request.cost_model.direction_sensitive)
    return PathSearchResult(path, result.stats, trace)


def _search(
    request: PathRequest,
    extra_xs: list[int],
    extra_ys: list[int],
    grid: Optional[_BatchedPointProblem],
) -> SearchResult:
    """Run the batched problem *grid*, or the scalar problem without one."""
    if grid is not None:
        return search_vectorized(
            grid,
            request.order,
            node_limit=request.node_limit,
            trace=request.trace,
        )
    problem: SearchProblem
    if request.cost_model.direction_sensitive:
        problem = _DirectedProblem(request, extra_xs, extra_ys)
    else:
        problem = _PointProblem(request, extra_xs, extra_ys)
    return search(
        problem,
        request.order,
        node_limit=request.node_limit,
        trace=request.trace,
    )


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


def _compress_collinear(points: list[Point]) -> list[Point]:
    """Drop interior points that do not change direction."""
    if len(points) <= 2:
        return points
    compressed = [points[0]]
    for prev, here, nxt in zip(points, points[1:], points[2:]):
        straight_x = prev.x == here.x == nxt.x
        straight_y = prev.y == here.y == nxt.y
        if not (straight_x or straight_y):
            compressed.append(here)
    compressed.append(points[-1])
    return compressed


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


def _point_trace(
    trace: Optional[ExpansionTrace], point: Callable[[int], Point]
) -> Optional[ExpansionTrace]:
    """Convert the batched engine's grid-state trace to points."""
    if trace is None:
        return trace
    converted = ExpansionTrace()
    for state, parent in trace.entries:
        converted.record(point(state), point(parent) if parent is not None else None)
    return converted
