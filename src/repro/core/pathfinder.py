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
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.errors import UnroutableError
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

#: Largest flat key space (in states) the batched problem will mirror
#: into the engine's dense g array — 4M states is 32 MB of float64,
#: comfortably covering every corpus surface; anything larger uses the
#: generic dict-only path with identical results.
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
    """FULL-mode escape search over bare ``(x, y)`` tuples, batched.

    One :meth:`expand` call prices a whole expansion: the four clear
    rays come from one :meth:`~repro.geometry.raytrace.ObstacleSet.reaches`
    probe (memoized, else two lookups in the per-track blocker index)
    and reach exactly as far as ``first_hit`` does in
    :func:`~repro.core.escape.escape_moves`, but the stop
    coordinates along each ray come from ``searchsorted`` slices of
    pre-snapshotted edge/extra columns, and segment costs plus the
    target-distance heuristic are evaluated per batch.  Successor
    order — EAST, WEST, NORTH, SOUTH, each ray's stops ascending — and
    every float match the scalar :class:`_PointProblem` bit for bit.

    States are plain int tuples rather than :class:`Point` objects;
    equality and hashing coincide, and :func:`find_path` converts back
    at the boundary.
    """

    def __init__(
        self,
        request: PathRequest,
        extra_xs: list[int],
        extra_ys: list[int],
    ):
        self._req = request
        self._obstacles = request.obstacles
        self._model = request.cost_model
        self._targets = request.targets
        # Stop coordinates are drawn from the union of edge and extra
        # columns; both are fixed for the whole search, so merge once
        # and slice per ray instead of deduplicating per ray.
        self._stops_x = np.union1d(
            request.obstacles.edge_xs.as_array(), np.asarray(extra_xs, dtype=np.int64)
        )
        self._stops_y = np.union1d(
            request.obstacles.edge_ys.as_array(), np.asarray(extra_ys, dtype=np.int64)
        )
        # Dense-key layout for the engine's batched g prefilter: every
        # reachable state lies inside the closed routing bound, so
        # (x, y) flattens to (x - x0) * stride + (y - y0).  Surfaces
        # large enough to make the flat array a memory concern fall
        # back to the generic dict-only path.
        bound = request.obstacles.bound
        self._key_stride = bound.y1 - bound.y0 + 1
        self._key_base_x = bound.x0
        self._key_base_y = bound.y0
        size = (bound.x1 - bound.x0 + 1) * self._key_stride
        self._dense = size if size <= _DENSE_KEY_LIMIT else None

    def start_states(self) -> list[tuple[tuple[int, int], float]]:
        return [((p.x, p.y), g0) for p, g0 in self._req.sources]

    def is_goal(self, state: tuple[int, int]) -> bool:
        return self._targets.contains_xy(state[0], state[1])

    def heuristic(self, state: tuple[int, int]) -> float:
        return float(self._targets.distance_to(Point(state[0], state[1])))

    @staticmethod
    def _axis_stops(origin: int, fwd_reach: int, back_reach: int, merged: np.ndarray) -> np.ndarray:
        """Stop coordinates of both rays on one axis, in one array.

        Forward (east/north) stops first — ascending, reach last —
        then backward (west/south) stops — reach first, then ascending.
        This is the exact successor order of ``escape_moves`` plus
        ``_stops_for_ray``: each ray contributes every merged
        edge/extra coordinate strictly inside its span (the
        open-interval ``searchsorted`` slice excludes both span ends,
        so the origin never appears) plus its reach, already sorted
        and distinct without any per-ray dedup.
        """
        searchsorted = merged.searchsorted
        if fwd_reach != origin:
            f0 = searchsorted(origin, side="right")
            f1 = searchsorted(fwd_reach, side="left")
            n_fwd = f1 - f0 + 1
        else:
            f0 = f1 = n_fwd = 0
        if back_reach != origin:
            b0 = searchsorted(back_reach, side="right")
            b1 = searchsorted(origin, side="left")
            n_back = b1 - b0 + 1
        else:
            b0 = b1 = n_back = 0
        out = np.empty(n_fwd + n_back, dtype=np.int64)
        if n_fwd:
            out[: n_fwd - 1] = merged[f0:f1]
            out[n_fwd - 1] = fwd_reach
        if n_back:
            out[n_fwd] = back_reach
            out[n_fwd + 1:] = merged[b0:b1]
        return out

    def _rays(self, x: int, y: int) -> tuple[np.ndarray, np.ndarray]:
        """Stop columns (``hx``) and rows (``vy``) of the four rays."""
        east, west, north, south = self._obstacles.reaches(x, y)
        return (
            self._axis_stops(x, east, west, self._stops_x),
            self._axis_stops(y, north, south, self._stops_y),
        )

    def expand(
        self, state: tuple[int, int], with_h: bool
    ) -> tuple[list[tuple[int, int]], np.ndarray, Optional[np.ndarray]]:
        x, y = state
        hx, vy = self._rays(x, y)
        states = [(cx, y) for cx in hx.tolist()]
        states.extend((x, cy) for cy in vy.tolist())
        costs = self._model.expansion_costs(x, y, hx, vy)
        if not with_h:
            return states, costs, None
        hs = self._targets.distances_expansion(hx, y, vy, x)
        return states, costs, hs

    def dense_size(self) -> Optional[int]:
        return self._dense

    def dense_key(self, state: tuple[int, int]) -> int:
        return (state[0] - self._key_base_x) * self._key_stride + (
            state[1] - self._key_base_y
        )

    def expand_dense(self, state: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        x, y = state
        hx, vy = self._rays(x, y)
        stride = self._key_stride
        nh = hx.shape[0]
        keys = np.empty(nh + vy.shape[0], dtype=np.int64)
        np.multiply(hx, stride, out=keys[:nh])
        keys[:nh] += y - self._key_base_y - self._key_base_x * stride
        keys[nh:] = vy
        keys[nh:] += (x - self._key_base_x) * stride - self._key_base_y
        costs = self._model.expansion_costs(x, y, hx, vy)
        self._last_batch = (x, y, hx, vy, nh)
        return keys, costs

    def dense_winners(
        self, winners: np.ndarray, with_h: bool
    ) -> tuple[list[tuple[int, int]], Optional[np.ndarray]]:
        x, y, hx, vy, nh = self._last_batch
        split = int(winners.searchsorted(nh))
        hx_w = hx[winners[:split]]
        vy_w = vy[winners[split:] - nh]
        states = [(cx, y) for cx in hx_w.tolist()]
        states.extend((x, cy) for cy in vy_w.tolist())
        if not with_h:
            return states, None
        # Per-point distances: each batch column is an independent
        # min-over-targets, so the subset evaluates bit-identically to
        # slicing the full batch.
        hs = self._targets.distances_expansion(hx_w, y, vy_w, x)
        return states, hs


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
    batched = not reference and _use_batched_engine(request)

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
            result = _search(request, extra_xs, extra_ys, batched)
        finally:
            obstacles.ray_cache_enabled = memo_enabled
            obstacles._scan_rays = scan_rays
    else:
        result = _search(request, extra_xs, extra_ys, batched)
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
    if batched:
        points = [Point(sx, sy) for sx, sy in raw_states]
    elif request.cost_model.direction_sensitive:
        points = [state[0] for state in raw_states]
    else:
        points = list(raw_states)
    path = RoutePath(tuple(_compress_collinear(points)), cost=result.cost)
    if batched:
        trace = _point_trace(result.trace)
    else:
        trace = _strip_trace(result.trace, request.cost_model.direction_sensitive)
    return PathSearchResult(path, result.stats, trace)


def _search(
    request: PathRequest, extra_xs: list[int], extra_ys: list[int], batched: bool
) -> SearchResult:
    """Run the batched or the scalar problem for *request*."""
    if batched:
        return search_vectorized(
            _BatchedPointProblem(request, extra_xs, extra_ys),
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
    for point, g0 in request.sources:
        if g0 < 0:
            raise UnroutableError(f"negative initial cost {g0} at source {point}")
        if not request.obstacles.point_free(point):
            raise UnroutableError(f"source {point} is not routable (inside a cell or outside)")
    for point in request.targets.points:
        if not request.obstacles.point_free(point):
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


def _point_trace(trace: Optional[ExpansionTrace]) -> Optional[ExpansionTrace]:
    """Convert the batched engine's tuple-state trace to points."""
    if trace is None:
        return trace
    converted = ExpansionTrace()
    for state, parent in trace.entries:
        converted.record(
            Point(state[0], state[1]),
            Point(parent[0], parent[1]) if parent is not None else None,
        )
    return converted
