"""The compiled escape-grid search.

The scalar engine (:mod:`repro.search.engine`) spends almost all of a
line search's wall time on per-successor interpreter work: a ray
probe, a ``Segment``, a cost-model call that loops over the congestion
regions, a heuristic call that loops over the targets, and a heap
push.  :func:`search_vectorized` runs the whole A* of one connection
in one C function instead (``escape_astar.c``, next to this module):
the heap, the four ray reaches of every expansion (a scan of the
obstacle set's int64 rect columns), the successor pricing, the
heuristic and goal test from the target boxes, the node limit, the
expansion trace and every counter.

Bit-exactness contract: the kernel forms every float the way the
Python code does (integer lengths rounded once, region surcharges
added in declaration order, no fused multiply-add), orders its heap
like Python tuples and sifts it like :mod:`heapq`, so routes, costs,
node counters and traces equal the scalar oracle's.  The parity suites
pin this.

A thin shell around each call: the kernel's C work on a connection
takes a few microseconds, so the Python around it is kept to what
changes per connection.  A :class:`KernelSearch` holds the problem
block (obstacle arrays, pricing terms, heuristic switch, node limit,
trace switch) and the result for a run of connections, one net's in
``route_net``; :func:`search_vectorized` packs the connection's boxes
and sources into one int64 buffer, sets the five connection fields in
place and makes the call.  The result's path and trace buffers are the
kernel's, grown as needed and reused by every search of the block until
it is collected.  The path comes back as ints, from which
:meth:`~repro.core.route.RoutePath.from_flat` builds the route path.

Threads: a :class:`KernelSearch` is mutable and belongs to one thread
at a time, since the kernel runs with the GIL released and reads the
block throughout.  Each :class:`~repro.core.pathfinder.PathRequest`
builds its own, and each net routes on one thread, so the service's
worker threads, each routing its own requests, never share one.  The
memo of per-obstacle-set and per-cost-model terms (:func:`_block`)
holds tuples that no search writes.

The library is compiled on the first search of a process, never at
import: ``-O2 -std=c99 -fPIC -shared -ffp-contract=off`` with the
interpreter's configured C compiler, else ``cc``, into
:data:`CACHE_DIR` under a name keyed by a hash of the source and the
flags, through a temporary file and an atomic rename (concurrent first
builds are safe).  When no compiler works, :func:`kernel` warns once
and returns ``None``, and the pathfinder searches with the scalar
problem; results are the same, only slower.
"""

from __future__ import annotations

import array
import ctypes
import math
import os
import threading
import time
import warnings
import weakref
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.errors import SearchError
from repro.geometry.point import Point
from repro.geometry.raytrace import ObstacleSet
from repro.search.engine import Order, SearchResult
from repro.search.stats import ExpansionTrace, SearchStats

if TYPE_CHECKING:
    from repro.core.costs import CostModel

_SOURCE = Path(__file__).with_name("escape_astar.c")

#: Compiler flags.  ``-ffp-contract=off`` keeps ``cost += w * overlap``
#: two roundings on targets (aarch64) that would otherwise fuse it.
FLAGS = ("-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")

#: Where built kernels are kept: a per-user cache outside any checkout,
#: one file per hash of the source and :data:`FLAGS`.
CACHE_DIR = Path(os.path.expanduser("~")) / ".cache" / "repro"

_I64 = ctypes.POINTER(ctypes.c_int64)


class _Problem(ctypes.Structure):
    _fields_ = [
        ("bx0", ctypes.c_int64), ("by0", ctypes.c_int64),
        ("bx1", ctypes.c_int64), ("by1", ctypes.c_int64),
        ("nrects", ctypes.c_int64), ("rects", ctypes.c_void_p),
        ("nedge_x", ctypes.c_int64), ("nedge_y", ctypes.c_int64),
        ("edge_x", ctypes.c_void_p), ("edge_y", ctypes.c_void_p),
        ("ntargets", ctypes.c_int64), ("npoints", ctypes.c_int64),
        ("nsources", ctypes.c_int64),
        ("connection", ctypes.c_void_p), ("source_costs", ctypes.c_void_p),
        ("nregions", ctypes.c_int64), ("regions", ctypes.c_void_p),
        ("weights", ctypes.c_void_p), ("length_weight", ctypes.c_double),
        ("node_limit", ctypes.c_int64),
        ("use_heuristic", ctypes.c_int32), ("trace", ctypes.c_int32),
    ]


class _Result(ctypes.Structure):
    _fields_ = [
        ("expanded", ctypes.c_int64), ("generated", ctypes.c_int64),
        ("reopened", ctypes.c_int64), ("max_open", ctypes.c_int64),
        ("probes", ctypes.c_int64),
        ("termination", ctypes.c_int32), ("error", ctypes.c_int32),
        ("cost", ctypes.c_double),
        ("path_len", ctypes.c_int64), ("path_cap", ctypes.c_int64), ("path", _I64),
        ("trace_len", ctypes.c_int64), ("trace_cap", ctypes.c_int64), ("trace", _I64),
        ("error_x", ctypes.c_int64), ("error_y", ctypes.c_int64),
        ("error_reach", ctypes.c_int64 * 4),
    ]


_TERMINATIONS = ("goal", "exhausted", "limit")
_NO_MEMORY, _BAD_ENDPOINT, _OFF_GRID, _TOO_BIG = 1, 2, 3, 4


class EndpointError(SearchError):
    """A source or target point lies outside the bound or inside a cell."""


def _compilers() -> list[list[str]]:
    """Compiler commands to try, in order: the interpreter's CC, then ``cc``."""
    import shlex
    import sysconfig

    configured = sysconfig.get_config_var("CC")
    commands = [shlex.split(configured)] if configured else []
    return commands + [["cc"]]


def build(cache_dir: Path) -> Path:
    """The kernel library in *cache_dir*, compiled first if it is not there.

    Each compiler writes to its own temporary file, renamed into place
    only when the build succeeded, so concurrent first builds leave one
    complete library.  Raises :class:`OSError` when no compiler works.
    """
    import hashlib  # the build's modules load with the first search, not at import
    import subprocess
    import tempfile

    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(source + " ".join(FLAGS).encode()).hexdigest()[:16]
    target = cache_dir / f"escape_astar-{digest}.so"
    if target.exists():
        return target
    cache_dir.mkdir(parents=True, exist_ok=True)
    failures = []
    for command in _compilers():
        fd, scratch = tempfile.mkstemp(prefix=f".{target.name}.", dir=cache_dir)
        os.close(fd)
        try:
            done = subprocess.run(
                [*command, *FLAGS, "-o", scratch, str(_SOURCE)],
                capture_output=True, text=True, check=False,
            )
            if done.returncode == 0:
                os.replace(scratch, target)
                return target
            failures.append(f"{command[0]}: {done.stderr.strip() or done.returncode}")
        except OSError as exc:
            failures.append(f"{command[0]}: {exc}")
        finally:
            if os.path.exists(scratch):
                os.unlink(scratch)
    raise OSError("cannot compile the search kernel: " + "; ".join(failures))


_lock = threading.Lock()
_kernel: Optional[ctypes.CDLL] = None
_unavailable = False


def kernel() -> Optional[ctypes.CDLL]:
    """The loaded kernel, built on first use; ``None`` if it cannot be.

    The first failure warns once per process and is remembered, so a
    machine without a compiler pays for one attempt.
    """
    global _kernel, _unavailable
    if _kernel is not None or _unavailable:
        return _kernel
    with _lock:
        if _kernel is None and not _unavailable:
            try:
                library = ctypes.CDLL(str(build(CACHE_DIR)))
            except OSError as exc:
                _unavailable = True
                warnings.warn(
                    f"{exc}; line searches fall back to the scalar problem "
                    "(same routes, slower)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return None
            library.rk_search.argtypes = (ctypes.POINTER(_Problem), ctypes.POINTER(_Result))
            library.rk_search.restype = ctypes.c_int
            library.rk_release.argtypes = (ctypes.POINTER(_Result),)
            library.rk_release.restype = None
            _kernel = library
    return _kernel


#: Per obstacle set and per cost model: the kernel's arguments that
#: live as long as the object does (the addresses of its arrays, which
#: the object keeps alive).
_blocks: "weakref.WeakKeyDictionary[object, tuple]" = weakref.WeakKeyDictionary()


def _block(owner: object, make: Callable[[object], tuple]) -> tuple:
    try:
        block = _blocks.get(owner)
    except TypeError:  # an unhashable cost model: no memo
        return make(owner)
    if block is None:
        block = _blocks[owner] = make(owner)
    return block


def _obstacle_block(obstacles: ObstacleSet) -> tuple:
    bound = obstacles.bound
    edge_xs = obstacles.edge_xs.as_array()
    edge_ys = obstacles.edge_ys.as_array()
    columns = obstacles.columns
    return (
        bound.x0, bound.y0, bound.x1, bound.y1,
        columns.shape[1], columns.ctypes.data,
        edge_xs.shape[0], edge_ys.shape[0], edge_xs.ctypes.data, edge_ys.ctypes.data,
    )


def _pricing_block(model: CostModel) -> tuple:
    regions, weights, length_weight = model.track_terms()
    regions = np.ascontiguousarray(regions, dtype=np.int64).reshape(-1, 4)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    # The arrays ride along (unused by the kernel) to outlive their addresses.
    return regions.shape[0], regions.ctypes.data, weights.ctypes.data, length_weight, regions, weights


class KernelSearch:
    """The kernel's problem block and result, filled once for many connections.

    Everything but the connection is set here, once: the obstacle set's
    arrays, the cost model's pricing terms, the heuristic switch of the
    order, the node limit and the trace switch.  Each
    :func:`search_vectorized` sets only the connection's fields in
    place, and reuses the one result, whose path and trace buffers the
    kernel grows as needed; they are freed with this object.

    An instance is mutable state and belongs to one thread at a time.
    :class:`~repro.core.pathfinder.PathRequest` builds its own on its
    first compiled search, and ``route_net`` builds one request per net,
    so threads routing their own nets never share one.
    """

    __slots__ = ("problem", "out", "args", "call", "_terms", "__weakref__")

    def __init__(
        self,
        obstacles: ObstacleSet,
        cost_model: CostModel,
        order: Order = Order.A_STAR,
        *,
        node_limit: Optional[int] = None,
        trace: bool = False,
    ):
        if not order.is_cost_ordered:
            raise SearchError(
                f"vectorized search supports cost-ordered orders only, got {order.value}"
            )
        library = kernel()
        if library is None:
            raise SearchError("the compiled search kernel is unavailable")
        # Kept here too: an unhashable model's terms are not memoized.
        self._terms = _block(cost_model, _pricing_block)
        self.problem = _Problem(
            *_block(obstacles, _obstacle_block),
            0, 0, 0, None, None,
            *self._terms[:4],
            -1 if node_limit is None else max(node_limit, 0),
            order is Order.A_STAR, trace,
        )
        self.out = _Result()
        self.args = (ctypes.byref(self.problem), ctypes.byref(self.out))
        self.call = library.rk_search
        weakref.finalize(self, library.rk_release, self.args[1])


def search_vectorized(
    search: KernelSearch,
    sources: list[tuple[Point, float]],
    boxes: list[int],
    points: int,
) -> SearchResult[int]:
    """Run one connection's cost-ordered OPEN/CLOSED search in the kernel.

    The connection runs from *sources* to the targets *boxes*, flat:
    ``x0, x1, y0, y1`` per target
    (:attr:`~repro.core.route.TargetSet.flat`), the first *points* of
    them target points, which must be routable like the sources.  The
    escape grid's columns are ``obstacles.edge_xs`` merged with the
    boxes' and the sources' x coordinates, its rows likewise; the
    kernel sorts and merges them itself, and every stop of the line
    search lies on that grid.  Moves are priced by
    ``cost_model.track_terms()``
    (:meth:`~repro.core.costs.CostModel.track_terms`).

    Semantics — goal test at pop, reopening of CLOSED nodes, node-limit
    termination, stats, traces — are the scalar loop's, node for node.
    Best-first search is the same loop with ``h = 0``: its keys
    ``(g + 0.0, -g, counter)`` order exactly like the scalar engine's
    ``(g, 0.0, counter)``, since equal first keys mean equal g.

    The path comes back as ints: the result's ``states`` are
    ``x0, y0, x1, y1, ...`` from a start to the goal, or ``None``.  The
    trace, when *search* records one, holds points.
    ``stats.cache_misses`` holds the rays the search traced (four per
    expansion).  Callers keep grids within the kernel's int32 state
    numbering.
    """
    started = time.perf_counter()
    problem = search.problem
    connection = array.array("q", boxes)
    for point, _ in sources:
        connection.append(point.x)
    for point, _ in sources:
        connection.append(point.y)
    costs = array.array("d", [g0 for _, g0 in sources])
    problem.ntargets = len(boxes) >> 2
    problem.npoints = points
    problem.nsources = len(sources)
    problem.connection = connection.buffer_info()[0]
    problem.source_costs = costs.buffer_info()[0]
    out = search.out
    error = search.call(*search.args)
    if error:
        _raise(out, error)
    path_len = out.path_len
    stats = SearchStats(
        out.expanded, out.generated, out.reopened, out.max_open, 0.0,
        _TERMINATIONS[out.termination], 0, out.probes,
    )
    expansion = None
    if problem.trace:
        expansion = ExpansionTrace()
        flat = out.trace[: 5 * out.trace_len]
        for k in range(0, len(flat), 5):
            x, y, has_parent, px, py = flat[k : k + 5]
            expansion.record(Point(x, y), Point(px, py) if has_parent else None)
    stats.elapsed_seconds = time.perf_counter() - started
    if path_len:
        return SearchResult(out.path[: 2 * path_len], out.cost, stats, expansion)
    return SearchResult(None, math.inf, stats, expansion)


def _raise(out: _Result, error: int) -> None:
    """Raise the error kernel code *error* stands for."""
    if error == _NO_MEMORY:
        raise MemoryError("the search kernel ran out of memory")
    if error == _TOO_BIG:
        raise SearchError("the escape grid has too many states for the search kernel")
    if error == _BAD_ENDPOINT:
        raise EndpointError("a source or target point is not routable")
    raise SearchError(
        f"ray reaches {tuple(out.error_reach)} from ({out.error_x}, {out.error_y}) "
        "are not all on the escape grid"
    )
