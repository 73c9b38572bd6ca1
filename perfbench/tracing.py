"""Outside-in tracing of ``repro`` for the traced benchmark run.

Nothing under ``src/`` knows it is measured.  :class:`Tracer` replaces
public functions and methods at each layer boundary with wrappers that
record one span per call, and puts the originals back afterwards.

A module binds a function's name when it is imported: ``from
repro.core.pathfinder import find_path`` copies the reference into
``repro.core.steiner``, so patching only the defining module would miss
every caller.  :meth:`Tracer.patch_function` therefore replaces the
original object wherever a loaded ``repro`` module holds it.  Methods
are looked up on the class at call time, so :meth:`Tracer.patch_method`
patches the defining class once.

A boundary that cannot be found (renamed, inlined, deleted) is not an
error: it patches zero sites, its calls stay at zero, and the report
marks the metrics that read it as unmeasured.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional


class Span:
    """One wrapped call: its name, clock interval, causing span and request."""

    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name: str, start: float, parent: Optional["Span"], request: Optional[str]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request


class Tracer:
    """Span recorder plus the counters the boundary hooks accumulate.

    Spans stay in memory until :meth:`dump`.  Parents are tracked per
    thread, so a span's parent is the innermost wrapped call still open
    on the same thread.  The request id is per thread too: the caller
    sets it (:meth:`set_request`), or a wrapper derives it from its
    arguments (``request_of``) for the duration of the call.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Boundary group -> bindings replaced; 0 means the boundary is gone.
        self.sites: dict[str, int] = defaultdict(int)
        self._group_of: dict[str, str] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def set_request(self, request_id: Optional[str]) -> None:
        """Tag the spans this thread records next with *request_id*."""
        self._local.request = request_id

    def add(self, **amounts: float) -> None:
        """Add to named counters (hooks run on several threads at once)."""
        with self._lock:
            for key, value in amounts.items():
                self.counters[key] += value

    def _wrap(
        self,
        name: str,
        fn: Callable,
        *,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        failed: Optional[Callable] = None,
        request_of: Optional[Callable] = None,
    ) -> Callable:
        local = self._local
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            previous = getattr(local, "request", None)
            request = request_of(args) if request_of is not None else previous
            local.request = request
            if before is not None:
                before(args, kwargs)
            span = Span(name, clock(), stack[-1] if stack else None, request)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if failed is not None:
                    failed(exc)
                raise
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
                local.request = previous
            if after is not None:
                after(result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch_function(self, group: str, module_name: str, attr: str, **hooks) -> None:
        """Wrap module-level function *attr* wherever a ``repro`` module binds it."""
        self.sites[group] += 0
        original = _lookup(module_name, attr)
        if original is None:
            return
        name = f"{module_name.removeprefix('repro.')}.{attr}"
        self._group_of[name] = group
        wrapper = self._wrap(name, original, **hooks)
        for module_key, module in list(sys.modules.items()):
            if module is None or not (module_key == "repro" or module_key.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)
                    self.sites[group] += 1

    def patch_method(
        self, group: str, module_name: str, class_name: str, attr: str, **hooks
    ) -> None:
        """Wrap method (or classmethod) *attr* on the class that defines it."""
        self.sites[group] += 0
        owner = _lookup(module_name, class_name)
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        if raw is None:
            return
        name = f"{module_name.removeprefix('repro.')}.{class_name}.{attr}"
        self._group_of[name] = group
        if isinstance(raw, classmethod):
            wrapper: Any = classmethod(self._wrap(name, raw.__func__, **hooks))
        else:
            wrapper = self._wrap(name, raw, **hooks)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapper)
        self.sites[group] += 1

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per boundary group: calls, inclusive seconds, self seconds.

        Inclusive seconds count only a group's outermost spans, so a
        wrapped call that calls another of its own group (a reroute
        request serialising its base request) is not counted twice.
        Self seconds are each span's duration minus its children's.
        """
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[id(span.parent)] += span.end - span.start
        out: dict[str, list] = {}
        for span in self.spans:
            group = self._group_of[span.name]
            entry = out.setdefault(group, [0, 0.0, 0.0])
            duration = span.end - span.start
            nested = span.parent is not None and self._group_of[span.parent.name] == group
            entry[0] += 1
            entry[1] += 0.0 if nested else duration
            entry[2] += duration - covered[id(span)]
        for group in self.sites:
            out.setdefault(group, [0, 0.0, 0.0])
        return {group: (calls, inclusive, own) for group, (calls, inclusive, own) in out.items()}

    def dump(self, path: str) -> None:
        """Write every span as JSON rows (id, name, start, end, parent, request)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        rows = [
            [ids[id(span)], span.name, span.start, span.end,
             None if span.parent is None else ids.get(id(span.parent)), span.request]
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["id", "name", "start", "end", "parent", "request"], "spans": rows},
                handle,
            )


def _lookup(module_name: str, attr: str) -> Any:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


# ----------------------------------------------------------------------
# The boundaries
# ----------------------------------------------------------------------
def install_boundaries(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read.

    Each group name is the source a per-layer metric is computed from
    (see :data:`LAYER_METRICS`).
    """
    t = tracer

    def pipeline_result(result) -> None:
        timings = result.timings
        phases = sum(timings.get(k, 0.0) for k in ("route", "verify", "detail", "plan"))
        waves, useful = useful_waves(result.iterations)
        t.add(
            pipeline_route_s=timings.get("route", 0.0),
            pipeline_other_s=timings.get("total", 0.0) - phases,
            negotiate_waves=waves,
            negotiate_useful_waves=useful,
            detail_conflicts=(
                0 if result.detail_summary is None else result.detail_summary.conflicts
            ),
            # What RouteResult reports as the search work: on negotiated
            # runs only the returned iteration's counters.
            search_reported_expanded=result.route.stats.nodes_expanded,
        )

    def reroute_result(result) -> None:
        pipeline_result(result)
        timings = result.timings
        t.add(
            incremental_reroutes=1,
            incremental_plan_s=timings.get("plan", 0.0),
            incremental_kept_nets=timings.get("kept_nets", 0.0),
            incremental_dirty_nets=timings.get("ripped_nets", 0.0) + timings.get("new_nets", 0.0),
        )

    def search_stats(stats) -> None:
        t.add(
            search_expanded=stats.nodes_expanded,
            search_generated=stats.nodes_generated,
            search_reopened=stats.nodes_reopened,
            ray_hits=stats.cache_hits,
            ray_misses=stats.cache_misses,
        )

    def search_failed(exc) -> None:
        t.add(search_failed=1)
        partial = getattr(exc, "partial", None)
        if partial is not None:
            search_stats(partial)

    def wave_started(args, kwargs) -> None:
        affected = args[2] if len(args) > 2 else kwargs.get("affected", ())
        if hasattr(affected, "__len__"):
            t.add(router_wave_nets=len(affected))

    t.patch_method("api.pipeline", "repro.api.pipeline", "RoutingPipeline", "run",
                   after=pipeline_result)
    t.patch_method("api.pipeline", "repro.api.pipeline", "RoutingPipeline", "reroute",
                   after=reroute_result)
    for module_name, class_name in (
        ("repro.api.request", "RouteRequest"),
        ("repro.api.rerouting", "RerouteRequest"),
        ("repro.api.result", "RouteResult"),
    ):
        for attr in ("to_dict", "from_dict"):
            t.patch_method("api.wire", module_name, class_name, attr)
    t.patch_method("layout.resolve", "repro.api.request", "RouteRequest", "resolve_layout")
    t.patch_function("layout.resolve", "repro.layout.validate", "validate_layout")
    t.patch_method("core.router.first_pass", "repro.core.router", "GlobalRouter", "route_all",
                   after=lambda route: t.add(router_first_pass_nets=len(route.trees)))
    t.patch_method("core.router.waves", "repro.core.router", "GlobalRouter", "reroute_pass",
                   before=wave_started)
    t.patch_function("core.steiner", "repro.core.steiner", "route_net")
    t.patch_function("core.congestion", "repro.core.congestion", "find_passages")
    t.patch_function("core.congestion", "repro.core.congestion", "measure_congestion")
    t.patch_function("core.timing", "repro.core.timing", "analyze_route_timing")
    t.patch_function("search", "repro.core.pathfinder", "find_path",
                     after=lambda result: search_stats(result.stats), failed=search_failed)
    t.patch_function("search.engine", "repro.search.engine", "search")
    t.patch_function("search.engine", "repro.search.vector", "search_vectorized")
    t.patch_function("analysis.verify", "repro.analysis.verify", "verify_global_route")
    t.patch_method("detail", "repro.detail.detailed", "DetailedRouter", "run")
    for attr in ("get", "put"):
        t.patch_method("service.store", "repro.service.store.memory", "MemoryResultStore", attr)
    # Worker threads run one job at a time: tag their spans with the job id.
    t.patch_method("service.job", "repro.service.jobs", "RoutingService", "_run_job",
                   request_of=lambda args: args[1].id)


def useful_waves(iterations) -> tuple[int, int]:
    """(waves run, waves that lowered the best overflow seen so far)."""
    if not iterations:
        return 0, 0
    best = iterations[0].total_overflow
    useful = 0
    for wave in iterations[1:]:
        if wave.total_overflow < best:
            useful += 1
            best = wave.total_overflow
    return len(iterations) - 1, useful


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Per-layer metrics: name, unit, and the source whose activity proves
#: the metric was measured (a boundary group, or "service" for the load
#: generator's job documents, or "incremental" for reroute results).
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("api.pipeline.route_s", "s", "api.pipeline"),
    ("api.pipeline.other_s", "s", "api.pipeline"),
    ("api.wire.calls", "count", "api.wire"),
    ("api.wire.s", "s", "api.wire"),
    ("layout.resolve_s", "s", "layout.resolve"),
    ("core.router.first_pass_s", "s", "core.router.first_pass"),
    ("core.router.first_pass_nets", "count", "core.router.first_pass"),
    ("core.router.waves", "count", "core.router.waves"),
    ("core.router.wave_s", "s", "core.router.waves"),
    ("core.router.wave_nets", "count", "core.router.waves"),
    ("core.negotiate.useful_wave_ratio", "ratio", "core.router.waves"),
    ("core.steiner.nets", "count", "core.steiner"),
    ("core.steiner.s", "s", "core.steiner"),
    ("core.congestion.calls", "count", "core.congestion"),
    ("core.congestion.s", "s", "core.congestion"),
    ("core.timing.calls", "count", "core.timing"),
    ("core.timing.s", "s", "core.timing"),
    ("search.connections", "count", "search"),
    ("search.s", "s", "search"),
    ("search.failed", "count", "search"),
    ("search.engine_s", "s", "search.engine"),
    ("search.setup_s", "s", "search.engine"),
    ("search.expanded", "count", "search"),
    ("search.generated", "count", "search"),
    ("search.reopened", "count", "search"),
    ("search.expanded_per_s", "1/s", "search"),
    ("search.expand_ratio", "ratio", "search"),
    ("search.reported_expanded", "count", "api.pipeline"),
    ("geometry.ray_hits", "count", "search"),
    ("geometry.ray_misses", "count", "search"),
    ("geometry.ray_hit_ratio", "ratio", "search"),
    ("analysis.verify_s", "s", "analysis.verify"),
    ("detail.s", "s", "detail"),
    ("detail.conflicts", "count", "detail"),
    ("incremental.plan_s", "s", "incremental"),
    ("incremental.kept_nets", "count", "incremental"),
    ("incremental.dirty_nets", "count", "incremental"),
    ("incremental.warm_ratio", "ratio", "service"),
    ("service.queue_s", "s", "service"),
    ("service.run_s", "s", "service"),
    ("service.http_s", "s", "service"),
    ("service.store_s", "s", "service.store"),
    ("service.store_hit_ratio", "ratio", "service"),
    ("service.coalesced", "count", "service"),
    ("service.rejected", "count", "service"),
    ("service.client_retries", "count", "service"),
    ("trace.overhead_s", "s", "api.pipeline"),
    ("trace.spans", "count", "api.pipeline"),
)


def layer_values(tracer: Tracer, service: dict[str, float]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metric values, and each source's activity count.

    *service* holds what the load generator measured from job documents
    and ``/metrics`` (empty for the library workloads).
    """
    totals = tracer.totals()
    c = tracer.counters

    def calls(group: str) -> int:
        return totals.get(group, (0, 0.0, 0.0))[0]

    def seconds(group: str) -> float:
        return totals.get(group, (0, 0.0, 0.0))[1]

    search_s = seconds("search")
    engine_s = seconds("search.engine")
    values = {
        "api.pipeline.route_s": c["pipeline_route_s"],
        "api.pipeline.other_s": c["pipeline_other_s"],
        "api.wire.calls": calls("api.wire"),
        "api.wire.s": seconds("api.wire"),
        "layout.resolve_s": seconds("layout.resolve"),
        "core.router.first_pass_s": seconds("core.router.first_pass"),
        "core.router.first_pass_nets": c["router_first_pass_nets"],
        "core.router.waves": calls("core.router.waves"),
        "core.router.wave_s": seconds("core.router.waves"),
        "core.router.wave_nets": c["router_wave_nets"],
        "core.negotiate.useful_wave_ratio": _ratio(
            c["negotiate_useful_waves"], c["negotiate_waves"]
        ),
        "core.steiner.nets": calls("core.steiner"),
        "core.steiner.s": seconds("core.steiner"),
        "core.congestion.calls": calls("core.congestion"),
        "core.congestion.s": seconds("core.congestion"),
        "core.timing.calls": calls("core.timing"),
        "core.timing.s": seconds("core.timing"),
        "search.connections": calls("search"),
        "search.s": search_s,
        "search.failed": c["search_failed"],
        "search.engine_s": engine_s,
        "search.setup_s": search_s - engine_s,
        "search.expanded": c["search_expanded"],
        "search.generated": c["search_generated"],
        "search.reopened": c["search_reopened"],
        "search.expanded_per_s": _ratio(c["search_expanded"], search_s),
        "search.expand_ratio": _ratio(c["search_expanded"], c["search_generated"]),
        "search.reported_expanded": c["search_reported_expanded"],
        "geometry.ray_hits": c["ray_hits"],
        "geometry.ray_misses": c["ray_misses"],
        "geometry.ray_hit_ratio": _ratio(c["ray_hits"], c["ray_hits"] + c["ray_misses"]),
        "analysis.verify_s": seconds("analysis.verify"),
        "detail.s": seconds("detail"),
        "detail.conflicts": c["detail_conflicts"],
        "incremental.plan_s": c["incremental_plan_s"],
        "incremental.kept_nets": c["incremental_kept_nets"],
        "incremental.dirty_nets": c["incremental_dirty_nets"],
        "trace.spans": len(tracer.spans),
    }
    for name in (
        "incremental.warm_ratio", "service.queue_s", "service.run_s", "service.http_s",
        "service.store_hit_ratio", "service.coalesced", "service.rejected",
        "service.client_retries",
    ):
        values[name] = service.get(name, 0.0)
    values["service.store_s"] = seconds("service.store")
    activity = {group: float(count) for group, (count, _s, _own) in totals.items()}
    activity["incremental"] = c["incremental_reroutes"]
    activity["service"] = service.get("jobs", 0.0)
    return values, activity
