"""The incremental re-router: route only what a delta disturbed.

:func:`plan_reroute` turns (previous route, base layout, delta) into
the mutated layout plus a :class:`WarmStart`: the kept routes carried
over verbatim and the dirty set that actually needs routing.  The two
engines then finish the job:

* :func:`incremental_single` — the paper's independent-net mode: route
  the dirty nets under the frozen base cost model and merge them into
  the kept routes.  Because every net is routed independently against
  the cells alone, the result is *identical* to a from-scratch run
  whenever the delta leaves the cell geometry untouched (net-only
  deltas) — the differential equivalence suite pins this.
* :func:`incremental_negotiated` — the PathFinder-style mode: the warm
  start is a *seed* for the shared wave loop
  (:func:`repro.core.negotiate.negotiate`), which pre-charges the
  congestion history from the kept routes' measured congestion, routes
  the dirty nets under that cost as wave 0, then runs the standard
  negotiation waves until legal or out of budget.  Kept nets
  participate in later waves only if congestion actually pulls them in
  (``prune_clean_nets`` semantics unchanged).

An *empty* dirty set short-circuits both engines: the kept routes are
returned untouched, which makes the empty-delta reroute fingerprint-
identical to the previous result by construction.

Search-effort accounting: the warm start's route begins with a fresh
:class:`~repro.search.stats.SearchStats`, so every expansion/ray-cache
counter on an incremental result measures *incremental* work only —
exactly what ``benchmarks/bench_x6_incremental.py`` compares against
the from-scratch totals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.congestion import CongestionMap, find_passages, measure_congestion
from repro.core.negotiate import (
    IterationStats,
    NegotiatedRouter,
    NegotiationConfig,
    negotiate,
)
from repro.core.route import GlobalRoute
from repro.core.router import GlobalRouter, check_on_unroutable
from repro.layout.layout import Layout
from repro.search.stats import SearchStats
from repro.incremental.delta import LayoutDelta, apply_delta
from repro.incremental.dirty import DirtySet, classify_nets


@dataclass(frozen=True)
class WarmStart:
    """What a reroute begins from: kept routes plus the dirty set."""

    kept: GlobalRoute
    dirty: tuple[str, ...]
    classification: DirtySet


@dataclass
class IncrementalOutcome:
    """What an incremental engine hands back (API-layer agnostic).

    Mirrors :class:`~repro.api.registry.StrategyOutcome` field-for-field
    (the strategies adapt it) plus the :class:`DirtySet` that drove the
    run.  ``rerouted_nets`` includes the wave-0 dirty nets — for an
    incremental run, "what did the reroute touch" is the useful
    telemetry.
    """

    route: GlobalRoute
    first: Optional[GlobalRoute] = None
    congestion_before: Optional[CongestionMap] = None
    congestion_after: Optional[CongestionMap] = None
    iterations: list[IterationStats] = field(default_factory=list)
    rerouted_nets: tuple[str, ...] = ()
    converged: Optional[bool] = None
    search_stats: Optional[SearchStats] = None
    dirty: Optional[DirtySet] = None


def plan_reroute(
    prev_route: GlobalRoute, base_layout: Layout, delta: LayoutDelta
) -> tuple[Layout, WarmStart]:
    """Apply *delta* and classify: the shared front half of every reroute.

    Returns the mutated layout and a :class:`WarmStart` whose kept
    route holds the surviving trees (with fresh stats and no failed
    nets — a previously failed net that still exists is classified
    *ripped* and retried).
    """
    mutated = apply_delta(base_layout, delta)
    classification = classify_nets(prev_route, base_layout, mutated, delta)
    kept = GlobalRoute(
        trees={name: prev_route.trees[name] for name in classification.kept},
        stats=SearchStats(),
        failed_nets=[],
    )
    return mutated, WarmStart(
        kept=kept, dirty=classification.dirty, classification=classification
    )


def _working_copy(kept: GlobalRoute) -> GlobalRoute:
    return GlobalRoute(
        trees=dict(kept.trees),
        stats=kept.stats,
        failed_nets=list(kept.failed_nets),
    )


def incremental_single(
    router: GlobalRouter,
    warm: WarmStart,
    *,
    on_unroutable: str = "raise",
    max_gap: Optional[int] = None,
    measure: bool = True,
) -> IncrementalOutcome:
    """Independent-pass reroute: dirty nets only, one frozen cost model.

    *router* must be built over the mutated layout.  Kept trees are
    returned untouched; with unchanged cell geometry each dirty net's
    tree equals what a from-scratch run would produce (independent
    routing sees only the cells).
    """
    check_on_unroutable(on_unroutable)
    started = time.perf_counter()
    route = _working_copy(warm.kept)
    rerouted: set[str] = set()
    if warm.dirty:
        outcomes = router.route_each(
            list(warm.dirty), fail_fast=on_unroutable == "raise"
        )
        router.merge_outcomes(
            route, outcomes, on_unroutable=on_unroutable, rerouted=rerouted
        )
    route.stats.elapsed_seconds = time.perf_counter() - started
    if not measure:
        return IncrementalOutcome(
            route=route,
            first=route,
            rerouted_nets=tuple(sorted(rerouted)),
            dirty=warm.classification,
        )
    congestion = measure_congestion(
        find_passages(router.layout, max_gap=max_gap), route
    )
    return IncrementalOutcome(
        route=route,
        first=route,
        congestion_before=congestion,
        congestion_after=congestion,
        rerouted_nets=tuple(sorted(rerouted)),
        converged=congestion.total_overflow == 0,
        dirty=warm.classification,
    )


def incremental_negotiated(
    router: GlobalRouter,
    warm: WarmStart,
    negotiation: Optional[NegotiationConfig] = None,
    *,
    on_unroutable: str = "raise",
) -> IncrementalOutcome:
    """Negotiated reroute: history pre-charged from the kept routes.

    Wave 0 routes only the dirty nets, under a negotiated cost built
    from the kept routes' measured congestion (so a new net already
    steers around passages the kept routes fill).  Subsequent waves
    are the standard negotiation loop over the *whole* netlist —
    pruned to congestion-affected nets per
    ``router.config.prune_clean_nets`` — so kept routes are ripped up
    exactly when congestion warrants it.  With an empty dirty set the
    kept routes are returned untouched (the empty-delta identity).
    """
    check_on_unroutable(on_unroutable)
    knobs = negotiation if negotiation is not None else NegotiationConfig()
    if not warm.dirty:
        started = time.perf_counter()
        kept = _working_copy(warm.kept)
        kept_map = measure_congestion(
            find_passages(router.layout, max_gap=knobs.max_gap), kept
        )
        return IncrementalOutcome(
            route=kept,
            first=kept,
            congestion_before=kept_map,
            congestion_after=kept_map,
            iterations=[IterationStats.measure(0, kept, kept_map, started=started)],
            converged=kept_map.total_overflow == 0,
            search_stats=kept.stats,
            dirty=warm.classification,
        )

    result = negotiate(
        NegotiatedRouter.from_router(router, negotiation=knobs),
        on_unroutable=on_unroutable,
        seed=warm,
    )
    return IncrementalOutcome(
        route=result.final,
        first=result.first,
        congestion_before=result.congestion_before,
        congestion_after=result.congestion_after,
        iterations=result.iterations,
        rerouted_nets=tuple(result.rerouted_nets),
        converged=result.converged,
        # The seed's fresh stats make these totals incremental work only.
        search_stats=result.search_stats,
        dirty=warm.classification,
    )
