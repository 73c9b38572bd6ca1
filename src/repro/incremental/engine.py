"""The incremental re-router: route only what a delta disturbed.

:func:`plan_reroute` turns (previous route, base layout, delta) into
the mutated layout plus a :class:`WarmStart`: the kept routes carried
over verbatim and the dirty set that actually needs routing.  Two
modes then finish the job, both through the one pass primitive
:meth:`~repro.core.router.GlobalRouter.route_into`:

* the ``single`` strategy's ``run_incremental`` — the paper's
  independent-net mode: route the dirty nets under the frozen base cost
  model into a copy of the kept routes.  Because every net is routed
  independently against the cells alone, the result is *identical* to
  a from-scratch run whenever the delta leaves the cell geometry
  untouched (net-only deltas) — the differential equivalence suite
  pins this.
* the PathFinder-style mode is the shared wave loop itself,
  ``negotiate(policy, seed=warm)`` (:func:`repro.core.negotiate.negotiate`):
  it pre-charges the congestion history from the kept routes' measured
  congestion, routes the dirty nets under that cost as wave 0, then
  runs the standard negotiation waves until legal or out of budget.
  Kept nets participate in later waves only if congestion actually
  pulls them in (``prune_clean_nets`` semantics unchanged).

An *empty* dirty set short-circuits both: the kept routes are returned
untouched, which makes the empty-delta reroute fingerprint-identical
to the previous result by construction.

Search-effort accounting: the warm start's route begins with a fresh
:class:`~repro.search.stats.SearchStats`, so every expansion/probe
counter on an incremental result measures *incremental* work only —
exactly what ``benchmarks/bench_x6_incremental.py`` compares against
the from-scratch totals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.route import GlobalRoute
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
