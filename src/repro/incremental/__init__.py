"""Incremental re-routing: deltas, dirty-set analysis, warm-started engines.

The subsystem behind ``reroute(prev_result, delta)``: a JSON-round-
trippable :class:`LayoutDelta` (:mod:`repro.incremental.delta`), the
kept/ripped/new classifier (:mod:`repro.incremental.dirty`), the
warm-start planner (:mod:`repro.incremental.engine`), and scripted
per-layout deltas for tests and benchmarks
(:mod:`repro.incremental.scripts`).  This package depends only on the
core/layout/geometry layers; the API surface
(:class:`repro.api.RerouteRequest`, ``RoutingPipeline.reroute``) and
the service ``/reroute`` endpoint build on top of it.

See ``docs/incremental.md`` for the delta format and lifecycle.
"""

from repro.incremental.delta import (
    CellMove,
    LayoutDelta,
    apply_delta,
    changed_rects,
    compose_deltas,
)
from repro.incremental.dirty import DirtySet, classify_nets
from repro.incremental.engine import WarmStart, plan_reroute
from repro.incremental.scripts import (
    disjoint_delta,
    empty_delta,
    geometry_delta,
    replace_nets_delta,
)

__all__ = [
    "CellMove",
    "LayoutDelta",
    "apply_delta",
    "changed_rects",
    "compose_deltas",
    "DirtySet",
    "classify_nets",
    "WarmStart",
    "plan_reroute",
    "disjoint_delta",
    "empty_delta",
    "geometry_delta",
    "replace_nets_delta",
]
