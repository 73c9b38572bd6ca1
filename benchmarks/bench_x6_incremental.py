"""X6 — incremental re-routing speedup, measured and gated.

The incremental engine's pitch is arithmetic: a delta dirtying ``k``
of ``n`` nets should pay for ``k`` searches, not ``n``.  This bench
pins that claim on tracked workloads and emits
``BENCH_incremental.json`` so the trajectory is auditable PR over PR:

* **speedup** — ``RoutingPipeline.reroute`` vs routing the mutated
  layout from scratch, same strategy and config, best-of-N walls.
  Workloads with ``gated: True`` (every ≤10%-dirty workload, corpus
  scenarios included) must reroute at least
  :data:`SPEEDUP_FLOOR` times faster.
* **identity** — the deltas here are net replacements
  (:func:`repro.incremental.scripts.replace_nets_delta`): geometry is
  untouched, so for the order-independent ``single`` strategy the
  reroute must land byte-identical to from-scratch.  Recorded (not
  gated) for ``negotiated``.

:func:`gate` holds both on every run.  Run the suite through the one
bench driver::

    PYTHONPATH=src python benchmarks/run_suite.py --suite incremental --quick
"""

from __future__ import annotations

from repro.api.pipeline import RoutingPipeline
from repro.api.request import RouteRequest
from repro.api.rerouting import RerouteRequest
from repro.core.router import RouterConfig
from repro.incremental.scripts import replace_nets_delta
from repro.scenarios import load_corpus, route_fingerprint

from benchmarks.run_suite import best_wall
from benchmarks.workloads import congested_layout, netted_layout

#: A ≤10%-dirty reroute slower than a third of from-scratch means the
#: warm start is not actually skipping the kept work.
SPEEDUP_FLOOR = 3.0

#: Best-of-N wall measurements; the workloads are millisecond-scale.
REPEATS = 5

#: Gated against the baseline: walls at the driver's fixed ratio,
#: deterministic counters for exact equality.
WALL_KEYS = ("wall_seconds_reroute",)
COUNTER_KEYS = ("kept", "ripped", "new")

#: Workload definitions.  ``dirty`` nets are replaced verbatim via
#: ``replace_nets_delta`` — the mutated layout equals the base layout,
#: which makes the dirty fraction an exact dial and keeps from-scratch
#: a perfect oracle.  ``gated`` marks the ≤10%-dirty workloads the
#: speedup floor applies to.
WORKLOADS: dict[str, dict] = {
    # measure_congestion off on both sides: at 10 nets the diagnostic
    # congestion pass is a fixed cost that drowns the 10:1 routing
    # ratio in timer noise; the A/B stays fair (same params each side).
    "corpus_hotspot_s59_single": {
        "kind": "corpus",
        "scenario": "congestion-hotspot-s59",
        "strategy": "single",
        "params": {"measure_congestion": False},
        "dirty": 1,
        "gated": True,
    },
    "corpus_hotspot_s59_negotiated": {
        "kind": "corpus",
        "scenario": "congestion-hotspot-s59",
        "strategy": "negotiated",
        "params": {"max_iterations": 8},
        "dirty": 1,
        "gated": True,
    },
    "random_single_60n_10pct": {
        "kind": "random",
        "cells": 40,
        "nets": 60,
        "seed": 7,
        "strategy": "single",
        "params": {},
        "dirty": 6,
        "gated": True,
    },
    "random_single_60n_30pct": {
        "kind": "random",
        "cells": 40,
        "nets": 60,
        "seed": 7,
        "strategy": "single",
        "params": {},
        "dirty": 18,
        "gated": False,
    },
    "negotiated_grid_16_6pct": {
        "kind": "grid",
        "nets": 16,
        "seed": 5,
        "gap": 3,
        "strategy": "negotiated",
        "params": {"max_iterations": 10},
        "dirty": 1,
        "gated": True,
    },
    # The base negotiation does not converge here (residual overflow),
    # so the warm start must keep negotiating — the regime with the
    # least skippable work.  Informational, not gated.
    "negotiated_grid_24_8pct": {
        "kind": "grid",
        "nets": 24,
        "seed": 5,
        "gap": 3,
        "strategy": "negotiated",
        "params": {"max_iterations": 10},
        "dirty": 2,
        "gated": False,
    },
}

QUICK = ("corpus_hotspot_s59_single", "negotiated_grid_16_6pct")


def _layout(spec: dict):
    if spec["kind"] == "corpus":
        for scenario in load_corpus():
            if scenario.name == spec["scenario"]:
                return scenario.layout
        raise RuntimeError(f"corpus scenario {spec['scenario']!r} not found")
    if spec["kind"] == "random":
        return netted_layout(spec["cells"], spec["nets"], seed=spec["seed"])
    return congested_layout(n_nets=spec["nets"], seed=spec["seed"], gap=spec["gap"])


def run_workload(spec: dict) -> dict:
    """Measure reroute vs from-scratch for one workload."""
    layout = _layout(spec)
    base_request = RouteRequest(
        layout=layout,
        config=RouterConfig(),
        strategy=spec["strategy"],
        strategy_params=dict(spec["params"]),
        on_unroutable="skip",
        verify=False,
    )
    pipeline = RoutingPipeline()
    base_result = pipeline.run(base_request)
    delta = replace_nets_delta(layout, spec["dirty"])
    reroute_request = RerouteRequest(base=base_request, delta=delta)
    mutated_request = reroute_request.mutated_request()

    wall_scratch, scratch = best_wall(lambda: pipeline.run(mutated_request), REPEATS)
    wall_reroute, rerouted = best_wall(
        lambda: pipeline.reroute(reroute_request, prev_result=base_result), REPEATS
    )

    n_nets = len(layout.nets)
    return {
        "strategy": spec["strategy"],
        "nets": n_nets,
        "dirty_nets": spec["dirty"],
        "dirty_fraction": round(spec["dirty"] / n_nets, 4) if n_nets else 0.0,
        "gated": spec["gated"],
        "wall_seconds_scratch": round(wall_scratch, 4),
        "wall_seconds_reroute": round(wall_reroute, 4),
        "speedup": round(wall_scratch / wall_reroute, 3) if wall_reroute > 0 else None,
        "kept": int(rerouted.timings.get("kept_nets", 0)),
        "ripped": int(rerouted.timings.get("ripped_nets", 0)),
        "new": int(rerouted.timings.get("new_nets", 0)),
        "failed_nets": len(rerouted.route.failed_nets),
        "identical_to_scratch": (
            route_fingerprint(rerouted.route) == route_fingerprint(scratch.route)
        ),
    }


def gate(results: dict[str, dict]) -> list[str]:
    """Machine-independent gates: speedup floor and single identity."""
    failures = []
    for name, entry in results.items():
        if entry["gated"] and (entry["speedup"] or 0) < SPEEDUP_FLOOR:
            failures.append(
                f"{name}: speedup {entry['speedup']}x below floor "
                f"{SPEEDUP_FLOOR}x at {entry['dirty_fraction'] * 100:.0f}% dirty"
            )
        if entry["strategy"] == "single" and not entry["identical_to_scratch"]:
            failures.append(f"{name}: single-strategy reroute diverged from scratch")
    return failures

