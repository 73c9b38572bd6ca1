"""X5 — the hot path, measured.

The default search (the compiled escape-grid kernel of
:mod:`repro.search.vector`: heap, ray scan, pricing and heuristic in
one C call per connection) is compared against the scalar oracle with
scanned rays
(:func:`~repro.core.pathfinder.reference_search`) on every workload.
The claims the bench pins:

* **identity** — routed results are byte-identical between the
  default search and the reference oracle: same paths, same costs,
  same failed nets, same per-iteration overflow trajectory.
  Performance work may only change how fast answers arrive, never the
  answers.
* **speed** — the scaled workload (``negotiated_scaled_200``) runs at
  least :data:`ENGINE_SPEEDUP_FLOOR` times more expansions per second
  on the default search than on the reference oracle;
  BENCH_hotpath.json tracks the trajectory PR over PR.
* **work** — expansions and ray probes (``ray_probes``: four for
  every ``ObstacleSet.rays`` call and every kernel expansion) are deterministic,
  and the driver's ``--check`` pins them exactly.

:func:`gate` holds those claims.  Run the suite through the one bench
driver, which writes the artifact and gates it::

    PYTHONPATH=src python benchmarks/run_suite.py --suite hotpath --quick
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.core.negotiate import NegotiatedRouter, NegotiationConfig
from repro.core.pathfinder import reference_search
from repro.core.router import GlobalRouter, RouterConfig
from repro.analysis.tables import format_table

from benchmarks.run_suite import best_wall
from benchmarks.workloads import (
    congested_layout,
    netted_layout,
    report,
    scaled_congested_layout,
)

#: Workload definitions, smallest first.  ``run_suite.py --quick`` runs
#: the names in :data:`QUICK`; the committed baseline
#: (BENCH_hotpath.json) records the full set so quick CI runs can still
#: compare against it by name.
WORKLOADS: dict[str, dict] = {
    "negotiated_grid_16": {
        "kind": "negotiated",
        "nets": 16,
        "seed": 5,
        "gap": 3,
        "max_iterations": 10,
    },
    "negotiated_grid_24": {
        "kind": "negotiated",
        "nets": 24,
        "seed": 5,
        "gap": 3,
        "max_iterations": 12,
    },
    "single_pass_dense": {
        "kind": "single",
        "cells": 36,
        "nets": 28,
        "seed": 11,
    },
    "negotiated_scaled_200": {
        "kind": "negotiated",
        "scaled": True,
        "nets": 200,
        "seed": 7,
        "max_iterations": 4,
        # The ENGINE_SPEEDUP_FLOOR gate rides on this workload, so its
        # search walls are min-of-2 (same repeat count for both
        # searches) to keep a single noisy draw from deciding the ratio.
        "engine_repeats": 2,
    },
}

#: The CI smoke subset: the small negotiated loop plus the single pass.
QUICK = ("negotiated_grid_16", "single_pass_dense")

#: The searches compared, as ``(artifact row, reference?)``.  The row
#: names predate the automatic engine choice and stay for artifact
#: continuity: ``scalar`` is the reference oracle (scalar problem,
#: scanned rays) and ``vectorized`` the default search.
SEARCHES = (("scalar", True), ("vectorized", False))

#: The acceptance floor for the compiled search: the default search
#: must route :data:`ENGINE_FLOOR_WORKLOAD` at >= this many times the
#: reference oracle's speed.
ENGINE_SPEEDUP_FLOOR = 5.0
ENGINE_FLOOR_WORKLOAD = "negotiated_scaled_200"

#: Gated against the baseline: walls at the driver's fixed ratio,
#: deterministic counters for exact equality.
WALL_KEYS = (
    "wall_seconds",
    "engines.scalar.wall_seconds",
    "engines.vectorized.wall_seconds",
)
COUNTER_KEYS = (
    "nodes_expanded",
    "ray_probes",
    "engines.scalar.nodes_expanded",
    "engines.vectorized.nodes_expanded",
)


def _route(spec: dict):
    """Route one workload from scratch; returns the strategy's result."""
    if spec["kind"] == "negotiated":
        if spec.get("scaled"):
            layout = scaled_congested_layout(n_nets=spec["nets"], seed=spec["seed"])
        else:
            layout = congested_layout(
                n_nets=spec["nets"], seed=spec["seed"], gap=spec["gap"]
            )
        router = NegotiatedRouter(
            layout,
            RouterConfig(),
            negotiation=NegotiationConfig(max_iterations=spec["max_iterations"]),
        )
        return router.run()
    layout = netted_layout(spec["cells"], spec["nets"], seed=spec["seed"])
    return GlobalRouter(layout, RouterConfig()).route_all(on_unroutable="skip")


def _measure(spec: dict, *, reference: bool, repeats: int):
    """Min-of-*repeats* route wall; returns (wall, fingerprint, stats, extra).

    *reference* runs the whole route under :func:`reference_search`.
    """
    with reference_search() if reference else nullcontext():
        wall, result = best_wall(lambda: _route(spec), repeats)
    if spec["kind"] == "negotiated":
        fingerprint = {
            "trees": _tree_fingerprint(result.route),
            "failed": sorted(result.route.failed_nets),
            "iterations": [
                (it.iteration, it.overflowed_passages, it.total_overflow,
                 it.max_overflow, it.wirelength, it.rerouted)
                for it in result.iterations
            ],
            "converged": result.converged,
        }
        # Telemetry reads the run-wide totals: `final.stats` stops
        # accumulating at the best iteration, which would undercount
        # non-converging runs.
        return wall, fingerprint, result.search_stats, {
            "converged": result.converged,
            "iterations": result.iteration_count,
            "wirelength": result.route.total_length,
        }
    fingerprint = {
        "trees": _tree_fingerprint(result),
        "failed": sorted(result.failed_nets),
    }
    return wall, fingerprint, result.stats, {"wirelength": result.total_length}


def _tree_fingerprint(route) -> dict:
    """Everything deterministic about a route (no timings, no ray telemetry)."""
    return {
        name: {
            "paths": [[(p.x, p.y) for p in path.points] for path in tree.paths],
            "costs": [path.cost for path in tree.paths],
            "terminals": list(tree.connected_terminals),
        }
        for name, tree in route.trees.items()
    }


def run_workload(spec: dict) -> dict:
    """Measure one workload on the default search and the reference.

    Every measurement carries a byte-identity verdict next to its
    timing.  The default search's run also fills the top-level wall,
    counters and per-kind extras.
    """
    entry: dict = {"kind": spec["kind"]}
    # Both searches get the same repeat count, so the speedup ratio
    # stays honest.
    repeats = spec.get("engine_repeats", 1)
    runs: dict[str, tuple] = {}
    for row, reference in SEARCHES:
        wall, fp, stats, extra = _measure(spec, reference=reference, repeats=repeats)
        runs[row] = (wall, fp, stats)
        if not reference:
            entry.update(
                {
                    "wall_seconds": round(wall, 4),
                    "nodes_expanded": stats.nodes_expanded,
                    "expansions_per_second": round(stats.nodes_expanded / wall, 1)
                    if wall > 0
                    else None,
                    # No memo: every probe is a miss.
                    "ray_probes": stats.cache_misses,
                }
            )
            entry.update(extra)

    ref_wall, ref_fp, _ref_stats = runs["scalar"]
    engines: dict[str, dict] = {}
    for row, _reference in SEARCHES:
        wall, fp, stats = runs[row]
        engines[row] = {
            "wall_seconds": round(wall, 4),
            "nodes_expanded": stats.nodes_expanded,
            "expansions_per_second": round(stats.nodes_expanded / wall, 1)
            if wall > 0
            else None,
            "speedup_vs_scalar": round(ref_wall / wall, 3) if wall > 0 else None,
            "identical_to_scalar": fp == ref_fp,
        }
    entry["engines"] = engines
    entry["engine_repeats"] = repeats
    return entry


def gate(results: dict[str, dict]) -> list[str]:
    """Identity everywhere and the engine floor."""
    failures = []
    for name, entry in results.items():
        for row, stats in entry["engines"].items():
            if not stats["identical_to_scalar"]:
                failures.append(f"{name}[{row}]: routed results differ from the reference")
    if ENGINE_FLOOR_WORKLOAD in results:
        speedup = results[ENGINE_FLOOR_WORKLOAD]["engines"]["vectorized"]["speedup_vs_scalar"]
        if speedup < ENGINE_SPEEDUP_FLOOR:
            failures.append(
                f"{ENGINE_FLOOR_WORKLOAD}: default search {speedup}x the reference, "
                f"below the {ENGINE_SPEEDUP_FLOOR}x floor"
            )
    return failures


def bench_x5_hotpath(benchmark):
    results = {name: run_workload(spec) for name, spec in WORKLOADS.items()}

    engine_rows = [
        [
            name,
            engine,
            f"{stats['wall_seconds'] * 1e3:.0f}",
            f"{stats['expansions_per_second']:.0f}",
            f"{stats['speedup_vs_scalar']:.2f}x",
            "yes" if stats["identical_to_scalar"] else "NO",
        ]
        for name, entry in results.items()
        for engine, stats in entry["engines"].items()
    ]
    engine_table = format_table(
        ["workload", "search", "wall ms", "expand/s", "vs scalar", "identical"],
        engine_rows,
        title="X5: reference oracle (scalar) vs default search (vectorized)",
    )
    report("x5_engines", engine_table)

    failures = gate(results)
    assert not failures, failures

    # Timed reference for the pytest-benchmark trend: the quick
    # negotiated workload on the shipping default.
    spec = WORKLOADS[QUICK[0]]
    benchmark(lambda: _route(spec))
