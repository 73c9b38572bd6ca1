"""X5 — the hot-path overhaul, measured.

Three changes landed together: the epoch-cached ray tracer
(:class:`~repro.geometry.raytrace.ObstacleSet` memoizes ``first_hit``
per mutation epoch), the flattened cost-model inner loops
(:class:`~repro.core.costs.CongestionPenaltyCost`), and the lean
OPEN/CLOSED core (flat heap tuples, slotted nodes).  The batched
search problem followed, and this harness grew a comparison of the
default search against the scalar oracle
(:func:`~repro.core.pathfinder.reference_search`) alongside the
original cache A/B.  The claims the bench pins:

* **identity** — routed results are byte-identical with the ray memo
  on and off, between the default search and the reference oracle, and
  through the single-pass strategy's memo-population skip: same paths,
  same costs, same failed nets, same per-iteration overflow trajectory.
  Performance work may only change how fast answers arrive, never the
  answers.
* **speed** — the negotiated multi-iteration workload (the rip-up
  loop re-searches the same static obstacle set every iteration, so
  cache hit rates are high) runs measurably faster with the memo, and
  the scaled workload (``negotiated_scaled_200``) runs at least
  :data:`ENGINE_SPEEDUP_FLOOR` times more expansions per second on the
  default search than on the reference oracle; BENCH_hotpath.json
  tracks the trajectory PR over PR.

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
#: compare against it by name.  ``engine_matrix_only`` workloads skip
#: the cache A/B (their point is the search comparison; a reference run
#: at this size is already minutes of wall clock).
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
        "engine_matrix_only": True,
        # The ENGINE_SPEEDUP_FLOOR gate rides on this workload, so its
        # search walls are min-of-2 (same repeat count for both
        # searches) to keep a single noisy draw from deciding the ratio.
        "engine_repeats": 2,
    },
}

#: The CI smoke subset: the small negotiated loop (cache A/B + search
#: comparison) plus the single-pass workload (strategy memo-skip gate).
QUICK = ("negotiated_grid_16", "single_pass_dense")

#: The searches compared, as ``(artifact row, reference?)``.  The row
#: names predate the automatic engine choice and stay for artifact
#: continuity: ``scalar`` is the reference oracle (scalar problem, ray
#: memo off) and ``vectorized`` the default search.
SEARCHES = (("scalar", True), ("vectorized", False))

#: The acceptance floor for the batched search: the default search
#: must route :data:`ENGINE_FLOOR_WORKLOAD` at >= this many times the
#: reference oracle's speed.
ENGINE_SPEEDUP_FLOOR = 5.0
ENGINE_FLOOR_WORKLOAD = "negotiated_scaled_200"

#: On the negotiated loops the rip-up waves re-query the same static
#: obstacles every iteration, so the ray memo must hit more often than
#: this.
HIT_RATE_FLOOR = 0.5

#: Gated against the baseline: walls at the driver's fixed ratio,
#: deterministic counters for exact equality.
WALL_KEYS = (
    "wall_seconds_cache_on",
    "engines.scalar.wall_seconds",
    "engines.vectorized.wall_seconds",
)
COUNTER_KEYS = (
    "nodes_expanded",
    "ray_cache_hits",
    "ray_cache_misses",
    "engines.scalar.nodes_expanded",
    "engines.vectorized.nodes_expanded",
)


def _route(spec: dict, memo: bool):
    """Route one workload from scratch; returns the strategy's result."""
    if spec["kind"] == "negotiated":
        if spec.get("scaled"):
            layout = scaled_congested_layout(n_nets=spec["nets"], seed=spec["seed"])
        else:
            layout = congested_layout(
                n_nets=spec["nets"], seed=spec["seed"], gap=spec["gap"]
            )
        base = GlobalRouter(layout, RouterConfig())
        base.obstacles.ray_cache_enabled = memo
        router = NegotiatedRouter.from_router(
            base,
            negotiation=NegotiationConfig(max_iterations=spec["max_iterations"]),
        )
        return router.run()
    layout = netted_layout(spec["cells"], spec["nets"], seed=spec["seed"])
    router = GlobalRouter(layout, RouterConfig())
    router.obstacles.ray_cache_enabled = memo
    return router.route_all(on_unroutable="skip")


def _measure(spec: dict, *, memo: bool = True, reference: bool = False, repeats: int = 1):
    """Min-of-*repeats* route wall; returns (wall, fingerprint, stats, extra).

    *memo* toggles the router's ray memo; *reference* runs the whole
    route under :func:`reference_search` (which keeps the memo off).
    """
    with reference_search() if reference else nullcontext():
        wall, result = best_wall(lambda: _route(spec, memo), repeats)
    if spec["kind"] == "negotiated":
        fingerprint = {
            "trees": _tree_fingerprint(result.final),
            "failed": sorted(result.final.failed_nets),
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
            "wirelength": result.final.total_length,
        }
    fingerprint = {
        "trees": _tree_fingerprint(result),
        "failed": sorted(result.failed_nets),
    }
    return wall, fingerprint, result.stats, {"wirelength": result.total_length}


def _route_single_strategy(spec: dict):
    """Route the single-pass workload through the pipeline's strategy.

    ``SingleStrategy`` skips ray-memo population — one pass never
    re-queries a ray often enough to pay the memo back — so even though
    the router's memo is on the run must record *zero* cache lookups,
    and must still route byte-identically to the direct ``route_all``
    measurements.  Returns (wall_seconds, fingerprint,
    ray_lookups).
    """
    from repro.api.pipeline import RoutingPipeline
    from repro.api.request import RouteRequest

    layout = netted_layout(spec["cells"], spec["nets"], seed=spec["seed"])
    request = RouteRequest(
        layout=layout,
        strategy="single",
        on_unroutable="skip",
        verify=False,
    )
    wall, result = best_wall(lambda: RoutingPipeline().run(request), 1)
    fingerprint = {
        "trees": _tree_fingerprint(result.route),
        "failed": sorted(result.route.failed_nets),
    }
    lookups = int(
        result.timings["ray_cache_hits"] + result.timings["ray_cache_misses"]
    )
    return wall, fingerprint, lookups


def _tree_fingerprint(route) -> dict:
    """Everything deterministic about a route (no timings, no cache telemetry)."""
    return {
        name: {
            "paths": [[(p.x, p.y) for p in path.points] for path in tree.paths],
            "costs": [path.cost for path in tree.paths],
            "terminals": list(tree.connected_terminals),
        }
        for name, tree in route.trees.items()
    }


def run_workload(spec: dict) -> dict:
    """Measure one workload: cache A/B plus reference vs default search.

    Every measurement carries a byte-identity verdict next to its
    timing; ``engine_matrix_only`` workloads skip the cache A/B and the
    per-kind extras come from their reference run instead.
    """
    entry: dict = {"kind": spec["kind"]}
    runs: dict[str, tuple] = {}
    if not spec.get("engine_matrix_only"):
        wall_off, fp_off, _stats_off, _ = _measure(spec, memo=False)
        wall_on, fp_on, stats_on, extra = _measure(spec)
        lookups = stats_on.cache_hits + stats_on.cache_misses
        entry.update(
            {
                "wall_seconds_cache_off": round(wall_off, 4),
                "wall_seconds_cache_on": round(wall_on, 4),
                "speedup_cache": round(wall_off / wall_on, 3) if wall_on > 0 else None,
                "nodes_expanded": stats_on.nodes_expanded,
                "expansions_per_second": round(stats_on.nodes_expanded / wall_on, 1)
                if wall_on > 0
                else None,
                "ray_cache_hits": stats_on.cache_hits,
                "ray_cache_misses": stats_on.cache_misses,
                "ray_cache_hit_rate": round(stats_on.cache_hit_rate, 4)
                if lookups
                else 0.0,
                "identical_cache_on_off": fp_off == fp_on,
            }
        )
        entry.update(extra)
        # The cache-on run *is* the default search measurement.
        runs["vectorized"] = (wall_on, fp_on, stats_on)
        if spec["kind"] == "single":
            strategy_wall, strategy_fp, strategy_lookups = _route_single_strategy(spec)
            entry["strategy_wall_seconds"] = round(strategy_wall, 4)
            entry["strategy_ray_lookups"] = strategy_lookups
            entry["identical_strategy_skip"] = strategy_fp == fp_on

    # Both searches get the same repeat count, so the speedup ratio
    # stays honest.
    repeats = spec.get("engine_repeats", 1)
    for row, reference in SEARCHES:
        if row in runs:
            continue
        wall, fp, stats, extra = _measure(spec, reference=reference, repeats=repeats)
        runs[row] = (wall, fp, stats)
        if reference and "nodes_expanded" not in entry:
            entry["nodes_expanded"] = stats.nodes_expanded
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
    """Identity everywhere, memo hits on the loops, the engine floor."""
    failures = []
    for name, entry in results.items():
        if not entry.get("identical_cache_on_off", True):
            failures.append(f"{name}: the ray memo changed routed results")
        rate = entry.get("ray_cache_hit_rate")
        if entry["kind"] == "negotiated" and rate is not None and rate <= HIT_RATE_FLOOR:
            failures.append(
                f"{name}: ray memo hit rate {rate} not above {HIT_RATE_FLOOR} "
                "on a static-obstacle loop"
            )
        for row, stats in entry["engines"].items():
            if not stats["identical_to_scalar"]:
                failures.append(f"{name}[{row}]: routed results differ from the reference")
        if "identical_strategy_skip" in entry and not (
            entry["identical_strategy_skip"] and entry["strategy_ray_lookups"] == 0
        ):
            failures.append(
                f"{name}: single-pass memo skip changed the route or still made "
                f"{entry['strategy_ray_lookups']} memo lookups"
            )
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

    cache_results = {
        name: entry for name, entry in results.items()
        if "identical_cache_on_off" in entry
    }
    rows = [
        [
            name,
            entry["kind"],
            f"{entry['wall_seconds_cache_off'] * 1e3:.0f}",
            f"{entry['wall_seconds_cache_on'] * 1e3:.0f}",
            f"{entry['speedup_cache']:.2f}x",
            f"{entry['ray_cache_hit_rate'] * 100:.1f}%",
            f"{entry['expansions_per_second']:.0f}",
            "yes" if entry["identical_cache_on_off"] else "NO",
        ]
        for name, entry in cache_results.items()
    ]
    table = format_table(
        ["workload", "kind", "no-cache ms", "cache ms", "speedup",
         "hit rate", "expand/s", "identical"],
        rows,
        title="X5: hot-path overhaul — ray-memo A/B on the tracked workloads",
    )
    report("x5_hotpath", table)

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
    benchmark(lambda: _route(spec, True))
