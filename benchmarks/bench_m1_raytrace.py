"""M1 — microbenchmark: the ray tracer and escape generator.

"By maintaining the topological ordering, an efficient means of
ray-tracing is used to expand the frontiers of the search."  These are
the two hot primitives under every search; the microbenchmark tracks
their throughput so regressions surface immediately.
"""

import random

from repro.core.escape import EscapeMode, escape_moves
from repro.geometry.point import ALL_DIRECTIONS, Point
from repro.analysis.tables import format_table

from benchmarks.workloads import report, scaling_layout


def bench_m1_raytrace(benchmark):
    layout = scaling_layout(40, seed=12)
    obs = layout.obstacles()
    rng = random.Random(0)
    points = []
    while len(points) < 200:
        p = Point(
            rng.randint(layout.outline.x0, layout.outline.x1),
            rng.randint(layout.outline.y0, layout.outline.y1),
        )
        if obs.point_free(p):
            points.append(p)

    def run_rays():
        total = 0
        for p in points:
            for direction in ALL_DIRECTIONS:
                total += obs.first_hit(p, direction).distance
        return total

    def run_reaches():
        total = 0
        for p in points:
            east, west, north, south = obs.reaches(p.x, p.y)
            total += east - west + north - south
        return total

    import time

    def ray_rate(job) -> float:
        """Rays per second over five passes of *job* (four rays a point)."""
        t0 = time.perf_counter()
        runs = 5
        for _ in range(runs):
            job()
        return runs * len(points) * 4 / (time.perf_counter() - t0)

    # Cold rays: with the memo off every query goes to the track index
    # (each epoch's index is built on first use, then kept).
    obs.ray_cache_enabled = False
    benchmark(run_rays)
    cold_rate = ray_rate(run_rays)
    reaches_rate = ray_rate(run_reaches)
    # Memo hits: one warm-up pass fills the memo, every timed pass hits.
    obs.ray_cache_enabled = True
    run_rays()
    memo_rate = ray_rate(run_rays)

    t0 = time.perf_counter()
    full_moves = 0
    for p in points:
        full_moves += len(escape_moves(p, obs, mode=EscapeMode.FULL))
    t_full = time.perf_counter() - t0
    t0 = time.perf_counter()
    aggr_moves = 0
    for p in points:
        aggr_moves += len(escape_moves(p, obs, mode=EscapeMode.AGGRESSIVE))
    t_aggr = time.perf_counter() - t0

    table = format_table(
        ["primitive", "throughput", "successors/point"],
        [
            ["first_hit, memo off (cold rays)", f"{cold_rate:,.0f} rays/s", "-"],
            ["first_hit, memo hits", f"{memo_rate:,.0f} rays/s", "-"],
            ["reaches, memo off (4 rays/probe)", f"{reaches_rate:,.0f} rays/s", "-"],
            ["escape_moves FULL", f"{len(points) / t_full:,.0f} calls/s",
             f"{full_moves / len(points):.1f}"],
            ["escape_moves AGGRESSIVE", f"{len(points) / t_aggr:,.0f} calls/s",
             f"{aggr_moves / len(points):.1f}"],
        ],
        title=f"M1: hot-primitive throughput ({len(obs.rects)} obstacles)",
    )
    report("m1_raytrace", table)
