"""X4 — Batch.route_many scaling over worker counts.

The batch facade fans whole RouteRequests out over one shared executor
(:mod:`repro.api.batch`), one process per layout; each layout's nets
route serially inside its worker.  Two claims are checked: results are identical to serial per-layout pipeline runs
for every worker count and executor flavour (the batch is purely a
wall-time facade), and wall time per batch is reported per worker
count (speedup appears on multicore hosts; single-core CI boxes only
pay the pool overhead).
"""

import time

from repro.api import RouteRequest, RoutingPipeline, route_many
from repro.layout.generators import LayoutSpec, random_layout
from repro.analysis.tables import format_table

from benchmarks.workloads import report

N_LAYOUTS = 8


def _requests():
    return [
        RouteRequest(
            layout=random_layout(
                LayoutSpec(n_cells=12, n_nets=10, terminals_per_net=(2, 3)),
                seed=seed,
            ),
            strategy="two-pass",
            strategy_params={"penalty_weight": 4.0},
        )
        for seed in range(N_LAYOUTS)
    ]


def _fingerprints(results):
    return [
        {n: [p.points for p in t.paths] for n, t in r.route.trees.items()}
        for r in results
    ]


def bench_x4_batch(benchmark):
    requests = _requests()
    pipeline = RoutingPipeline()

    t0 = time.perf_counter()
    serial = [pipeline.run(r) for r in requests]
    serial_elapsed = time.perf_counter() - t0
    reference = _fingerprints(serial)

    def run_serial():
        return [pipeline.run(r) for r in requests]

    benchmark(run_serial)

    rows = [["serial", 1, f"{serial_elapsed * 1e3:.0f}", "yes"]]
    for executor in ("thread", "process"):
        for workers in (2, 4):
            t0 = time.perf_counter()
            results = route_many(requests, workers=workers, executor=executor)
            elapsed = time.perf_counter() - t0
            identical = _fingerprints(results) == reference
            assert identical, f"{executor} x{workers} diverged from serial runs"
            rows.append([executor, workers, f"{elapsed * 1e3:.0f}", "yes"])

    table = format_table(
        ["executor", "workers", "batch ms", "identical results"],
        rows,
        title=f"X4: Batch.route_many over {N_LAYOUTS} layouts",
    )
    report("x4_batch", table)
