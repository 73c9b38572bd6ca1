"""X3 — negotiated congestion vs the two-pass sketch, plus worker fan-out.

Two claims are measured.  First, legalization power: on over-subscribed
narrow-passage workloads the Conclusions' two-pass scheme plateaus
(one penalized repass just pushes the affected nets somewhere else),
while the PathFinder-style negotiation (:mod:`repro.core.negotiate`)
iterates with accumulating history until the passages fit.  Second,
the parallel fan-out: because each pass is order-invariant (E7), the
first pass partitions over worker processes with byte-identical trees;
the table reports wall times per worker count on the node-scaling
workload (speedup appears on multicore hosts — single-core CI boxes
only pay the pool overhead).
"""

import time

from repro.core.negotiate import NegotiatedRouter, NegotiationConfig, two_pass
from repro.core.router import GlobalRouter, RouterConfig
from repro.analysis.tables import format_table

from benchmarks.workloads import congested_layout, netted_layout, report


def bench_x3_negotiation(benchmark):
    # --- legalization: negotiation vs two-pass on rising pressure ----
    rows = []
    for n_nets in (12, 16, 20, 24):
        layout = congested_layout(n_nets=n_nets, seed=5, gap=3)
        repassed = two_pass(GlobalRouter(layout), penalty_weight=4.0, passes=2)
        result = NegotiatedRouter(
            layout, negotiation=NegotiationConfig(max_iterations=30)
        ).run()
        rows.append(
            [
                n_nets,
                result.congestion_before.total_overflow,
                repassed.congestion_after.total_overflow,
                result.congestion_after.total_overflow,
                result.iteration_count,
                "yes" if result.converged else "no",
                result.first.total_length,
                result.final.total_length,
            ]
        )
    table = format_table(
        ["nets", "first-pass ovf", "two-pass ovf", "negotiated ovf",
         "iters", "legal", "wl first", "wl final"],
        rows,
        title="X3a: negotiated rip-up-and-reroute vs the two-pass sketch",
    )
    report("x3_negotiation", table)

    # At least one workload two-pass leaves illegal must legalize.
    assert any(r[2] > 0 and r[3] == 0 for r in rows)

    # --- parallel fan-out: first-pass wall time per worker count -----
    layout = netted_layout(24, 20, seed=11)
    serial = GlobalRouter(layout).route_all()

    def run_serial():
        return GlobalRouter(layout).route_all()

    benchmark(run_serial)

    scale_rows = []
    for workers in (1, 2, 4):
        config = RouterConfig(workers=workers)
        t0 = time.perf_counter()
        route = GlobalRouter(layout, config).route_all()
        elapsed = time.perf_counter() - t0
        identical = all(
            [p.points for p in route.tree(name).paths]
            == [p.points for p in serial.tree(name).paths]
            for name in serial.trees
        )
        assert identical, f"workers={workers} diverged from the serial route"
        scale_rows.append([workers, f"{elapsed * 1e3:.1f}", "yes"])
    scale_table = format_table(
        ["workers", "first pass ms", "identical trees"],
        scale_rows,
        title="X3b: parallel net fan-out (order-invariance makes it exact)",
    )
    report("x3_parallel_fanout", scale_table)
