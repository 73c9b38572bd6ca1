"""X3 — negotiated congestion vs the two-pass sketch.

Legalization power: on over-subscribed narrow-passage workloads the
Conclusions' two-pass scheme plateaus (one penalized repass just
pushes the affected nets somewhere else), while the PathFinder-style
negotiation (:mod:`repro.core.negotiate`) iterates with accumulating
history until the passages fit.  The timed operation is one serial
first pass on the node-scaling workload.  Order invariance of each
pass (E7) is measured by ``bench_e7_independence``.
"""

from repro.core.negotiate import NegotiatedRouter, NegotiationConfig, two_pass
from repro.core.router import GlobalRouter
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
                result.route.total_length,
            ]
        )
    table = format_table(
        ["nets", "first-pass ovf", "two-pass ovf", "negotiated ovf",
         "iters", "legal", "wl first", "wl final"],
        rows,
        title="X3: negotiated rip-up-and-reroute vs the two-pass sketch",
    )
    report("x3_negotiation", table)

    # At least one workload two-pass leaves illegal must legalize.
    assert any(r[2] > 0 and r[3] == 0 for r in rows)

    # --- timed: one serial first pass on the node-scaling workload ----
    layout = netted_layout(24, 20, seed=11)
    benchmark(lambda: GlobalRouter(layout).route_all())
