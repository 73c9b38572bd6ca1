"""E6 — the congestion cost function and two-pass routing.

"A first-pass route of all nets would reveal congested areas. ... A
second route of the affected nets could penalize those paths which
chose the congested area."  Measured on the narrow-passage grid
workload: passage overflow and peak utilization before/after, plus the
wirelength paid for the relief, across pass counts.
"""

from repro.core.negotiate import two_pass
from repro.core.router import GlobalRouter
from repro.analysis.tables import format_table

from benchmarks.workloads import congested_layout, report


def bench_e6_congestion(benchmark):
    layout = congested_layout(n_nets=24, seed=5, gap=3)

    def run_two_pass():
        return two_pass(GlobalRouter(layout), penalty_weight=4.0, passes=2)

    repassed = benchmark(run_two_pass)

    rows = [
        [
            "1 (no feedback)",
            repassed.congestion_before.total_overflow,
            f"{repassed.congestion_before.max_utilization:.2f}",
            repassed.first.total_length,
            0,
        ]
    ]
    for passes in (2, 4, 6):
        result = two_pass(GlobalRouter(layout), penalty_weight=4.0, passes=passes)
        rows.append(
            [
                passes,
                result.congestion_after.total_overflow,
                f"{result.congestion_after.max_utilization:.2f}",
                result.route.total_length,
                len(result.rerouted_nets),
            ]
        )

    table = format_table(
        ["passes", "total overflow", "peak util", "wirelength", "nets rerouted"],
        rows,
        title="E6: congestion-penalized repasses on the narrow-passage grid",
    )
    report("e6_congestion", table)

    assert (
        repassed.congestion_after.total_overflow
        <= repassed.congestion_before.total_overflow
    )
