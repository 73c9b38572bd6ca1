"""X1 — placement feedback (the paper's "further research" loop).

The Introduction proposes letting routing feedback adjust the
placement, and warns "one must be concerned about convergence".  This
experiment runs the loop on tight floorplans and reports the overflow
trajectory — including whether it converged, stalled, or ran out of
legal moves — alongside the routing-only two-pass alternative.
"""

import random

from repro.core.feedback import adjust_placement
from repro.core.negotiate import two_pass
from repro.core.router import GlobalRouter
from repro.layout.generators import LayoutSpec, grid_layout, random_netlist
from repro.analysis.tables import format_table

from benchmarks.workloads import report


def tight_floorplan(gap: int, seed: int, n_nets: int = 16):
    layout = grid_layout(2, 2, cell_width=20, cell_height=20, gap=gap, margin=14)
    rng = random.Random(seed)
    spec = LayoutSpec(terminals_per_net=(2, 2), pad_fraction=0.0)
    for net in random_netlist(layout, n_nets, rng=rng, spec=spec):
        layout.add_net(net)
    return layout


def bench_x1_placement_feedback(benchmark):
    cases = [(gap, seed) for gap in (2, 3) for seed in (3, 7)]

    def run_feedback():
        return [
            adjust_placement(tight_floorplan(gap, seed), step=2, max_rounds=6)
            for gap, seed in cases
        ]

    results = benchmark(run_feedback)

    rows = []
    for (gap, seed), result in zip(cases, results):
        layout = tight_floorplan(gap, seed)
        repassed = two_pass(GlobalRouter(layout), penalty_weight=4.0, passes=4)
        outcome = (
            "converged"
            if result.converged
            else ("stalled" if result.stalled else "budget/stuck")
        )
        rows.append(
            [
                f"gap={gap} seed={seed}",
                " -> ".join(str(v) for v in result.overflow_history),
                len(result.moves),
                outcome,
                repassed.congestion_after.total_overflow,
            ]
        )
    table = format_table(
        ["floorplan", "overflow trajectory (placement feedback)", "moves",
         "outcome", "two-pass overflow (routing only)"],
        rows,
        title="X1: congestion-driven placement adjustment vs routing-only relief",
    )
    report("x1_placement_feedback", table)

    for result in results:
        assert result.overflow_history[-1] <= result.overflow_history[0]
