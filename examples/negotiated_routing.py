#!/usr/bin/env python3
"""Negotiated rip-up-and-reroute on an over-subscribed floorplan.

Where ``congestion_twopass.py`` demonstrates the single feedback round
sketched in the paper's Conclusions, this example runs the iterated
PathFinder-style negotiation: route everything, then repeatedly rip up
the nets crossing over-capacity passages and reroute them under a cost
that combines present passage utilization with accumulated overflow
history, until every passage fits.  The workload is deliberately
over-subscribed so the two-pass scheme cannot legalize it.

Run:  python examples/negotiated_routing.py
"""

import random

from repro import NegotiatedRouter, grid_layout
from repro.api import RouteRequest, RoutingPipeline
from repro.layout.generators import LayoutSpec, random_netlist
from repro.analysis.tables import format_table


def main() -> None:
    # Nine identical macros with 3-unit passages; 16 random nets are
    # more than the central corridors can take on the first pass.
    layout = grid_layout(3, 3, cell_width=20, cell_height=20, gap=3, margin=8)
    rng = random.Random(5)
    spec = LayoutSpec(terminals_per_net=(2, 3), pad_fraction=0.0)
    for net in random_netlist(layout, 16, rng=rng, spec=spec):
        layout.add_net(net)
    print(f"{len(layout.cells)} macros, {len(layout.nets)} nets\n")

    # The paper's two-pass sketch gets stuck: one penalized repass can
    # only push the affected nets somewhere else.  (Routed through the
    # unified pipeline — the canonical entry point for any strategy.)
    two_pass = RoutingPipeline().run(RouteRequest(
        layout=layout,
        strategy="two-pass",
        strategy_params={"penalty_weight": 4.0},
    ))
    print(f"two-pass:   overflow {two_pass.congestion_before.total_overflow} -> "
          f"{two_pass.congestion_after.total_overflow} (stuck over capacity)")

    # Negotiation iterates with accumulating history until legal.
    result = NegotiatedRouter(layout).run()
    status = "converged" if result.converged else "budget exhausted"
    print(f"negotiated: overflow {result.congestion_before.total_overflow} -> "
          f"{result.congestion_after.total_overflow} ({status} after "
          f"{result.iteration_count} iterations)\n")

    rows = [
        [
            it.iteration,
            it.overflowed_passages,
            it.total_overflow,
            it.max_overflow,
            it.wirelength,
            f"{it.wirelength_delta:+d}" if it.iteration else "-",
            it.rerouted,
            f"{it.elapsed_seconds * 1e3:.0f}",
        ]
        for it in result.iterations
    ]
    print(format_table(
        ["iter", "passages over", "overflow", "max", "wirelength", "delta",
         "rerouted", "t ms"],
        rows,
        title="negotiation convergence (iteration 0 is the first pass)",
    ))
    print(f"\nwirelength price of legality: "
          f"{result.first.total_length} -> {result.route.total_length} "
          f"({len(result.rerouted_nets)} distinct nets rerouted)")


if __name__ == "__main__":
    main()
