"""Multi-terminal net routing: the Steiner-tree approximation.

From the Extensions section: "Multi-terminal nets are accommodated by
approximating a Steiner tree with an adaptation of Dijkstra's minimum
spanning tree algorithm.  The modification ... considers all line
segments in the spanning tree being built as potential connection
points.  A spanning tree would only consider the pins (vertices)."

And for multi-pin terminals: "When a terminal is connected into the
tree all the line segments which make up the connecting path as well
as all the pins which are associated with the newly connected terminal
are brought into the connected set."

The implementation grows the connected set one terminal at a time from
the net's seed terminal (:attr:`~repro.layout.net.Net.seed_terminal`); the
next terminal is the one with the smallest rectilinear lower-bound
distance to the set (or, with ``exact_order=True``, the smallest true
A* cost — the A2 ablation compares both).  Each connection is a
multi-source A* from all of the terminal's pins to the whole set.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import UnroutableError
from repro.core.costs import CostModel, WirelengthCost
from repro.core.escape import EscapeMode
from repro.core.pathfinder import PathRequest, PathSearchResult, find_path
from repro.core.route import RouteTree, TargetSet, box_distance
from repro.geometry.raytrace import ObstacleSet
from repro.layout.net import Net
from repro.layout.terminal import Terminal
from repro.search.engine import Order
from repro.search.stats import SearchStats


def route_net(
    net: Net,
    obstacles: ObstacleSet,
    *,
    cost_model: Optional[CostModel] = None,
    mode: EscapeMode = EscapeMode.FULL,
    order: Order = Order.A_STAR,
    exact_order: bool = False,
    node_limit: Optional[int] = None,
    trace: bool = False,
) -> RouteTree:
    """Route *net* as an approximate Steiner tree.

    Parameters mirror :class:`~repro.core.pathfinder.PathRequest`;
    ``exact_order`` selects true-cost Prim ordering over the
    lower-bound greedy (slower, occasionally shorter trees).  Every
    connection is one :func:`find_path` on the net's one request, its
    sources swapped in: the engine is chosen, and the kernel's problem
    block filled, once per net.

    Raises
    ------
    UnroutableError
        When some terminal cannot be connected.  The partially built
        :class:`RouteTree` rides along as ``partial``.
    """
    model = cost_model if cost_model is not None else WirelengthCost()
    tree = RouteTree(net_name=net.name)

    seed = net.seed_terminal
    connected = TargetSet(points=seed.locations)
    tree.connected_terminals.append(seed.name)
    request = PathRequest(obstacles, [], connected, model, mode, order, node_limit, trace)

    # The remaining terminals by name, each with its lower-bound distance
    # to the connected set.  The set only grows, so each step folds in
    # its new boxes alone, and the first least gap is the (gap, name) least.
    remaining = sorted((t for t in net.terminals if t is not seed), key=lambda t: t.name)
    gaps = [box_distance(connected.flat, t.locations) for t in remaining]
    stats: list[SearchStats] = []
    try:
        while remaining:
            if exact_order:
                k, outcome = _cheapest_connection(remaining, request)
            else:
                k = gaps.index(min(gaps))
                request.sources = [(loc, 0.0) for loc in remaining[k].locations]
                try:
                    outcome = find_path(request)
                except UnroutableError as exc:
                    raise UnroutableError(
                        f"net {tree.net_name!r}: cannot connect terminal "
                        f"{remaining[k].name!r}: {exc}",
                        partial=tree,
                    ) from exc
            terminal = remaining.pop(k)
            del gaps[k]

            tree.paths.append(outcome.path)
            tree.connected_terminals.append(terminal.name)
            stats.append(outcome.stats)
            if outcome.trace is not None:
                tree.traces.append(outcome.trace)
            new = connected.connect(terminal.locations, outcome.path.points)
            gaps = [min(gap, box_distance(new, t.locations)) for gap, t in zip(gaps, remaining)]
    finally:
        tree.stats = SearchStats.merged(stats)
    return tree


def _cheapest_connection(
    remaining: list[Terminal], request: PathRequest
) -> tuple[int, PathSearchResult]:
    """Exact Prim step: search every remaining terminal, keep the cheapest.

    *remaining* is in name order; returns the winner's index there.
    Cost is one full A* per candidate per step — quadratic in terminal
    count — which is why the lower-bound greedy is the default.
    """
    best: Optional[tuple[int, PathSearchResult]] = None
    failures: list[str] = []
    for k, terminal in enumerate(remaining):
        request.sources = [(loc, 0.0) for loc in terminal.locations]
        try:
            outcome = find_path(request)
        except UnroutableError:
            failures.append(terminal.name)
            continue
        if best is None or outcome.path.cost < best[1].path.cost:
            best = (k, outcome)
    if best is None:
        raise UnroutableError(
            f"no remaining terminal is connectable (tried: {', '.join(failures)})"
        )
    return best
