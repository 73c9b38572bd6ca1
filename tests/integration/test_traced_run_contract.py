"""The per-connection call chain that perfbench's tracer times.

``perfbench/tracing.py`` measures the search at two module bindings:
``find_path`` as ``repro.core.steiner`` holds it (group ``search``) and
``search_vectorized`` as ``repro.core.pathfinder`` holds it (group
``search.engine``).  Every connection of every net goes through the
first; every connection that is not zero-length goes on through the
second into the kernel.  A change that routes around either binding
(one compiled call per net, say) leaves that group at zero calls, and
the traced run reports its metrics as unmeasured.
"""

import random

import repro.core.pathfinder as pathfinder
import repro.core.router as router
import repro.core.steiner as steiner
from repro.api import RouteRequest, RoutingPipeline
from repro.layout.generators import LayoutSpec, grid_layout, random_netlist
from repro.search import vector


def negotiated_layout():
    """A 6x6 macro grid with 3-6 terminal nets; some connect at zero length."""
    layout = grid_layout(6, 6, cell_width=20, cell_height=20, gap=3, margin=8)
    spec = LayoutSpec(terminals_per_net=(3, 6), pad_fraction=0.0)
    for net in random_netlist(layout, 16, rng=random.Random(1), spec=spec):
        layout.add_net(net)
    return layout


def counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_every_connection_passes_both_traced_bindings(monkeypatch):
    assert vector.kernel() is not None, "the search kernel did not build"
    calls = {"find_path": 0, "search_vectorized": 0}
    connections = {"all": 0, "zero_length": 0}
    route_net = router.route_net

    def counted_route_net(*args, **kwargs):
        tree = route_net(*args, **kwargs)
        connections["all"] += len(tree.paths)
        connections["zero_length"] += sum(len(path.points) == 1 for path in tree.paths)
        return tree

    monkeypatch.setattr(router, "route_net", counted_route_net)
    monkeypatch.setattr(
        steiner, "find_path", counting(calls, "find_path", steiner.find_path)
    )
    monkeypatch.setattr(
        pathfinder,
        "search_vectorized",
        counting(calls, "search_vectorized", pathfinder.search_vectorized),
    )
    result = RoutingPipeline().run(
        RouteRequest(
            layout=negotiated_layout(),
            strategy="negotiated",
            strategy_params={"max_iterations": 3},
        )
    )

    assert not result.route.failed_nets
    assert connections["zero_length"] > 0  # the layout exercises the zero-length path
    assert calls["find_path"] == connections["all"]
    assert calls["search_vectorized"] == connections["all"] - connections["zero_length"]
