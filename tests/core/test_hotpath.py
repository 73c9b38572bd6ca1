"""Hot-path overhaul invariants at the router level.

The ray probe counter must count every ray the searches trace, the
negotiated pruning must be a strict subset operation, and requests
that still carry the retired ``ray_cache`` key must load and route.
"""

import pytest

from repro.api import RouteRequest, RoutingPipeline
from repro.core.negotiate import NegotiatedRouter, NegotiationConfig
from repro.core.router import GlobalRouter, RouterConfig
from repro.layout.generators import LayoutSpec, grid_layout, random_layout, random_netlist


@pytest.fixture(scope="module")
def layout():
    return random_layout(LayoutSpec(n_cells=20, n_nets=10, density=0.3), seed=13)


def oversubscribed_layout(n_nets: int = 18):
    import random

    layout = grid_layout(3, 3, cell_width=20, cell_height=20, gap=3, margin=8)
    rng = random.Random(5)
    spec = LayoutSpec(terminals_per_net=(2, 3), pad_fraction=0.0)
    for net in random_netlist(layout, n_nets, rng=rng, spec=spec):
        layout.add_net(net)
    return layout


def tree_shapes(route):
    return {
        name: ([p.points for p in tree.paths], [p.cost for p in tree.paths])
        for name, tree in route.trees.items()
    }


class TestCacheParity:
    """Ray-probe telemetry.  Every literal equals the hits plus misses
    the retired ray memo recorded on the same run: one ``first_hit`` is
    one probe, one ``reaches`` four, whether or not it repeats."""

    def test_cache_counters_populate(self, layout):
        route = GlobalRouter(layout).route_all()
        assert route.stats.cache_hits == 0
        assert route.stats.cache_misses > 0

    def test_batched_negotiated_probe_counts_are_pinned(self):
        # A run whose every search is compiled (four probes per
        # expansion, no first_hit): formerly 13732 memo hits + 1068 misses on the
        # obstacle set and 3960 + 912 on the final route's stats.
        negotiated = NegotiatedRouter(
            router=GlobalRouter(oversubscribed_layout()),
            negotiation=NegotiationConfig(max_iterations=6),
        )
        outcome = negotiated.run()
        assert negotiated.router.obstacles.ray_probes == 14800
        assert (outcome.route.stats.cache_hits, outcome.route.stats.cache_misses) == (0, 4872)


class TestNegotiationPruning:
    def test_opt_out_reroutes_everything(self):
        pruned = NegotiatedRouter(
            oversubscribed_layout(),
            RouterConfig(prune_clean_nets=True),
            negotiation=NegotiationConfig(max_iterations=4),
        ).run()
        full = NegotiatedRouter(
            oversubscribed_layout(),
            RouterConfig(prune_clean_nets=False),
            negotiation=NegotiationConfig(max_iterations=4),
        ).run()
        # Full rip-up touches at least as many nets per wave...
        for lean_wave, full_wave in zip(pruned.iterations[1:], full.iterations[1:]):
            assert full_wave.rerouted >= lean_wave.rerouted
        # ...and with waves actually run, strictly more nets moved in
        # total (every routed net is ripped up, not just congested ones).
        if len(full.iterations) > 1:
            assert len(full.rerouted_nets) >= len(pruned.rerouted_nets)
            assert len(full.rerouted_nets) == len(full.route.trees)

    def test_pruning_is_default(self):
        assert RouterConfig().prune_clean_nets is True


class TestPipelineTelemetry:
    def test_cache_off_request_round_trips(self, layout):
        # Requests written while the ray memo existed still load: the
        # retired key is dropped with a warning and the route is the
        # one the same request gets without it.
        request = RouteRequest(
            layout=layout,
            strategy="single",
            config=RouterConfig(prune_clean_nets=False),
        )
        document = request.to_dict()
        document["config"]["ray_cache"] = False
        with pytest.warns(UserWarning, match="ray_cache"):
            revived = RouteRequest.from_dict(document)
        assert revived.config == request.config
        result = RoutingPipeline().run(revived)
        assert tree_shapes(result.route) == tree_shapes(RoutingPipeline().run(request).route)
        assert not [key for key in result.timings if key.startswith("ray_")]
