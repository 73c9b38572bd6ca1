"""Hot-path overhaul invariants at the router level.

The ray cache, the lean search loop, and the flattened cost models are
pure performance work: routed results must be byte-identical with the
obstacle set's memo on and off, the negotiated pruning must be a strict
subset operation, and the cache telemetry must flow end-to-end into
``RouteResult.timings``.
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


def memo_router(layout, memo: bool, config: RouterConfig = RouterConfig()) -> GlobalRouter:
    """A router whose obstacle set memoizes ray queries iff *memo*."""
    router = GlobalRouter(layout, config)
    router.obstacles.ray_cache_enabled = memo
    return router


class TestCacheParity:
    def test_single_pass_byte_identical(self, layout):
        on = memo_router(layout, True).route_all()
        off = memo_router(layout, False).route_all()
        assert tree_shapes(on) == tree_shapes(off)
        assert on.stats.nodes_expanded == off.stats.nodes_expanded
        assert on.stats.nodes_generated == off.stats.nodes_generated

    def test_traces_byte_identical(self, layout):
        on = memo_router(layout, True, RouterConfig(trace=True)).route_all()
        off = memo_router(layout, False, RouterConfig(trace=True)).route_all()
        for name in on.trees:
            assert [t.entries for t in on.tree(name).traces] == [
                t.entries for t in off.tree(name).traces
            ]

    def test_negotiated_byte_identical(self):
        def run(memo):
            return NegotiatedRouter.from_router(
                memo_router(oversubscribed_layout(), memo),
                negotiation=NegotiationConfig(max_iterations=6),
            ).run()

        on, off = run(True), run(False)
        assert tree_shapes(on.final) == tree_shapes(off.final)
        assert on.converged == off.converged
        assert on.rerouted_nets == off.rerouted_nets
        assert [
            (it.iteration, it.total_overflow, it.wirelength, it.rerouted)
            for it in on.iterations
        ] == [
            (it.iteration, it.total_overflow, it.wirelength, it.rerouted)
            for it in off.iterations
        ]

    def test_cache_counters_populate(self, layout):
        route = memo_router(layout, True).route_all()
        assert route.stats.cache_hits + route.stats.cache_misses > 0
        assert 0.0 <= route.stats.cache_hit_rate <= 1.0

    def test_batched_negotiated_memo_counts_are_pinned(self):
        # Literal memo telemetry of a run whose every search is batched
        # (reaches only, no first_hit), recorded before the ray
        # misses were answered from the track index: a miss still
        # counts four, a hit four, and nothing else moves them.
        negotiated = NegotiatedRouter.from_router(
            memo_router(oversubscribed_layout(), True),
            negotiation=NegotiationConfig(max_iterations=6),
        )
        outcome = negotiated.run()
        obstacles = negotiated.router.obstacles
        assert (obstacles.ray_cache_hits, obstacles.ray_cache_misses) == (13732, 1068)
        assert (outcome.final.stats.cache_hits, outcome.final.stats.cache_misses) == (3960, 912)

    def test_cache_disabled_zero_counters(self, layout):
        route = memo_router(layout, False).route_all()
        assert route.stats.cache_hits == 0
        assert route.stats.cache_misses == 0


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
            assert len(full.rerouted_nets) == len(full.final.trees)

    def test_pruning_is_default(self):
        assert RouterConfig().prune_clean_nets is True
        assert GlobalRouter(oversubscribed_layout()).obstacles.ray_cache_enabled is True


class TestPipelineTelemetry:
    def test_timings_report_cache_statistics(self, layout):
        result = RoutingPipeline().run(
            RouteRequest(
                layout=layout,
                strategy="negotiated",
                strategy_params={"max_iterations": 4},
            )
        )
        assert "ray_cache_hits" in result.timings
        assert "ray_cache_misses" in result.timings
        rate = result.timings["ray_cache_hit_rate"]
        assert 0.0 <= rate <= 1.0
        lookups = result.timings["ray_cache_hits"] + result.timings["ray_cache_misses"]
        assert lookups > 0

    def test_single_pass_skips_the_memo_entirely(self, layout):
        # One pass can't pay the memo back, so SingleStrategy disables
        # it for the duration — zero hits AND zero misses recorded.
        result = RoutingPipeline().run(
            RouteRequest(layout=layout, strategy="single")
        )
        assert result.timings["ray_cache_hits"] == 0.0
        assert result.timings["ray_cache_misses"] == 0.0

    def test_cache_off_request_round_trips(self, layout):
        # Requests written before the ray memo lost its knob still load:
        # the retired key is dropped with a warning.
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
        assert result.timings["ray_cache_hits"] == 0.0
        assert result.timings["ray_cache_misses"] == 0.0
        assert result.timings["ray_cache_hit_rate"] == 0.0
