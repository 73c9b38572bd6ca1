"""Warm-start engines: plan, route only the dirty set, converge."""

from types import SimpleNamespace

import pytest

from repro.api.strategies import SingleStrategy
from repro.core.congestion import CongestionHistory, find_passages, measure_congestion
from repro.core.negotiate import NegotiatedRouter, NegotiationConfig, negotiate
from repro.core.router import GlobalRouter, RouterConfig
from repro.errors import RoutingError, UnroutableError
from repro.incremental.engine import plan_reroute
from repro.incremental.scripts import (
    disjoint_delta,
    empty_delta,
    geometry_delta,
    replace_nets_delta,
)
from repro.scenarios import route_fingerprint


@pytest.fixture
def routed(small_layout):
    route = GlobalRouter(small_layout, RouterConfig()).route_all(
        on_unroutable="skip"
    )
    return small_layout, route


def single_seeded(router, warm, *, on_unroutable="raise"):
    # The strategy reads only the request's failure policy.
    request = SimpleNamespace(on_unroutable=on_unroutable)
    return SingleStrategy().run_incremental(router, request, warm)


def negotiate_seeded(router, warm, *, on_unroutable="raise"):
    policy = NegotiatedRouter(router=router, negotiation=NegotiationConfig(max_iterations=4))
    return negotiate(policy, on_unroutable=on_unroutable, seed=warm)


def test_plan_reroute_builds_warm_start(routed):
    layout, route = routed
    delta = replace_nets_delta(layout, 2)
    mutated, warm = plan_reroute(route, layout, delta)
    assert set(warm.kept.trees) == set(warm.classification.kept)
    assert warm.dirty == warm.classification.dirty
    assert len(warm.dirty) == 2
    # Fresh stats: incremental work is accounted from zero.
    assert warm.kept.stats.nodes_expanded == 0
    assert warm.kept.failed_nets == []
    assert {net.name for net in mutated.nets} == {net.name for net in layout.nets}


def test_empty_delta_single_returns_kept_untouched(routed):
    layout, route = routed
    mutated, warm = plan_reroute(route, layout, empty_delta())
    router = GlobalRouter(mutated, RouterConfig())
    outcome = single_seeded(router, warm, on_unroutable="skip")
    assert route_fingerprint(outcome.route) == route_fingerprint(route)
    assert outcome.rerouted_nets == ()


def test_empty_delta_negotiated_returns_kept_untouched(routed):
    layout, route = routed
    mutated, warm = plan_reroute(route, layout, empty_delta())
    router = GlobalRouter(mutated, RouterConfig())
    outcome = negotiate_seeded(router, warm, on_unroutable="skip")
    assert route_fingerprint(outcome.route) == route_fingerprint(route)
    assert len(outcome.iterations) == 1
    assert outcome.iterations[0].rerouted == 0


def test_disjoint_delta_single_matches_scratch(routed):
    layout, route = routed
    delta = disjoint_delta(layout)
    mutated, warm = plan_reroute(route, layout, delta)
    router = GlobalRouter(mutated, RouterConfig())
    outcome = single_seeded(router, warm, on_unroutable="skip")
    scratch = GlobalRouter(mutated, RouterConfig()).route_all(on_unroutable="skip")
    assert route_fingerprint(outcome.route) == route_fingerprint(scratch)
    # Only the dirty nets were routed.
    assert set(outcome.rerouted_nets) <= set(warm.dirty)


def test_geometry_delta_routes_all_dirty_nets(routed):
    layout, route = routed
    delta = geometry_delta(layout)
    mutated, warm = plan_reroute(route, layout, delta)
    router = GlobalRouter(mutated, RouterConfig())
    outcome = single_seeded(router, warm, on_unroutable="skip")
    assert set(outcome.route.trees) | set(outcome.route.failed_nets) == {
        net.name for net in mutated.nets
    }
    for name in warm.classification.kept:
        assert outcome.route.trees[name] is route.trees[name]


def test_negotiated_incremental_work_is_incremental_only(routed):
    layout, route = routed
    delta = replace_nets_delta(layout, 1)
    mutated, warm = plan_reroute(route, layout, delta)
    router = GlobalRouter(mutated, RouterConfig())
    outcome = negotiate_seeded(router, warm, on_unroutable="skip")
    assert outcome.search_stats is not None
    scratch = GlobalRouter(mutated, RouterConfig()).route_all(on_unroutable="skip")
    # Routing one net must expand far fewer nodes than routing them all.
    assert outcome.search_stats.nodes_expanded < scratch.stats.nodes_expanded


@pytest.mark.parametrize("engine", [single_seeded, negotiate_seeded])
@pytest.mark.parametrize("dirty", [False, True])
def test_bad_on_unroutable_rejected(routed, engine, dirty):
    layout, route = routed
    delta = replace_nets_delta(layout, 1) if dirty else empty_delta()
    mutated, warm = plan_reroute(route, layout, delta)
    with pytest.raises(RoutingError, match="on_unroutable"):
        engine(GlobalRouter(mutated, RouterConfig()), warm, on_unroutable="ignore")


def test_single_raises_on_unroutable_dirty_net(routed):
    layout, route = routed
    delta = replace_nets_delta(layout, 1)
    mutated, warm = plan_reroute(route, layout, delta)

    class Unroutable(GlobalRouter):
        def route_one(self, net, *, cost_model=None):
            raise UnroutableError(f"nope: {net.name}")

    router = Unroutable(mutated, RouterConfig())
    with pytest.raises(UnroutableError):
        single_seeded(router, warm, on_unroutable="raise")
    skipped = single_seeded(router, warm, on_unroutable="skip")
    assert list(warm.dirty) == sorted(skipped.route.failed_nets)


def test_history_seed_charges_full_passages(routed):
    layout, route = routed
    passages = find_passages(layout, max_gap=None)
    congestion = measure_congestion(passages, route)
    history = CongestionHistory(gain=2.0)
    history.seed(congestion)
    for index, entry in enumerate(congestion.entries):
        expected = (
            2.0 * entry.usage / entry.passage.capacity
            if entry.passage.capacity > 0 and entry.usage >= entry.passage.capacity
            else 0.0
        )
        assert history.value(index) == pytest.approx(expected)
    # Seeding never decreases existing history.
    history.values = {p: 99.0 for p in history.values}
    history.seed(congestion)
    assert all(v == 99.0 for v in history.values.values())
