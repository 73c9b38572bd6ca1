"""Golden values for every rip-up-and-reroute loop.

The values were recorded on the scalar search; the default config now
runs the compiled search wherever it applies, so these tests also pin
that the compiled search reproduces them.  The engine-parity suite only
proves the two searches agree with each other, so a change to the
loops that moves both the same way slips through it.  These tests pin
literal results instead: the route
fingerprint, the ``(total_overflow, wirelength, rerouted)`` of every
wave (wave 0 is the first pass or warm start), the run-wide search
effort, and — for timing-driven — the worst delay.

The two-pass strategy is driven through the registry and its waves are
read off :meth:`GlobalRouter.reroute_pass`, the pass primitive every
loop shares, so the test does not depend on which result type the
strategy returns.
"""

import random

import pytest

from repro.api.registry import DEFAULT_REGISTRY
from repro.api.request import RouteRequest
from repro.core.negotiate import NegotiatedRouter, NegotiationConfig, negotiate
from repro.core.router import GlobalRouter, RouterConfig
from repro.incremental.engine import plan_reroute
from repro.incremental.scripts import empty_delta, replace_nets_delta
from repro.layout.generators import LayoutSpec, grid_layout, random_netlist
from repro.scenarios import route_fingerprint
from repro.scenarios.families import FAMILIES


def _congested_grid(n_nets=12, seed=5):
    layout = grid_layout(3, 3, cell_width=14, cell_height=14, gap=3, margin=6)
    rng = random.Random(seed)
    spec = LayoutSpec(terminals_per_net=(2, 4), pad_fraction=0.0)
    for net in random_netlist(layout, n_nets, rng=rng, spec=spec):
        layout.add_net(net)
    return layout


def _run(strategy, layout, params, config=RouterConfig()):
    request = RouteRequest(layout=layout, strategy=strategy, strategy_params=params)
    return DEFAULT_REGISTRY.create(strategy, params).run(GlobalRouter(layout, config), request)


def _waves(outcome):
    return [(it.total_overflow, it.wirelength, it.rerouted) for it in outcome.iterations]


@pytest.fixture
def routed(small_layout):
    route = GlobalRouter(small_layout, RouterConfig()).route_all(on_unroutable="skip")
    return small_layout, route


def test_two_pass_golden(monkeypatch):
    spied = []
    original = GlobalRouter.reroute_pass

    def spy(self, *args, **kwargs):
        candidate, congestion, moved = original(self, *args, **kwargs)
        spied.append((congestion.total_overflow, candidate.total_length, len(moved)))
        return candidate, congestion, moved

    monkeypatch.setattr(GlobalRouter, "reroute_pass", spy)
    outcome = _run("two-pass", _congested_grid(), {"passes": 3})
    assert route_fingerprint(outcome.route) == "c0071b6dba19439f"
    assert (outcome.congestion_before.total_overflow, outcome.first.total_length) == (4, 803)
    assert spied == [(3, 832, 10), (0, 899, 7)]
    assert outcome.search_stats.nodes_expanded == 338
    assert outcome.converged is True


def test_negotiated_golden():
    outcome = _run("negotiated", _congested_grid(), {"max_iterations": 6})
    assert route_fingerprint(outcome.route) == "e41864a337eed733"
    assert _waves(outcome) == [(4, 803, 0), (3, 859, 10), (0, 961, 7)]
    assert outcome.search_stats.nodes_expanded == 404
    assert outcome.converged is True


def test_negotiated_unpruned_golden():
    outcome = _run(
        "negotiated",
        _congested_grid(),
        {"max_iterations": 6},
        RouterConfig(prune_clean_nets=False),
    )
    assert route_fingerprint(outcome.route) == "81cb5a7ff74a1cc4"
    assert _waves(outcome) == [(4, 803, 0), (3, 859, 12), (0, 937, 12)]
    assert outcome.search_stats.nodes_expanded == 490


def test_timing_driven_golden():
    outcome = _run("timing-driven", FAMILIES["long-critical-nets"].build(79), {})
    assert route_fingerprint(outcome.route) == "b8374a8f1fa873b8"
    assert _waves(outcome) == [(4, 471, 0), (1, 527, 8), (1, 521, 5), (0, 553, 5)]
    assert outcome.search_stats.nodes_expanded == 533
    assert outcome.timing.worst_delay == 77.0
    assert outcome.converged is True


def _seeded(mutated, warm, max_iterations):
    policy = NegotiatedRouter(
        router=GlobalRouter(mutated, RouterConfig()),
        negotiation=NegotiationConfig(max_iterations=max_iterations),
    )
    return negotiate(policy, on_unroutable="skip", seed=warm)


def test_seeded_negotiate_golden(routed):
    layout, route = routed
    mutated, warm = plan_reroute(route, layout, replace_nets_delta(layout, 2))
    outcome = _seeded(mutated, warm, 4)
    assert route_fingerprint(outcome.route) == "2fdba63826504053"
    assert _waves(outcome) == [(0, 349, 2)]
    assert outcome.search_stats.nodes_expanded == 10
    assert outcome.rerouted_nets == ("n0", "n1")


def test_seeded_negotiate_waves_golden():
    # A warm start that lands over capacity, so the seeded history and
    # the waves after the dirty-only wave 0 are pinned too.
    layout = _congested_grid()
    previous = _run("negotiated", layout, {"max_iterations": 6}).route
    mutated, warm = plan_reroute(previous, layout, replace_nets_delta(layout, 4))
    outcome = _seeded(mutated, warm, 6)
    assert route_fingerprint(outcome.route) == "4a17b7b5ff613549"
    assert _waves(outcome) == [
        (1, 897, 4),
        (2, 948, 5),
        (2, 962, 8),
        (2, 892, 7),
        (0, 975, 6),
    ]
    assert outcome.search_stats.nodes_expanded == 1039
    assert outcome.rerouted_nets == ("n0", "n1", "n10", "n11", "n2", "n3", "n4", "n5")
    assert outcome.converged is True


def test_seeded_negotiate_empty_delta_golden():
    # An empty delta on an overflowing route runs no wave: the kept
    # trees come back untouched, overflow and all.
    layout = _congested_grid()
    previous = GlobalRouter(layout, RouterConfig()).route_all()
    mutated, warm = plan_reroute(previous, layout, empty_delta())
    outcome = _seeded(mutated, warm, 6)
    assert route_fingerprint(outcome.route) == route_fingerprint(previous)
    assert _waves(outcome) == [(4, 803, 0)]
    assert outcome.search_stats.nodes_expanded == 0
    assert outcome.rerouted_nets == ()
    assert outcome.converged is False
