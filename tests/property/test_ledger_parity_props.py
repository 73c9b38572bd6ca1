"""Parity of the congestion ledger with a from-scratch measurement.

:class:`~repro.core.congestion.CongestionLedger` keeps passage usage
up to date as trees are merged, reading each path's integer hops.  The
oracle, :func:`~tests.conftest.broadcast_congestion`, recounts the
whole route from its segments with one passages x segments carry
broadcast, sharing no code with the ledger.  Whatever sequence of
loads, adds, removes and replacements hypothesis draws, over trees
routed on the corpus layouts and over wires and cells at the
``±2**62`` coordinate limit, every snapshot must equal the oracle's
map on the same route: the same passages in the same order, the same
net set per passage, and the same totals, which are checked here
against the :class:`PassageUsage` definitions.  A corpus sweep then
checks every map and every :class:`IterationStats`
the wave loop reports, for each congestion strategy and for the
incremental warm start, and that ``measure_congestion`` agrees with
the oracle on each of those routes.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.registry import DEFAULT_REGISTRY
from repro.api.request import RouteRequest
from repro.core.congestion import (
    CongestionHistory,
    CongestionLedger,
    CongestionMap,
    find_passages,
    measure_congestion,
)
from repro.core.negotiate import NegotiatedRouter, NegotiationConfig, negotiate
from repro.core.route import GlobalRoute, RoutePath, RouteTree
from repro.core.router import GlobalRouter
from repro.geometry.point import Point
from repro.incremental.engine import plan_reroute
from repro.incremental.scripts import replace_nets_delta
from repro.scenarios import load_corpus

from tests.conftest import broadcast_congestion
from tests.property.conftest import LIMIT, limit_layouts

_CORPUS = load_corpus()


@functools.lru_cache(maxsize=None)
def _routed(index: int) -> tuple:
    """Corpus layout *index*, its first-pass route, and a tree pool.

    The pool holds every first-pass tree plus the trees a negotiated
    run moved, so a replacement can swap in different geometry.
    """
    layout = _CORPUS[index].layout
    router = GlobalRouter(layout)
    first = router.route_all(on_unroutable="skip")
    moved = NegotiatedRouter(router=router, negotiation=NegotiationConfig(max_iterations=2))
    final = moved.run(on_unroutable="skip").route
    pool = list(first.trees.values()) + [
        tree
        for name, tree in final.trees.items()
        if name not in first.trees or _points(tree) != _points(first.trees[name])
    ]
    return layout, first, pool


def _points(tree) -> list:
    return [path.points for path in tree.paths]


def assert_matches_oracle(cmap: CongestionMap, oracle: CongestionMap) -> None:
    """*cmap* equals *oracle*, and its totals follow the per-passage view."""
    assert cmap.passages == oracle.passages
    assert cmap == oracle
    entries = oracle.entries
    assert [entry.nets for entry in cmap.entries] == [entry.nets for entry in entries]
    assert cmap.usage.tolist() == [entry.usage for entry in entries]
    assert cmap.total_overflow == sum(entry.overflow for entry in entries)
    assert cmap.overflow_count == sum(entry.overflow > 0 for entry in entries)
    assert cmap.max_overflow == max((entry.overflow for entry in entries), default=0)
    assert cmap.max_utilization == max((entry.utilization for entry in entries), default=0.0)
    over = [entry for entry in entries if entry.overflow > 0]
    assert cmap.overflowed() == over
    assert cmap.affected_nets() == set().union(*(entry.nets for entry in over))
    assert cmap.penalty_regions(weight=1.5) == [
        (entry.passage.region, 1.5 * (entry.usage / entry.passage.capacity)) for entry in over
    ]


@st.composite
def ledger_scripts(draw):
    """A corpus layout, a passage cutoff, a starting route and edit ops."""
    index = draw(st.integers(min_value=0, max_value=len(_CORPUS) - 1))
    layout, first, pool = _routed(index)
    names = [net.name for net in layout.nets] + ["ad-hoc"]
    start = draw(st.lists(st.sampled_from(sorted(first.trees)), unique=True)) if first.trees else []
    op = st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(names),
            st.integers(min_value=0, max_value=max(0, len(pool) - 1)),
        ),
        st.tuples(st.just("remove"), st.sampled_from(names), st.just(0)),
    )
    ops = draw(st.lists(op, max_size=12)) if pool else []
    max_gap = draw(st.sampled_from([None, 1, 3, 8]))
    return layout, first, pool, start, ops, max_gap


@st.composite
def limit_scripts(draw):
    """Cells and wires on :data:`LIMIT`, a starting route and edit ops."""
    layout = draw(limit_layouts())
    pool = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        tree = RouteTree(net_name="pool")
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            points = [Point(draw(st.sampled_from(LIMIT)), draw(st.sampled_from(LIMIT)))]
            for step in range(draw(st.integers(min_value=0, max_value=4))):
                last, coord = points[-1], draw(st.sampled_from(LIMIT))
                points.append(Point(coord, last.y) if step % 2 else Point(last.x, coord))
            tree.paths.append(RoutePath(tuple(points)))
        pool.append(tree)
    names = ["n0", "n1", "n2"]
    start = draw(st.dictionaries(st.sampled_from(names), st.sampled_from(pool)))
    ops = draw(st.lists(st.tuples(st.sampled_from(names), st.none() | st.sampled_from(pool))))
    return layout, start, ops


class TestLedgerParity:
    @given(ledger_scripts())
    @settings(max_examples=60, deadline=None)
    def test_every_snapshot_equals_the_oracle(self, script):
        layout, first, pool, start, ops, max_gap = script
        passages = find_passages(layout, max_gap=max_gap)
        route = GlobalRoute(trees={name: first.trees[name] for name in start})
        ledger = CongestionLedger(passages)
        ledger.load(route)
        snapshots = [(ledger.snapshot(), dict(route.trees))]
        for kind, name, tree_index in ops:
            if kind == "add":
                ledger.add(name, pool[tree_index])
                route.trees[name] = pool[tree_index]
            else:
                ledger.remove(name)
                route.trees.pop(name, None)
            snapshots.append((ledger.snapshot(), dict(route.trees)))
        # Earlier snapshots stay as they were when taken.
        for snapshot, trees in snapshots:
            oracle = broadcast_congestion(passages, GlobalRoute(trees=trees))
            assert_matches_oracle(snapshot, oracle)

    @given(limit_scripts())
    @settings(max_examples=80, deadline=None)
    def test_the_coordinate_limit(self, script):
        layout, start, ops = script
        passages = find_passages(layout)
        route = GlobalRoute(trees=dict(start))
        ledger = CongestionLedger(passages)
        ledger.load(route)
        assert_matches_oracle(ledger.snapshot(), broadcast_congestion(passages, route))
        assert_matches_oracle(measure_congestion(passages, route), ledger.snapshot())
        for name, tree in ops:
            if tree is None:
                ledger.remove(name)
                route.trees.pop(name, None)
            else:
                ledger.add(name, tree)
                route.trees[name] = tree
            assert_matches_oracle(ledger.snapshot(), broadcast_congestion(passages, route))

    @given(ledger_scripts())
    @settings(max_examples=30, deadline=None)
    def test_load_equals_adding_one_net_at_a_time(self, script):
        layout, first, _, start, _, max_gap = script
        passages = find_passages(layout, max_gap=max_gap)
        route = GlobalRoute(trees={name: first.trees[name] for name in start})
        loaded, added = CongestionLedger(passages), CongestionLedger(passages)
        loaded.load(route)
        for name, tree in route.trees.items():
            added.add(name, tree)
        assert loaded.snapshot() == added.snapshot()
        assert loaded.usage.tolist() == added.usage.tolist()


def _spy_waves(monkeypatch) -> list:
    """Record every reroute pass's candidate route and reported map."""
    waves = []
    original = GlobalRouter.reroute_pass

    def spy(self, *args, **kwargs):
        candidate, congestion, moved = original(self, *args, **kwargs)
        waves.append((candidate, congestion))
        return candidate, congestion, moved

    monkeypatch.setattr(GlobalRouter, "reroute_pass", spy)
    return waves


def _oracle(passages, route) -> CongestionMap:
    """The broadcast oracle's map, after checking ``measure_congestion`` against it."""
    oracle = broadcast_congestion(passages, route)
    assert_matches_oracle(measure_congestion(passages, route), oracle)
    return oracle


def _assert_outcome_matches_oracle(outcome, waves, passages) -> None:
    before = _oracle(passages, outcome.first)
    assert_matches_oracle(outcome.congestion_before, before)
    assert_matches_oracle(outcome.congestion_after, _oracle(passages, outcome.route))
    assert len(outcome.iterations) == len(waves) + 1
    routes = [(outcome.first, before)] + [
        (candidate, _oracle(passages, candidate)) for candidate, _ in waves
    ]
    for (_, reported), (_, oracle) in zip(waves, routes[1:]):
        assert_matches_oracle(reported, oracle)
    for stats, (route, oracle) in zip(outcome.iterations, routes):
        assert (
            stats.overflowed_passages,
            stats.total_overflow,
            stats.max_overflow,
            stats.wirelength,
        ) == (oracle.overflow_count, oracle.total_overflow, oracle.max_overflow, route.total_length)


_STRATEGIES = [
    ("negotiated", {"max_iterations": 3}),
    ("negotiated", {"max_iterations": 2, "max_gap": 3}),
    ("two-pass", {"passes": 3}),
    ("timing-driven", {"max_iterations": 3}),
]


@pytest.mark.parametrize("scenario", _CORPUS, ids=lambda scenario: scenario.name)
class TestWaveLoopParity:
    @pytest.mark.parametrize(
        "strategy, params", _STRATEGIES, ids=[f"{s}-{i}" for i, (s, _) in enumerate(_STRATEGIES)]
    )
    def test_reported_maps_and_stats_equal_the_oracle(
        self, monkeypatch, scenario, strategy, params
    ):
        waves = _spy_waves(monkeypatch)
        layout = scenario.layout
        request = RouteRequest(
            layout=layout, strategy=strategy, strategy_params=params, on_unroutable="skip"
        )
        outcome = DEFAULT_REGISTRY.create(strategy, params).run(GlobalRouter(layout), request)
        passages = find_passages(layout, max_gap=params.get("max_gap"))
        _assert_outcome_matches_oracle(outcome, waves, passages)

    def test_warm_start_maps_and_stats_equal_the_oracle(self, monkeypatch, scenario):
        layout, first, _ = _routed(_CORPUS.index(scenario))
        delta = replace_nets_delta(layout, len(layout.nets) // 3)
        mutated, warm = plan_reroute(first, layout, delta)
        seeded = []
        original_seed = CongestionHistory.seed

        def seed_spy(self, congestion):
            seeded.append(congestion)
            return original_seed(self, congestion)

        monkeypatch.setattr(CongestionHistory, "seed", seed_spy)
        waves = _spy_waves(monkeypatch)
        policy = NegotiatedRouter(
            router=GlobalRouter(mutated), negotiation=NegotiationConfig(max_iterations=3)
        )
        outcome = negotiate(policy, on_unroutable="skip", seed=warm)
        passages = find_passages(mutated)
        _assert_outcome_matches_oracle(outcome, waves, passages)
        assert len(seeded) == (1 if warm.dirty else 0)
        for kept_map in seeded:
            assert_matches_oracle(kept_map, _oracle(passages, warm.kept))
