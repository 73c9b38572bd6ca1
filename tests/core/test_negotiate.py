"""Tests for negotiated rip-up-and-reroute and the pass primitives.

Covers the acceptance behaviours of the negotiation engine:
convergence on an over-subscribed workload that the two-pass scheme
cannot legalize, the raise/skip semantics and merge order of a pass,
and monotonicity of the accumulated history cost.
"""

import pickle
import random

import pytest

from repro.errors import RoutingError, UnroutableError
from repro.core.congestion import (
    CongestionHistory,
    CongestionLedger,
    CongestionMap,
    Passage,
    PassageUsage,
    find_passages,
    measure_congestion,
)
from repro.core.costs import NegotiatedCongestionCost, WirelengthCost
from repro.core.negotiate import NegotiatedRouter, NegotiationConfig, two_pass
from repro.core.parallel import make_executor
from repro.core.route import GlobalRoute
from repro.core.router import GlobalRouter, RouterConfig
from repro.geometry.point import Axis, Point
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.layout.generators import LayoutSpec, grid_layout, random_netlist
from repro.layout.layout import Layout
from repro.layout.net import Net
from repro.analysis.verify import verify_global_route


def trapped_layout() -> Layout:
    """Net ``trapped`` starts outside a closed ring of cells and ends
    inside it; net ``fine`` routes freely."""
    layout = Layout(Rect(0, 0, 100, 100))
    for cell in (
        Cell.rect("w", 40, 40, 2, 20),
        Cell.rect("e", 58, 40, 2, 20),
        Cell.rect("s", 40, 40, 20, 2),
        Cell.rect("n", 40, 58, 20, 2),
    ):
        layout.add_cell(cell)
    layout.add_net(Net.two_point("trapped", Point(10, 10), Point(50, 50)))
    layout.add_net(Net.two_point("fine", Point(5, 5), Point(90, 5)))
    return layout


def oversubscribed_layout(n_nets: int = 16, seed: int = 5, gap: int = 3) -> Layout:
    """The narrow-passage macro grid with more nets than two-pass can fit."""
    layout = grid_layout(3, 3, cell_width=20, cell_height=20, gap=gap, margin=8)
    rng = random.Random(seed)
    spec = LayoutSpec(terminals_per_net=(2, 3), pad_fraction=0.0)
    for net in random_netlist(layout, n_nets, rng=rng, spec=spec):
        layout.add_net(net)
    return layout


class TestConvergence:
    def test_legalizes_what_two_pass_cannot(self):
        layout = oversubscribed_layout()
        repassed = two_pass(GlobalRouter(layout), penalty_weight=4.0, passes=2)
        assert repassed.congestion_after.total_overflow > 0

        result = NegotiatedRouter(layout).run()
        assert result.converged
        assert result.congestion_after.total_overflow == 0
        assert result.congestion_before.total_overflow > 0
        assert verify_global_route(result.route, layout) == {}

    def test_iteration_stats_recorded(self):
        layout = oversubscribed_layout()
        result = NegotiatedRouter(layout).run()
        assert result.iterations[0].iteration == 0
        assert result.iterations[0].total_overflow == result.congestion_before.total_overflow
        assert result.iteration_count == len(result.iterations) - 1
        assert result.iterations[-1].total_overflow == 0
        assert all(it.elapsed_seconds >= 0 for it in result.iterations)
        deltas = [it.wirelength for it in result.iterations]
        for prev, it in zip(result.iterations, result.iterations[1:]):
            assert it.wirelength_delta == it.wirelength - prev.wirelength
        assert deltas[0] == result.first.total_length

    def test_rerouted_nets_tracked(self):
        layout = oversubscribed_layout()
        result = NegotiatedRouter(layout).run()
        assert result.rerouted_nets
        assert set(result.rerouted_nets) <= {n.name for n in layout.nets}

    def test_uncongested_layout_needs_no_iterations(self, small_layout):
        result = NegotiatedRouter(small_layout).run()
        if result.congestion_before.total_overflow == 0:
            assert result.converged
            assert result.iteration_count == 0
            assert result.route is result.first
            assert result.rerouted_nets == ()

    def test_budget_exhaustion_returns_best_seen(self):
        layout = oversubscribed_layout(n_nets=24)
        result = NegotiatedRouter(
            layout, negotiation=NegotiationConfig(max_iterations=2)
        ).run()
        assert not result.converged
        assert len(result.iterations) == 3
        assert (
            result.congestion_after.total_overflow
            <= result.congestion_before.total_overflow
        )
        assert verify_global_route(result.route, layout) == {}

    def test_invalid_config_rejected(self):
        with pytest.raises(RoutingError):
            NegotiationConfig(max_iterations=0)
        with pytest.raises(RoutingError):
            NegotiationConfig(present_weight=-1.0)
        with pytest.raises(RoutingError):
            NegotiationConfig(history_weight=-0.5)
        with pytest.raises(RoutingError):
            NegotiationConfig(history_gain=-2.0)

    def test_invalid_on_unroutable_rejected(self, small_layout):
        with pytest.raises(RoutingError):
            NegotiatedRouter(small_layout).run(on_unroutable="explode")

    def test_wraps_existing_router(self, small_layout):
        router = GlobalRouter(small_layout, RouterConfig(inverted_corner=True))
        negotiated = NegotiatedRouter(router=router)
        assert negotiated.router is router
        assert negotiated.layout is small_layout

    def test_layout_and_router_mutually_exclusive(self, small_layout):
        router = GlobalRouter(small_layout)
        with pytest.raises(RoutingError):
            NegotiatedRouter(small_layout, router=router)
        with pytest.raises(RoutingError):
            NegotiatedRouter()

    def test_legacy_delegates_removed(self, small_layout):
        router = GlobalRouter(small_layout)
        assert not hasattr(router, "route_negotiated")
        assert not hasattr(router, "route_two_pass")


class TestParallelParity:
    """The pass primitive (merge order, raise/skip semantics) and the
    pool validation shared by the request-level fan-out."""

    def test_route_into_merges_in_input_order(self, small_layout):
        router = GlobalRouter(small_layout)
        reordered = [n.name for n in reversed(small_layout.nets)]
        route = GlobalRoute()
        assert router.route_into(route, reordered, on_unroutable="raise") == reordered
        assert list(route.trees) == reordered
        assert route.failed_nets == []

    def test_route_into_takes_net_objects_and_per_net_models(self, small_layout):
        router = GlobalRouter(small_layout)
        nets = list(small_layout.nets)
        by_name, by_net = GlobalRoute(), GlobalRoute()
        merged = router.route_into(by_name, [net.name for net in nets], on_unroutable="raise")
        assert router.route_into(
            by_net,
            nets,
            {net.name: WirelengthCost() for net in nets},
            on_unroutable="raise",
        ) == merged
        assert [(name, [p.points for p in tree.paths]) for name, tree in by_name.trees.items()] == [
            (name, [p.points for p in tree.paths]) for name, tree in by_net.trees.items()
        ]

    def test_route_into_skip_keeps_existing_tree_and_ledger_row(self, small_layout):
        route = GlobalRouter(small_layout).route_all()
        ledger = CongestionLedger(find_passages(small_layout))
        ledger.load(route)
        before = ledger.snapshot()
        names = [net.name for net in small_layout.nets]
        stuck, other = names[0], names[1]
        kept = route.trees[stuck]

        class Stuck(GlobalRouter):
            def route_one(self, net, *, cost_model=None):
                if net.name == stuck:
                    raise UnroutableError(f"nope: {net.name}")
                return super().route_one(net, cost_model=cost_model)

        merged = Stuck(small_layout).route_into(
            route, [stuck, other], on_unroutable="skip", ledger=ledger
        )
        assert merged == [other]
        assert route.trees[stuck] is kept
        assert route.failed_nets == []
        assert ledger.snapshot() == before

    def test_route_into_skip_records_net_without_tree(self):
        layout = trapped_layout()
        route = GlobalRoute()
        merged = GlobalRouter(layout).route_into(
            route, ["trapped", "fine"], on_unroutable="skip"
        )
        assert merged == ["fine"]
        assert route.failed_nets == ["trapped"]
        assert list(route.trees) == ["fine"]

    def test_route_into_raise_reraises_original_error(self, small_layout):
        error = UnroutableError("nope", partial="partial tree")

        class Failing(GlobalRouter):
            def route_one(self, net, *, cost_model=None):
                raise error

        with pytest.raises(UnroutableError) as excinfo:
            Failing(small_layout).route_into(
                GlobalRoute(), [net.name for net in small_layout.nets], on_unroutable="raise"
            )
        assert excinfo.value is error
        assert excinfo.value.partial == "partial tree"

    def test_route_into_raise_keeps_earlier_nets_in_the_pass_route(self):
        route = GlobalRoute()
        with pytest.raises(UnroutableError) as excinfo:
            GlobalRouter(trapped_layout()).route_into(
                route, ["fine", "trapped"], on_unroutable="raise"
            )
        assert excinfo.value.partial is not None
        assert list(route.trees) == ["fine"]
        assert route.failed_nets == []

    def test_route_into_rejects_unknown_policy(self, small_layout):
        with pytest.raises(RoutingError, match="on_unroutable"):
            GlobalRouter(small_layout).route_into(GlobalRoute(), [], on_unroutable="ignore")

    def test_parallel_skip_mode_records_failures(self):
        route = GlobalRouter(trapped_layout()).route_all(on_unroutable="skip")
        assert route.failed_nets == ["trapped"]
        assert route.routed_count == 1

    def test_parallel_raise_preserves_partial(self):
        with pytest.raises(UnroutableError) as excinfo:
            GlobalRouter(trapped_layout()).route_all()
        # raise mode re-raises the original error, partial tree intact
        assert excinfo.value.partial is not None
        # process batches pickle the error back from their workers; the
        # partial-tree diagnostic must survive that round trip
        shipped = pickle.loads(pickle.dumps(excinfo.value))
        assert isinstance(shipped, UnroutableError)
        assert shipped.partial is not None

    def test_two_pass_skip_never_contradicts(self):
        layout = oversubscribed_layout()
        result = two_pass(
            GlobalRouter(layout), penalty_weight=4.0, passes=3, on_unroutable="skip"
        )
        assert not (set(result.route.failed_nets) & set(result.route.trees))

    def test_two_pass_skip_keeps_first_pass_failures(self):
        # congestion around the macros plus one net walled off in a ring
        layout = oversubscribed_layout()
        for cell in (
            Cell.rect("rw", 1, 1, 1, 4),
            Cell.rect("re", 6, 1, 1, 4),
            Cell.rect("rs", 1, 1, 6, 1),
            Cell.rect("rn", 1, 6, 6, 1),
        ):
            layout.add_cell(cell)
        layout.add_net(Net.two_point("walled", Point(4, 4), Point(60, 60)))
        result = two_pass(
            GlobalRouter(layout), penalty_weight=4.0, passes=3, on_unroutable="skip"
        )
        assert "walled" in result.first.failed_nets
        assert "walled" in result.route.failed_nets

    def test_bad_executor_rejected(self):
        # the request-level pools (batch, service) share this check
        with pytest.raises(RoutingError, match="executor"):
            make_executor(2, "fiber")

    def test_too_few_workers_rejected(self):
        with pytest.raises(RoutingError, match="workers >= 1"):
            make_executor(0, "thread")


class TestHistoryMonotonicity:
    def passage(self, x0: int = 10) -> Passage:
        return Passage(Rect(x0, 0, x0 + 2, 20), Axis.Y, ("a", "b"))

    def overflowed_map(self, passage: Passage, n_nets: int) -> CongestionMap:
        usage = PassageUsage(passage, nets={f"n{i}" for i in range(n_nets)})
        return CongestionMap([usage])

    def test_history_accumulates_and_never_decreases(self):
        passage = self.passage()
        history = CongestionHistory()
        seen = [history.value(0)]
        for load in (8, 6, 4, 8):
            history.update(self.overflowed_map(passage, load))
            seen.append(history.value(0))
        assert seen == sorted(seen)
        assert seen[0] == 0.0
        assert seen[-1] > seen[0]

    def test_drained_passage_keeps_history(self):
        passage = self.passage()
        history = CongestionHistory()
        history.update(self.overflowed_map(passage, 8))
        accrued = history.value(0)
        assert accrued > 0
        history.update(self.overflowed_map(passage, 1))  # within capacity
        assert history.value(0) == accrued

    def test_gain_scales_deposits(self):
        passage = self.passage()
        slow, fast = CongestionHistory(gain=1.0), CongestionHistory(gain=2.0)
        cmap = self.overflowed_map(passage, 8)
        slow.update(cmap)
        fast.update(cmap)
        assert fast.value(0) == pytest.approx(2 * slow.value(0))

    def test_penalty_terms_keep_drained_history(self):
        passage = self.passage()
        history = CongestionHistory()
        history.update(self.overflowed_map(passage, 8))
        drained = self.overflowed_map(passage, 1)
        terms = history.penalty_terms(drained)
        assert len(terms) == 1
        region, present, hist = terms[0]
        assert region == passage.region
        assert present == 0.0
        assert hist == history.value(0)

    def test_negotiated_weight_monotone_in_history(self):
        model = NegotiatedCongestionCost([])
        weights = [model.region_weight(0.5, h) for h in (0.0, 1.0, 2.0, 5.0)]
        assert weights == sorted(weights)
        assert model.region_weight(0.0, 0.0) == 0.0

    def test_negotiated_weight_monotone_in_present(self):
        model = NegotiatedCongestionCost([])
        weights = [model.region_weight(p, 1.0) for p in (0.0, 0.5, 1.0, 2.0)]
        assert weights == sorted(weights)
        assert all(w >= 0 for w in weights)

    def test_measured_history_monotone_during_negotiation(self):
        layout = oversubscribed_layout()
        passages = find_passages(layout)
        router = GlobalRouter(layout)
        history = CongestionHistory()
        route = router.route_all()
        cmap = measure_congestion(passages, route)
        previous = [0.0] * len(cmap.entries)
        for _ in range(3):
            history.update(cmap)
            for index in range(len(cmap.entries)):
                assert history.value(index) >= previous[index]
                previous[index] = history.value(index)
