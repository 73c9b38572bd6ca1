"""Pipeline behavior: strategy equivalence, toggles, result JSON round-trips."""

import random

import pytest

from repro.errors import RoutingError, UnroutableError
from repro.api import RouteRequest, RouteResult, RoutingPipeline
from repro.core.negotiate import NegotiatedRouter, NegotiationConfig, two_pass
from repro.core.router import GlobalRouter, RouterConfig
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.layout.generators import LayoutSpec, grid_layout, random_netlist
from repro.layout.layout import Layout
from repro.layout.net import Net


def congested_layout() -> Layout:
    layout = grid_layout(3, 3, cell_width=20, cell_height=20, gap=3, margin=8)
    rng = random.Random(5)
    spec = LayoutSpec(terminals_per_net=(2, 3), pad_fraction=0.0)
    for net in random_netlist(layout, 24, rng=rng, spec=spec):
        layout.add_net(net)
    return layout


def trees_of(route):
    return {name: [p.points for p in tree.paths] for name, tree in route.trees.items()}


class TestStrategies:
    def test_single_matches_route_all(self, small_layout):
        direct = GlobalRouter(small_layout).route_all()
        result = RoutingPipeline().run(RouteRequest(layout=small_layout))
        assert result.strategy == "single"
        assert trees_of(result.route) == trees_of(direct)
        assert result.summary.total_length == direct.total_length
        assert result.congestion_before is not None
        assert result.congestion_after == result.congestion_before

    def test_two_pass_matches_internal_impl(self):
        layout = congested_layout()
        direct = two_pass(GlobalRouter(layout), penalty_weight=4.0, passes=3)
        result = RoutingPipeline().run(
            RouteRequest(
                layout=layout,
                strategy="two-pass",
                strategy_params={"penalty_weight": 4.0, "passes": 3},
            )
        )
        assert trees_of(result.route) == trees_of(direct.final)
        assert result.congestion_before.total_overflow == direct.congestion_before.total_overflow
        assert result.congestion_after.total_overflow == direct.congestion_after.total_overflow
        assert list(result.rerouted_nets) == list(direct.rerouted_nets)

    def test_negotiated_matches_negotiated_router(self):
        layout = congested_layout()
        direct = NegotiatedRouter(
            layout, negotiation=NegotiationConfig(max_iterations=10)
        ).run()
        result = RoutingPipeline().run(
            RouteRequest(
                layout=layout,
                strategy="negotiated",
                strategy_params={"max_iterations": 10},
            )
        )
        assert trees_of(result.route) == trees_of(direct.final)
        assert result.converged == direct.converged
        assert len(result.iterations) == len(direct.iterations)
        assert list(result.rerouted_nets) == list(direct.rerouted_nets)

    def test_bad_strategy_params_fail_before_routing(self, small_layout):
        with pytest.raises(RoutingError):
            RoutingPipeline().run(
                RouteRequest(
                    layout=small_layout,
                    strategy="negotiated",
                    strategy_params={"max_iters": 5},  # typo must fail loudly
                )
            )


class TestToggles:
    def test_verify_on_by_default(self, small_layout):
        result = RoutingPipeline().run(RouteRequest(layout=small_layout))
        assert result.verified
        assert result.violations == {}
        assert "verify" in result.timings

    def test_verify_off(self, small_layout):
        result = RoutingPipeline().run(RouteRequest(layout=small_layout, verify=False))
        assert not result.verified
        assert "verify" not in result.timings

    def test_detail_attaches_summary_and_live_object(self, small_layout):
        result = RoutingPipeline().run(RouteRequest(layout=small_layout, detail=True))
        assert result.detail_summary is not None
        assert result.detailed is not None
        assert result.detail_summary.channels == result.detailed.channel_count
        assert "detail" in result.timings

    def test_timings_cover_phases(self, small_layout):
        result = RoutingPipeline().run(RouteRequest(layout=small_layout))
        assert result.timings["total"] >= result.timings["route"]

    @staticmethod
    def budget_starved_layout() -> Layout:
        """A valid layout where ``node_limit=2`` fails only the blocked net.

        The pipeline validates layouts, so the touching-cell ring trap
        used elsewhere is unavailable here; an expansion budget makes
        the obstructed net unroutable instead.
        """
        layout = Layout(Rect(0, 0, 100, 100))
        layout.add_cell(Cell.rect("block", 40, 30, 20, 40))
        layout.add_net(Net.two_point("blocked", Point(10, 50), Point(90, 50)))
        layout.add_net(Net.two_point("fine", Point(5, 5), Point(95, 5)))
        return layout

    def test_skip_mode_records_failures(self):
        result = RoutingPipeline().run(
            RouteRequest(
                layout=self.budget_starved_layout(),
                config=RouterConfig(node_limit=2),
                on_unroutable="skip",
            )
        )
        assert result.failed_nets == ["blocked"]
        assert sorted(result.route.trees) == ["fine"]
        assert not result.ok

    def test_raise_mode_propagates(self):
        with pytest.raises(UnroutableError):
            RoutingPipeline().run(
                RouteRequest(
                    layout=self.budget_starved_layout(),
                    config=RouterConfig(node_limit=2),
                )
            )


class TestResultRoundTrip:
    """to_json/from_json must be lossless for all three built-ins."""

    @pytest.mark.parametrize(
        "strategy,params",
        [
            ("single", {}),
            ("two-pass", {"penalty_weight": 4.0, "passes": 3}),
            ("negotiated", {"max_iterations": 8}),
        ],
    )
    def test_round_trip(self, strategy, params):
        layout = congested_layout()
        result = RoutingPipeline().run(
            RouteRequest(
                layout=layout,
                strategy=strategy,
                strategy_params=params,
                detail=True,
            )
        )
        rebuilt = RouteResult.from_json(result.to_json())
        assert rebuilt.strategy == result.strategy
        assert trees_of(rebuilt.route) == trees_of(result.route)
        assert rebuilt.summary == result.summary
        assert rebuilt.congestion_before == result.congestion_before
        assert rebuilt.congestion_after == result.congestion_after
        assert rebuilt.iterations == result.iterations
        assert rebuilt.rerouted_nets == result.rerouted_nets
        assert rebuilt.converged == result.converged
        assert rebuilt.timings == result.timings
        assert rebuilt.violations == result.violations
        assert rebuilt.verified == result.verified
        assert rebuilt.detail_summary == result.detail_summary
        # the live detailed object is runtime-only by design
        assert rebuilt.detailed is None
        # a second hop is byte-stable
        assert rebuilt.to_json() == result.to_json()

    def test_bad_version_rejected(self, small_layout):
        result = RoutingPipeline().run(RouteRequest(layout=small_layout))
        data = result.to_dict()
        data["version"] = 42
        with pytest.raises(RoutingError):
            RouteResult.from_dict(data)

    def test_invalid_json_rejected(self):
        with pytest.raises(RoutingError):
            RouteResult.from_json("]")


class TestDeprecatedDelegates:
    """The legacy entry points are gone; the API is the one path."""

    def test_legacy_delegates_removed(self, small_layout):
        router = GlobalRouter(small_layout)
        assert not hasattr(router, "route_two_pass")
        assert not hasattr(router, "route_negotiated")

    def test_api_replaces_two_pass_delegate(self):
        layout = congested_layout()
        via_api = RoutingPipeline().run(
            RouteRequest(
                layout=layout,
                strategy="two-pass",
                strategy_params={"penalty_weight": 4.0, "passes": 3},
            )
        )
        direct = two_pass(GlobalRouter(layout), penalty_weight=4.0, passes=3)
        assert trees_of(via_api.route) == trees_of(direct.final)
        assert list(via_api.rerouted_nets) == direct.rerouted_nets

    def test_api_replaces_negotiated_delegate(self, small_layout):
        via_api = RoutingPipeline().run(
            RouteRequest(
                layout=small_layout,
                strategy="negotiated",
                strategy_params={"max_iterations": 3},
            )
        )
        direct = NegotiatedRouter(
            small_layout, negotiation=NegotiationConfig(max_iterations=3)
        ).run()
        assert trees_of(via_api.route) == trees_of(direct.final)

    def test_pipeline_strategies_do_not_warn(self, recwarn):
        layout = congested_layout()
        RoutingPipeline().run(
            RouteRequest(layout=layout, strategy="two-pass")
        )
        assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]


class TestNonConvergenceWarning:
    def test_capped_negotiated_run_emits_structured_warning(self):
        layout = congested_layout()
        result = RoutingPipeline().run(
            RouteRequest(
                layout=layout,
                strategy="negotiated",
                strategy_params={"max_iterations": 1},
            )
        )
        assert result.converged is False
        flagged = [w for w in result.warnings if w["kind"] == "non-convergence"]
        assert len(flagged) == 1
        warning = flagged[0]
        assert "negotiated" in warning["message"]
        assert warning["iterations"] == 1
        assert warning["total_overflow"] == result.congestion_after.total_overflow
        assert warning["total_overflow"] > 0

    def test_capped_two_pass_run_counts_its_repasses(self):
        passes = 3
        result = RoutingPipeline().run(
            RouteRequest(
                layout=congested_layout(),
                strategy="two-pass",
                strategy_params={"passes": passes},
            )
        )
        assert result.converged is False
        assert len(result.iterations) == passes
        assert result.warnings[0]["kind"] == "non-convergence"
        assert result.warnings[0]["iterations"] == passes - 1

    def test_converged_run_has_no_warning(self, small_layout):
        result = RoutingPipeline().run(
            RouteRequest(
                layout=small_layout,
                strategy="negotiated",
                strategy_params={"max_iterations": 40},
            )
        )
        assert result.converged is True
        assert result.warnings == []

    def test_single_pass_has_no_warning(self, small_layout):
        result = RoutingPipeline().run(RouteRequest(layout=small_layout))
        assert result.converged is not False
        assert result.warnings == []

    def test_warning_survives_json_round_trip(self):
        layout = congested_layout()
        result = RoutingPipeline().run(
            RouteRequest(
                layout=layout,
                strategy="negotiated",
                strategy_params={"max_iterations": 1},
            )
        )
        revived = RouteResult.from_dict(result.to_dict())
        assert revived.warnings == result.warnings
        assert revived.warnings[0]["kind"] == "non-convergence"
