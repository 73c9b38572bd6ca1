"""Differential parity: the pathfinder's default search vs the oracle.

:func:`~repro.core.pathfinder.find_path` runs the compiled search
wherever it applies, and promises *byte identity* with the scalar
oracle that :func:`~repro.core.pathfinder.reference_search` forces —
same paths, same float costs, same node counters, same expansion
order.  These tests pin the selection rule, then the promise at three
layers: one ``find_path`` search (golden expansion traces), a whole
multi-net negotiated routing run (route fingerprints), and the numeric
kernel whose accumulation order the promise hinges on (an adversarial
sequential-summation canary).
"""

import random

import pytest

import repro.core.pathfinder as pathfinder
from repro.core.costs import (
    BendPenaltyCost,
    CongestionPenaltyCost,
    CostModel,
    NegotiatedCongestionCost,
    TimingDrivenCost,
    WirelengthCost,
)
from repro.core.escape import EscapeMode
from repro.core.negotiate import NegotiatedRouter, NegotiationConfig
from repro.core.pathfinder import PathRequest, find_path, reference_search
from repro.core.route import TargetSet
from repro.core.router import GlobalRouter, RouterConfig
from repro.core.timing import TimingConfig, TimingDrivenRouter
from repro.geometry.point import Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment
from repro.layout.generators import LayoutSpec, grid_layout, random_netlist
from repro.scenarios import load_corpus, route_fingerprint
from repro.scenarios.families import FAMILIES
from repro.search.engine import Order


def _congested_grid(n_nets=12, seed=5):
    layout = grid_layout(3, 3, cell_width=14, cell_height=14, gap=3, margin=6)
    rng = random.Random(seed)
    spec = LayoutSpec(terminals_per_net=(2, 4), pad_fraction=0.0)
    for net in random_netlist(layout, n_nets, rng=rng, spec=spec):
        layout.add_net(net)
    return layout


def _scene():
    obs = ObstacleSet(
        Rect(0, 0, 48, 48),
        [Rect(8, 8, 18, 20), Rect(24, 4, 34, 16), Rect(12, 28, 30, 38)],
    )
    regions = [
        (Rect(6, 6, 20, 22), 0.75),
        (Rect(22, 2, 36, 18), 1.5),
        (Rect(10, 26, 32, 40), 0.3),
        (Rect(0, 0, 48, 48), 0.01),
    ]
    return obs, regions


def _request(**overrides):
    obs, _regions = _scene()
    fields = dict(
        obstacles=obs,
        sources=[(Point(2, 2), 0.0)],
        targets=TargetSet(points=[Point(44, 44)]),
    )
    fields.update(overrides)
    return PathRequest(**fields)


_TERMS = [(Rect(6, 6, 20, 22), 1.0, 0.5)]


class _DetourWirelength(CostModel):
    """A user model that overrides only ``segment_cost``."""

    def segment_cost(self, seg):
        cost = float(seg.length)
        if seg.a.y == seg.b.y and 20 <= seg.a.y <= 30:
            cost += 3.0 * seg.length
        return cost


class _DoubledNegotiated(NegotiatedCongestionCost):
    """A negotiated model that overrides only ``segment_cost``."""

    def segment_cost(self, seg):
        return 2.0 * super().segment_cost(seg) - seg.length


def _route(request):
    result = find_path(request)
    return (
        result.path.points,
        result.path.cost,
        result.stats.nodes_expanded,
        result.stats.nodes_generated,
    )


class TestSelectionRule:
    @pytest.mark.parametrize(
        "model",
        [
            WirelengthCost(),
            NegotiatedCongestionCost(_TERMS),
            TimingDrivenCost(_TERMS, criticality=0.5),
        ],
        ids=["wirelength", "negotiated", "timing-driven"],
    )
    def test_default_config_picks_the_batched_problem(self, model):
        config = RouterConfig()
        request = _request(cost_model=model, mode=config.mode, order=config.order)
        assert pathfinder._use_batched_engine(request)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mode": EscapeMode.AGGRESSIVE},
            {"order": Order.BREADTH_FIRST},
            {"order": Order.DEPTH_FIRST},
            {"cost_model": BendPenaltyCost(1.0)},
            {"cost_model": _DetourWirelength()},
            {"cost_model": _DoubledNegotiated(_TERMS)},
            {"cost_model": TimingDrivenCost(_TERMS, criticality=0.5, base=_DetourWirelength())},
        ],
        ids=[
            "aggressive",
            "bfs",
            "dfs",
            "bend-penalty",
            "override-cost-model",
            "override-negotiated",
            "override-base",
        ],
    )
    def test_other_cases_pick_the_scalar_problem(self, overrides):
        request = _request(**overrides)
        assert not pathfinder._use_batched_engine(request)
        with reference_search():
            scalar = _route(request)
        assert _route(request) == scalar

    def test_default_router_reaches_the_batched_search(self, monkeypatch):
        calls = []
        real = pathfinder.search_vectorized

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pathfinder, "search_vectorized", counting)
        GlobalRouter(_congested_grid(n_nets=4)).route_all(on_unroutable="skip")
        assert calls
        calls.clear()
        with reference_search():
            GlobalRouter(_congested_grid(n_nets=4)).route_all(on_unroutable="skip")
        assert not calls

    def test_reference_search_counts_scanned_probes_and_restores_the_index(self):
        obs, regions = _scene()
        request = _request(obstacles=obs, cost_model=CongestionPenaltyCost(regions))
        with reference_search():
            stats = find_path(request).stats
        # Scanned rays are probes too, and there is no memo to hit.
        assert stats.cache_hits == 0 and stats.cache_misses > 0
        assert not obs._scan_rays
        assert find_path(request).stats.cache_misses > 0

    def test_reference_search_traces_rays_by_the_scan(self, monkeypatch):
        calls = {"scan": 0, "index": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(ObstacleSet, "_trace", counted("scan", ObstacleSet._trace))
        monkeypatch.setattr(ObstacleSet, "_track", counted("index", ObstacleSet._track))
        with reference_search():
            find_path(_request())
        assert calls["scan"] > 0 and calls["index"] == 0
        calls.update(scan=0, index=0)
        request = _request()
        find_path(request)
        # The compiled search traces its rays itself, from the rect columns.
        assert calls == {"scan": 0, "index": 0}
        assert not request.obstacles._scan_rays


class TestFindPathParity:
    def test_golden_expansion_trace(self):
        obs, regions = _scene()
        request = _request(obstacles=obs, cost_model=CongestionPenaltyCost(regions), trace=True)

        with reference_search():
            scalar = find_path(request)
        batched = find_path(request)
        assert batched.path.points == scalar.path.points
        assert batched.path.cost == scalar.path.cost  # bit-exact, not approx
        assert batched.stats.nodes_expanded == scalar.stats.nodes_expanded
        assert batched.stats.nodes_generated == scalar.stats.nodes_generated
        assert batched.stats.nodes_reopened == scalar.stats.nodes_reopened
        assert batched.trace.entries == scalar.trace.entries

    def test_multi_source_and_segment_targets(self):
        obs, regions = _scene()
        request = _request(
            obstacles=obs,
            sources=[(Point(2, 2), 0.0), (Point(6, 24), 1.5)],
            targets=TargetSet(
                points=[Point(44, 44)],
                segments=[
                    Segment(Point(40, 2), Point(40, 10)),
                    Segment(Point(2, 40), Point(10, 40)),
                ],
            ),
            cost_model=CongestionPenaltyCost(regions),
        )

        def run():
            result = find_path(request)
            return result.path.points, result.path.cost, result.stats.nodes_expanded

        with reference_search():
            scalar = run()
        assert run() == scalar


class TestRouterParity:
    def test_negotiated_run_fingerprints(self):
        def run():
            router = NegotiatedRouter(
                _congested_grid(),
                RouterConfig(),
                negotiation=NegotiationConfig(max_iterations=6),
            )
            result = router.run()
            return (
                route_fingerprint(result.route),
                result.converged,
                [(it.total_overflow, it.wirelength) for it in result.iterations],
                result.search_stats.nodes_expanded,
            )

        with reference_search():
            scalar = run()
        assert run() == scalar

    def test_timing_driven_run_fingerprints(self):
        layout = FAMILIES["long-critical-nets"].build(107)

        def run():
            result = TimingDrivenRouter(
                layout, timing=TimingConfig(max_iterations=6)
            ).run(on_unroutable="skip")
            return (
                route_fingerprint(result.route),
                [(it.total_overflow, it.wirelength) for it in result.iterations],
                result.search_stats.nodes_expanded,
                result.timing.worst_delay,
            )

        with reference_search():
            scalar = run()
        assert run() == scalar

    def test_single_pass_fingerprints(self):
        def run():
            router = GlobalRouter(_congested_grid(n_nets=8), RouterConfig())
            route = router.route_all(on_unroutable="skip")
            return route_fingerprint(route), route.stats.nodes_expanded

        with reference_search():
            scalar = run()
        assert run() == scalar


_CORPUS = load_corpus()


class TestGenericPath:
    """Grids above ``_DENSE_KEY_LIMIT`` leave the compiled search.

    Above the cap :func:`find_path` searches the generic scalar problem
    instead, so no grid-sized array is allocated.  No corpus grid comes
    near the cap, so the cap is patched down to zero: every search must
    then skip ``search_vectorized`` and still match the compiled search
    (same routes, node counters and expansion traces) and the oracle.
    The corpus runs once more under best-first order, the kernel
    loop's ``h = 0`` case.
    """

    @pytest.mark.parametrize(
        "scenario,order",
        [(scenario, Order.A_STAR) for scenario in _CORPUS]
        + [(scenario, Order.BEST_FIRST) for scenario in _CORPUS],
        ids=[scenario.name for scenario in _CORPUS]
        + [f"{scenario.name}-best-first" for scenario in _CORPUS],
    )
    def test_corpus_matches_the_dense_path_and_the_oracle(
        self, scenario, order, monkeypatch
    ):
        def run():
            config = RouterConfig(order=order, trace=True)
            route = GlobalRouter(scenario.layout, config).route_all(on_unroutable="skip")
            stats = route.stats
            return (
                route_fingerprint(route),
                stats.nodes_expanded,
                stats.nodes_generated,
                stats.nodes_reopened,
                [trace.entries for tree in route.trees.values() for trace in tree.traces],
            )

        calls = []
        real = pathfinder.search_vectorized

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pathfinder, "search_vectorized", counting)
        dense = run()
        assert bool(calls) == bool(dense[1])  # batched wherever anything was searched
        with reference_search():
            reference = run()
        monkeypatch.setattr(pathfinder, "_DENSE_KEY_LIMIT", 0)
        calls.clear()
        above_cap = run()
        assert not calls
        assert above_cap == dense == reference

    def test_negotiated_run_matches_the_dense_path_and_the_oracle(self, monkeypatch):
        def run():
            result = NegotiatedRouter(
                _congested_grid(), negotiation=NegotiationConfig(max_iterations=3)
            ).run()
            stats = result.search_stats
            return (
                route_fingerprint(result.route),
                [(it.total_overflow, it.wirelength) for it in result.iterations],
                stats.nodes_expanded,
                stats.nodes_generated,
                stats.nodes_reopened,
            )

        dense = run()
        with reference_search():
            reference = run()
        monkeypatch.setattr(pathfinder, "_DENSE_KEY_LIMIT", 0)
        monkeypatch.setattr(pathfinder, "search_vectorized", None)  # must not be reached
        assert run() == dense == reference


class TestAccumulationOrder:
    """The canary for the one numerics assumption the parity rests on.

    The kernel folds per-region surcharges into each successor's price
    in declaration order with strictly sequential float64 additions and
    no fused multiply-add, as the scalar ``segment_cost`` loop does.
    Any other order drifts by an ULP on adversarial magnitudes.  The
    canary feeds weights spanning 24 orders of magnitude, on regions
    that straddle the source's row, its column or both, through
    kernel-vs-scalar searches: degenerate rects (which never block)
    put many stops on every ray, so each expansion prices many
    successors against many regions.  Paths, costs, counters and
    expansion traces must be identical.  Without those stops a
    two-point path is one hop, and it must cost exactly the
    pure-Python sequential sum.
    """

    @pytest.mark.parametrize("n_stops", [0, 2, 7])
    @pytest.mark.parametrize("trial_seed", range(6))
    def test_kernel_pricing_is_sequential(self, n_stops, trial_seed):
        rng = random.Random(trial_seed)
        for _ in range(8):
            self._check_one_scene(rng, n_stops)

    @staticmethod
    def _check_one_scene(rng, n_stops):
        x, y = rng.randint(10, 50), rng.randint(10, 50)
        regions = []
        for _ in range(rng.randint(8, 14)):
            x0, y0 = rng.randint(0, 40), rng.randint(0, 40)
            x1, y1 = x0 + rng.randint(1, 20), y0 + rng.randint(1, 20)
            # Most regions straddle one of the source's tracks, so every
            # price folds enough terms for a reordered sum to drift.
            track = rng.random()
            if track < 0.45:
                y0, y1 = y - rng.randint(0, 9), y + rng.randint(1, 9)
            elif track < 0.9:
                x0, x1 = x - rng.randint(0, 9), x + rng.randint(1, 9)
            # Magnitudes from 1e-12 to 1e12, with zeros mixed in.
            weight = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-12, 12)
            regions.append((Rect(x0, y0, x1, y1), weight))
        model = CongestionPenaltyCost(regions)
        stops = [
            Rect(c, c2, c, c2)
            for c, c2 in zip(rng.sample(range(64), n_stops), rng.sample(range(64), n_stops))
        ]
        obs = ObstacleSet(Rect(0, 0, 64, 64), stops)

        def sequential(ax, ay, bx, by):
            expected = float(bx - ax + by - ay)  # base wirelength
            for region, weight in regions:
                if ay == by and region.y0 <= ay <= region.y1:
                    overlap = min(region.x1, bx) - max(region.x0, ax)
                elif ax == bx and region.x0 <= ax <= region.x1:
                    overlap = min(region.y1, by) - max(region.y0, ay)
                else:
                    overlap = 0
                if overlap > 0:
                    expected += weight * overlap
            return expected

        source = Point(x, y)
        ends = [Point(rng.randint(0, 64), y), Point(x, rng.randint(0, 64)),
                Point(rng.randint(0, 64), rng.randint(0, 64))]
        for end in ends:
            if end == source:
                continue
            request = PathRequest(
                obstacles=obs,
                sources=[(source, 0.0)],
                targets=TargetSet(points=[end]),
                cost_model=model,
                trace=True,
            )
            kernel = find_path(request)
            with reference_search():
                scalar = find_path(request)
            assert kernel.path.points == scalar.path.points
            assert kernel.path.cost == scalar.path.cost, (
                f"{source} -> {end}: kernel {kernel.path.cost!r}, scalar {scalar.path.cost!r}"
            )
            assert kernel.trace.entries == scalar.trace.entries
            assert (kernel.stats.nodes_expanded, kernel.stats.nodes_generated) == (
                scalar.stats.nodes_expanded,
                scalar.stats.nodes_generated,
            )
            if not n_stops and len(kernel.path.points) == 2:
                a, b = sorted(kernel.path.points)
                assert kernel.path.cost == sequential(a.x, a.y, b.x, b.y)
