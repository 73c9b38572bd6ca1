"""Batch facade: serial equivalence, executor flavours, validation."""

import pytest

from repro.errors import RoutingError
from repro.api import Batch, RouteRequest, RoutingPipeline, route_many
from repro.layout.generators import LayoutSpec, random_layout
from repro.layout.io import layout_to_json


def make_requests(n=4, **kwargs):
    layouts = [
        random_layout(LayoutSpec(n_cells=6, n_nets=4), seed=seed)
        for seed in range(1, n + 1)
    ]
    return [RouteRequest(layout=layout, **kwargs) for layout in layouts]


def fingerprint(result):
    return (
        result.strategy,
        result.total_length,
        {n: [p.points for p in t.paths] for n, t in result.route.trees.items()},
    )


class TestEquivalence:
    def test_thread_batch_matches_serial(self):
        requests = make_requests()
        serial = [RoutingPipeline().run(r) for r in requests]
        batched = route_many(requests, workers=2, executor="thread")
        assert [fingerprint(r) for r in batched] == [fingerprint(r) for r in serial]

    def test_process_batch_matches_serial(self):
        requests = make_requests()
        serial = [RoutingPipeline().run(r) for r in requests]
        batched = route_many(requests, workers=2, executor="process")
        assert [fingerprint(r) for r in batched] == [fingerprint(r) for r in serial]

    def test_strategies_travel_through_batch(self):
        requests = make_requests(n=2, strategy="negotiated",
                                 strategy_params={"max_iterations": 3})
        serial = [RoutingPipeline().run(r) for r in requests]
        batched = route_many(requests, workers=2, executor="thread")
        assert [fingerprint(r) for r in batched] == [fingerprint(r) for r in serial]
        assert all(r.strategy == "negotiated" for r in batched)

    def test_layout_references_resolved_for_process_workers(self, tmp_path, small_layout):
        path = tmp_path / "chip.json"
        path.write_text(layout_to_json(small_layout), encoding="utf-8")
        requests = [RouteRequest(layout_path=str(path)) for _ in range(2)]
        serial = [RoutingPipeline().run(r) for r in requests]
        batched = route_many(requests, workers=2, executor="process")
        assert [fingerprint(r) for r in batched] == [fingerprint(r) for r in serial]


class TestShapes:
    def test_empty_batch(self):
        assert route_many([], workers=4) == []

    def test_serial_workers_build_no_pool(self):
        requests = make_requests(n=2)
        results = Batch(workers=1).route_many(requests)
        assert len(results) == 2

    def test_single_request_short_circuits(self):
        requests = make_requests(n=1)
        results = route_many(requests, workers=8)
        assert len(results) == 1

    def test_results_in_input_order(self):
        requests = make_requests()
        batched = route_many(requests, workers=2, executor="thread")
        serial = [RoutingPipeline().run(r) for r in requests]
        assert [r.total_length for r in batched] == [r.total_length for r in serial]


class TestDuplicateCollapse:
    """Identical requests in one batch must route exactly once."""

    def _counting_pipeline(self, monkeypatch):
        calls = []
        real_run = RoutingPipeline.run

        def counting_run(self, request, **kwargs):
            calls.append(request)
            return real_run(self, request, **kwargs)

        monkeypatch.setattr(RoutingPipeline, "run", counting_run)
        return calls

    def test_serial_duplicates_route_once(self, monkeypatch):
        calls = self._counting_pipeline(monkeypatch)
        request = make_requests(n=1)[0]
        results = Batch().route_many([request, request, request])
        assert len(calls) == 1
        assert results[0] is results[1] is results[2]

    def test_equal_but_distinct_requests_collapse(self, monkeypatch):
        calls = self._counting_pipeline(monkeypatch)
        layout = make_requests(n=1)[0].layout
        requests = [
            RouteRequest(layout=layout, strategy="two-pass",
                         strategy_params={"passes": 2})
            for _ in range(2)
        ]
        results = Batch().route_many(requests)
        assert len(calls) == 1
        assert results[0] is results[1]

    def test_distinct_requests_not_collapsed(self, monkeypatch):
        calls = self._counting_pipeline(monkeypatch)
        requests = make_requests(n=3)
        results = Batch().route_many(requests)
        assert len(calls) == 3
        lengths = [r.total_length for r in results]
        assert lengths == [RoutingPipeline().run(r).total_length for r in requests]

    def test_thread_pool_duplicates_route_once(self, monkeypatch):
        calls = self._counting_pipeline(monkeypatch)
        unique = make_requests(n=2)
        requests = [unique[0], unique[1], unique[0]]
        results = Batch(workers=2, executor="thread").route_many(requests)
        assert len(calls) == 2
        assert results[0] is results[2]
        assert results[0] is not results[1]

    def test_duplicate_slots_match_input_order(self):
        a, b = make_requests(n=2)
        results = route_many([a, b, a, b])
        assert results[0] is results[2]
        assert results[1] is results[3]
        assert results[0].total_length == RoutingPipeline().run(a).total_length

    def test_process_return_policy_with_single_survivor(self, tmp_path):
        """A process batch where slot isolation leaves one routable
        request must still route it (needs a one-worker pool)."""
        good = make_requests(n=1)[0]
        bad = RouteRequest(layout_path=str(tmp_path / "missing.json"))
        outcomes = Batch(
            workers=2, executor="process", on_error="return"
        ).route_many([good, bad])
        assert outcomes[0].ok
        assert not outcomes[1].ok

    def test_unhashable_request_still_routed_per_slot(self, tmp_path, monkeypatch):
        """A request whose layout reference is unreadable is treated as
        unique, so its failure surfaces through the normal slot path."""
        calls = self._counting_pipeline(monkeypatch)
        good = make_requests(n=1)[0]
        bad = RouteRequest(layout_path=str(tmp_path / "missing.json"))
        outcomes = Batch(on_error="return").route_many([good, bad, good])
        assert len(calls) == 2  # good once (collapsed), bad once
        assert outcomes[0] is outcomes[2]
        assert not outcomes[1].ok


class TestValidation:
    def test_bad_workers_rejected(self):
        with pytest.raises(RoutingError):
            Batch(workers=0)

    def test_bad_executor_rejected(self):
        with pytest.raises(RoutingError):
            Batch(workers=2, executor="fiber")


class TestFailurePaths:
    """One request raising must not poison sibling results."""

    def failing_request(self):
        # Unknown strategy: resolution fails inside the pipeline, after
        # the batch machinery has committed to routing the request.
        layout = random_layout(LayoutSpec(n_cells=6, n_nets=4), seed=9)
        return RouteRequest(layout=layout, strategy="no-such-strategy")

    def mixed_requests(self):
        good = make_requests(n=2)
        return [good[0], self.failing_request(), good[1]]

    def test_default_raise_policy_propagates(self):
        from repro.api import BatchError  # noqa: F401 - imported for parity

        with pytest.raises(RoutingError, match="unknown strategy"):
            route_many(self.mixed_requests(), workers=2, executor="thread")

    def test_serial_raise_policy_propagates(self):
        with pytest.raises(RoutingError, match="unknown strategy"):
            route_many(self.mixed_requests(), workers=1)

    def test_return_policy_keeps_siblings_serial(self):
        from repro.api import BatchError

        outcomes = route_many(self.mixed_requests(), workers=1, on_error="return")
        assert [isinstance(o, BatchError) for o in outcomes] == [False, True, False]
        assert outcomes[0].ok and outcomes[2].ok
        assert "unknown strategy" in outcomes[1].message
        assert isinstance(outcomes[1].error, RoutingError)

    def test_return_policy_keeps_siblings_threads(self):
        from repro.api import BatchError

        outcomes = route_many(
            self.mixed_requests(), workers=2, executor="thread", on_error="return"
        )
        assert [isinstance(o, BatchError) for o in outcomes] == [False, True, False]
        assert not outcomes[1].ok

    def test_return_policy_keeps_siblings_processes(self):
        from repro.api import BatchError

        outcomes = route_many(
            self.mixed_requests(), workers=2, executor="process", on_error="return"
        )
        assert [isinstance(o, BatchError) for o in outcomes] == [False, True, False]
        assert "unknown strategy" in outcomes[1].message

    def test_failed_slots_match_serial_results(self):
        requests = self.mixed_requests()
        serial = [RoutingPipeline().run(r) for r in (requests[0], requests[2])]
        outcomes = route_many(requests, workers=2, executor="thread",
                              on_error="return")
        assert [fingerprint(outcomes[0]), fingerprint(outcomes[2])] == [
            fingerprint(r) for r in serial
        ]

    def test_unresolvable_layout_reference_fills_slot(self, tmp_path):
        from repro.api import BatchError

        good = make_requests(n=2)
        missing = RouteRequest(layout_path=str(tmp_path / "missing.json"))
        outcomes = route_many(
            [good[0], missing, good[1]], workers=2, executor="process",
            on_error="return",
        )
        assert [isinstance(o, BatchError) for o in outcomes] == [False, True, False]
        assert outcomes[0].ok and outcomes[2].ok

    def test_unroutable_partial_survives_process_boundary(self):
        from repro.api import BatchError
        from repro.core.router import RouterConfig
        from repro.errors import UnroutableError
        from repro.geometry.point import Point
        from repro.geometry.rect import Rect
        from repro.layout.cell import Cell
        from repro.layout.layout import Layout
        from repro.layout.net import Net

        # the pipeline validates layouts, so an expansion budget (not a
        # touching-cell ring) makes the obstructed net unroutable
        layout = Layout(Rect(0, 0, 100, 100))
        layout.add_cell(Cell.rect("block", 40, 30, 20, 40))
        layout.add_net(Net.two_point("blocked", Point(10, 50), Point(90, 50)))
        starved = RouteRequest(layout=layout, config=RouterConfig(node_limit=2))
        good = make_requests(n=1)[0]
        outcomes = route_many(
            [good, starved], workers=2, executor="process", on_error="return"
        )
        assert outcomes[0].ok
        assert isinstance(outcomes[1], BatchError)
        # the error is pickled back from the worker process; its
        # partial-tree diagnostic must survive the trip
        assert isinstance(outcomes[1].error, UnroutableError)
        assert outcomes[1].error.partial is not None

    def test_bad_on_error_policy_rejected(self):
        with pytest.raises(RoutingError, match="on_error"):
            Batch(on_error="ignore")
