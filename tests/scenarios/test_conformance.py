"""Differential conformance over the corpus — the tier-1 safety net.

Every checked-in scenario runs through every built-in strategy under
the quick toggle matrix (baseline + one flip per toggle); one congested
scenario additionally runs the full 2x2x2 matrix.  Every routed result
is oracle-verified, byte identity is asserted where the code guarantees
it, and cross-strategy wirelength/overflow stay inside the recorded
tolerance bands.
"""

import pytest

from repro.core.route import GlobalRoute, RoutePath, RouteTree
from repro.geometry.point import Point
from repro.scenarios import (
    DEFAULT_STRATEGIES,
    FULL_MATRIX,
    QUICK_MATRIX,
    load_corpus,
    route_fingerprint,
    run_conformance,
)

CORPUS = load_corpus()
SCENARIOS_BY_NAME = {scenario.name: scenario for scenario in CORPUS}


@pytest.mark.parametrize("strategy", sorted(DEFAULT_STRATEGIES))
@pytest.mark.parametrize("name", sorted(SCENARIOS_BY_NAME))
def test_scenario_conforms(name, strategy):
    scenario = SCENARIOS_BY_NAME[name]
    report = run_conformance([scenario], strategies=[strategy], matrix=QUICK_MATRIX)
    assert report.cases, "no matrix cell routed"
    assert report.ok, report.summary()


def test_full_matrix_on_congested_scenario():
    # The congested scene is where the toggles genuinely interact:
    # pruning changes the negotiation loop's rip-up set while the
    # reference search must still be a no-op on the result.
    scenario = SCENARIOS_BY_NAME["congestion-hotspot-s59"]
    report = run_conformance([scenario], matrix=FULL_MATRIX)
    assert len(report.cases) == len(FULL_MATRIX) * len(DEFAULT_STRATEGIES)
    assert report.ok, report.summary()
    overflow = [c for c in report.checks if c.kind == "overflow"]
    assert overflow, "congested scenario produced no overflow comparisons"


def test_identity_split_by_pruning_flag():
    # For the negotiated strategy the matrix must form exactly two
    # identity groups (prune on / prune off), each internally identical.
    scenario = SCENARIOS_BY_NAME["congestion-hotspot-s59"]
    report = run_conformance(
        [scenario], strategies=["negotiated"], matrix=FULL_MATRIX
    )
    identity = [c for c in report.checks if c.kind == "identity"]
    assert len(identity) == 2
    assert all(c.ok for c in identity), report.summary()


def test_crash_recorded_not_raised():
    scenario = CORPUS[0]
    report = run_conformance(
        [scenario],
        strategies={"negotiated": {"no_such_param": 1}},
        matrix=QUICK_MATRIX,
    )
    assert not report.ok
    assert all(not check.ok for check in report.checks)
    assert "pipeline raised" in report.failures()[0].detail


def test_report_round_trips_to_json():
    scenario = SCENARIOS_BY_NAME["single-cell-s67"]
    report = run_conformance([scenario], strategies=["single"], matrix=QUICK_MATRIX)
    document = report.to_dict()
    assert document["ok"] is True
    assert len(document["cases"]) == len(QUICK_MATRIX)
    assert document["wirelength_band"] == [0.90, 1.60]


class TestFingerprint:
    def _route(self, points):
        route = GlobalRoute()
        tree = RouteTree(net_name="n")
        tree.paths.append(RoutePath(tuple(Point(x, y) for x, y in points)))
        tree.connected_terminals.extend(["n.s", "n.d"])
        route.trees["n"] = tree
        return route

    def test_equal_routes_equal_digests(self):
        a = self._route([(0, 0), (5, 0)])
        b = self._route([(0, 0), (5, 0)])
        assert route_fingerprint(a) == route_fingerprint(b)

    def test_geometry_changes_digest(self):
        a = self._route([(0, 0), (5, 0)])
        b = self._route([(0, 0), (6, 0)])
        assert route_fingerprint(a) != route_fingerprint(b)

    def test_failed_nets_change_digest(self):
        a = self._route([(0, 0), (5, 0)])
        b = self._route([(0, 0), (5, 0)])
        b.failed_nets.append("other")
        assert route_fingerprint(a) != route_fingerprint(b)


def test_non_repro_crash_recorded_not_raised():
    # A router bug raising a non-ReproError under one toggle is the
    # exact regression class the harness exists to surface; it must
    # land in the report, not kill the run.
    from repro.api import register_strategy
    from repro.api.registry import DEFAULT_REGISTRY

    class ExplodingStrategy:
        def __init__(self, **params):
            pass

        def run(self, router, request):
            raise ValueError("boom")

    register_strategy("exploding-test-only", ExplodingStrategy)
    try:
        report = run_conformance(
            [CORPUS[0]],
            strategies={"exploding-test-only": {}},
            matrix=QUICK_MATRIX,
        )
    finally:
        DEFAULT_REGISTRY.unregister("exploding-test-only")
    assert not report.ok
    assert "ValueError: boom" in report.failures()[0].detail


def test_regenerate_unknown_family_raises_layout_error():
    from repro.errors import LayoutError
    from repro.scenarios import Scenario

    data = CORPUS[0].to_dict()
    data["family"] = "no-such-family"
    scenario = Scenario.from_dict(data)  # loading stays permissive
    with pytest.raises(LayoutError, match="unknown scenario family"):
        scenario.regenerate()
