"""The compiled escape-grid search: its build, its fallback, its edges.

Parity of routes and counters with the scalar oracle is pinned
corpus-wide in ``tests/core/test_engine_parity.py`` and under
hypothesis in ``tests/property/test_engine_parity_props.py``.  These
tests cover what those cannot: building the library (lazily, once,
safely under concurrent first builds), falling back to the scalar
problem when no compiler works, and the extremes of the coordinate
range.
"""

import ctypes
import random
import subprocess
import sys
import threading
import warnings

import pytest

import repro.core.pathfinder as pathfinder
from repro.core.pathfinder import PathRequest, find_path, reference_search
from repro.core.route import TargetSet
from repro.core.router import GlobalRouter
from repro.errors import SearchError, UnroutableError
from repro.geometry.point import Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.rect import Rect
from repro.layout.generators import LayoutSpec, grid_layout, random_netlist
from repro.layout.layout import MAX_COORDINATE
from repro.scenarios import route_fingerprint
from repro.search import vector
from repro.search.engine import Order


def _one_block_request(**overrides):
    fields = dict(
        obstacles=ObstacleSet(Rect(0, 0, 100, 100), [Rect(40, 20, 60, 80)]),
        sources=[(Point(10, 50), 0.0)],
        targets=TargetSet(points=[Point(90, 50)]),
    )
    fields.update(overrides)
    return PathRequest(**fields)


def _outcome(request):
    try:
        result = find_path(request)
    except UnroutableError as exc:
        stats = exc.partial
        return ("unroutable", stats.nodes_expanded, stats.nodes_generated,
                stats.termination, stats.cache_misses)
    stats = result.stats
    return (result.path.points, result.path.cost, stats.nodes_expanded,
            stats.nodes_generated, stats.nodes_reopened, stats.max_open_size,
            stats.cache_misses)


def _routed_grid():
    layout = grid_layout(2, 2, cell_width=10, cell_height=10, gap=4, margin=4)
    spec = LayoutSpec(terminals_per_net=(2, 3), pad_fraction=0.0)
    for net in random_netlist(layout, 4, rng=random.Random(3), spec=spec):
        layout.add_net(net)
    return route_fingerprint(GlobalRouter(layout).route_all(on_unroutable="skip"))


class TestBuild:
    def test_import_does_not_build(self):
        code = (
            "import repro.core.pathfinder; from repro.search import vector as v; "
            "assert v._kernel is None and not v._unavailable"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_two_concurrent_first_builds_leave_one_library(self, tmp_path):
        cache = tmp_path / "cache"
        start = threading.Barrier(2)
        built = []

        def first_build():
            start.wait()
            built.append(vector.build(cache))

        threads = [threading.Thread(target=first_build) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(built) == 2 and built[0] == built[1]
        assert list(cache.iterdir()) == [built[0]]
        for path in built:
            assert ctypes.CDLL(str(path)).rk_search

    @pytest.mark.parametrize(
        "compiler",
        [["no-such-compiler-anywhere"], [sys.executable, "-c", "raise SystemExit(1)"]],
        ids=["missing", "failing"],
    )
    def test_a_failed_build_routes_by_the_scalar_problem_with_one_warning(
        self, tmp_path, monkeypatch, compiler
    ):
        expected = _routed_grid()
        monkeypatch.setattr(vector, "_kernel", None)
        monkeypatch.setattr(vector, "_unavailable", False)
        monkeypatch.setattr(vector, "CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(vector, "_compilers", lambda: [compiler])
        monkeypatch.setattr(pathfinder, "search_vectorized", None)  # must not be reached
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = _routed_grid()
            second = _outcome(_one_block_request())
        assert first == expected
        with reference_search():
            assert second == _outcome(_one_block_request())
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert len(messages) == 1 and "scalar problem" in messages[0]
        assert not list((tmp_path / "cache").iterdir())  # no partial library left


class TestSearch:
    def test_blind_orders_rejected(self):
        request = _one_block_request()
        with pytest.raises(SearchError, match="cost-ordered"):
            vector.KernelSearch(request.obstacles, request.cost_model, Order.BREADTH_FIRST)

    @pytest.mark.parametrize("limit", [0, 1, 2, 3])
    def test_node_limit_matches_the_scalar_problem(self, limit):
        request = _one_block_request(node_limit=limit)
        with reference_search():
            scalar = _outcome(request)
        assert _outcome(request) == scalar

    def test_an_enclosed_target_exhausts_like_the_scalar_problem(self):
        ring = [Rect(40, 40, 42, 60), Rect(58, 40, 60, 60),
                Rect(40, 40, 60, 42), Rect(40, 58, 60, 60)]
        request = _one_block_request(
            obstacles=ObstacleSet(Rect(0, 0, 100, 100), ring),
            targets=TargetSet(points=[Point(50, 50)]),
        )
        with reference_search():
            scalar = _outcome(request)
        assert scalar[0] == "unroutable" and scalar[3] == "exhausted"
        assert _outcome(request) == scalar


class TestCoordinateRange:
    """One cell and two corner pins in outlines of ``±2**59`` and ``±2**62``.

    A corner-to-corner connection is longer than int64 can hold at
    ``±2**62``, and its heuristic needs 65 bits.  The search must still
    take the scalar oracle's two expansions to its one-bend route.
    """

    @pytest.mark.parametrize("half", [2**59, MAX_COORDINATE], ids=["2**59", "2**62"])
    def test_corner_to_corner_matches_the_oracle(self, half):
        request = PathRequest(
            obstacles=ObstacleSet(
                Rect(-half, -half, half, half), [Rect(-half // 2, -half // 2, half // 2, half // 2)]
            ),
            sources=[(Point(-half, -half), 0.0)],
            targets=TargetSet(points=[Point(half, half)]),
        )
        with reference_search():
            scalar = _outcome(request)
        kernel = _outcome(request)
        assert kernel == scalar
        assert kernel[1] == float(4 * half) and kernel[2] == 2
        assert len(kernel[0]) == 3  # one bend
