"""Unit tests for the batched OPEN/CLOSED engine.

The vectorized loop must mirror the scalar engine node for node: same
result, same path, same stats counters, same trace, same tie-breaking.
These tests pin that on small synthetic graphs where every quantity is
enumerable by hand; the differential parity suites pin it on real
routing problems.
"""

import numpy as np
import pytest

from repro.errors import SearchError
from repro.search.engine import Order, search
from repro.search.problem import SearchProblem
from repro.search.vector import VectorSearchProblem, search_vectorized


class GridProblem(SearchProblem):
    """Unit-step 2D grid walk to a goal, scalar form."""

    def __init__(self, size=6, start=(0, 0), goal=(5, 5), blocked=()):
        self.size = size
        self.start = start
        self.goal = goal
        self.blocked = set(blocked)

    def start_states(self):
        return [(self.start, 0.0)]

    def is_goal(self, state):
        return state == self.goal

    def heuristic(self, state):
        return float(abs(state[0] - self.goal[0]) + abs(state[1] - self.goal[1]))

    def _neighbors(self, state):
        x, y = state
        for nx_, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= nx_ < self.size and 0 <= ny < self.size:
                if (nx_, ny) not in self.blocked:
                    yield (nx_, ny)

    def successors(self, state):
        for succ in self._neighbors(state):
            yield succ, 1.0


class VectorGridProblem(VectorSearchProblem):
    """The same grid walk, batched over int states ``x * size + y``.

    Successors come in the scalar problem's order; :meth:`cell`
    converts a state back to the scalar problem's ``(x, y)`` tuple.
    """

    def __init__(self, scalar: GridProblem):
        self.scalar = scalar

    def state(self, cell):
        return cell[0] * self.scalar.size + cell[1]

    def cell(self, state):
        return divmod(state, self.scalar.size)

    def describe(self, state):
        return str(self.cell(state))

    def start_states(self):
        return [(self.state(cell), g0) for cell, g0 in self.scalar.start_states()]

    def is_goal(self, state):
        return self.scalar.is_goal(self.cell(state))

    def size(self):
        return self.scalar.size**2

    def expand(self, state):
        cells = list(self.scalar._neighbors(self.cell(state)))
        states = np.array([self.state(c) for c in cells], dtype=np.int64)
        return states, np.ones(len(cells), dtype=np.float64)

    def heuristics(self, states):
        return np.array(
            [self.scalar.heuristic(self.cell(s)) for s in states.tolist()], dtype=np.float64
        )


class NegativeEdgeProblem(VectorGridProblem):
    def expand(self, state):
        states, costs = super().expand(state)
        if costs.size:
            costs[-1] = -0.5
        return states, costs


def _stats_tuple(stats):
    return (
        stats.nodes_expanded,
        stats.nodes_generated,
        stats.nodes_reopened,
        stats.max_open_size,
        stats.termination,
    )


@pytest.mark.parametrize("order", [Order.A_STAR, Order.BEST_FIRST])
def test_matches_scalar_engine_exactly(order):
    scalar = GridProblem(blocked=[(2, y) for y in range(5)])
    s_result = search(scalar, order, trace=True)
    problem = VectorGridProblem(scalar)
    v_result = search_vectorized(problem, order, trace=True)
    assert v_result.goal is not None and s_result.goal is not None
    assert v_result.goal.g == s_result.goal.g
    assert [problem.cell(s) for s in v_result.path] == s_result.path
    assert _stats_tuple(v_result.stats) == _stats_tuple(s_result.stats)
    cell = problem.cell
    assert [
        (cell(s), cell(p) if p is not None else None) for s, p in v_result.trace.entries
    ] == s_result.trace.entries


def test_blind_orders_rejected():
    scalar = GridProblem()
    with pytest.raises(SearchError, match="cost-ordered"):
        search_vectorized(VectorGridProblem(scalar), Order.BREADTH_FIRST)


def test_negative_edge_cost_rejected():
    # The first expansion's last successor is (0, 1); states print as
    # the problem describes them.
    with pytest.raises(SearchError, match=r"negative edge cost -0\.5 from \(0, 0\) to \(0, 1\)"):
        search_vectorized(NegativeEdgeProblem(GridProblem()))


def test_negative_start_cost_rejected():
    scalar = GridProblem()
    scalar.start_states = lambda: [((0, 0), -1.0)]
    with pytest.raises(SearchError, match="negative start cost"):
        search_vectorized(VectorGridProblem(scalar))


def test_node_limit_matches_scalar():
    scalar = GridProblem()
    s_result = search(scalar, node_limit=7)
    v_result = search_vectorized(VectorGridProblem(scalar), node_limit=7)
    assert s_result.goal is None and v_result.goal is None
    assert _stats_tuple(v_result.stats) == _stats_tuple(s_result.stats)
    assert v_result.stats.termination == "limit"


def test_unreachable_goal_exhausts():
    blocked = [(1, 0), (1, 1), (0, 1)]  # seal the start corner
    scalar = GridProblem(start=(0, 0), goal=(5, 5), blocked=blocked)
    s_result = search(scalar)
    v_result = search_vectorized(VectorGridProblem(scalar))
    assert v_result.goal is None
    assert v_result.stats.termination == "exhausted"
    assert _stats_tuple(v_result.stats) == _stats_tuple(s_result.stats)
