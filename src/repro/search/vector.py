"""Batched frontier expansion for the cost-ordered search core.

The scalar engine (:mod:`repro.search.engine`) prices and pushes one
successor at a time; on congested workloads almost all of the wall
time is the per-successor Python work — a ``Segment`` allocation, a
cost-model call that loops over every congestion region, and a
heuristic call that loops over every target.  This module keeps the
scalar engine's OPEN/CLOSED loop *exactly* (same heap-entry shapes,
same tie-breaking counter, same stale-entry check, same goal-test-at-
pop) but asks the problem for a whole expansion at once: a
:class:`VectorSearchProblem` returns all successors of a state as
numpy columns, so edge costs and heuristics are evaluated with a few
array operations instead of thousands of interpreter dispatches.

Bit-exactness contract: ``numpy`` float64 elementwise arithmetic is
IEEE-identical to Python float scalar arithmetic, and every batched
cost/heuristic implementation accumulates per-successor contributions
in the same order as its scalar counterpart.  The differential parity
suite pins this: routes, costs, node counters, and expansion traces
from this engine are byte-identical to the scalar oracle.
"""

from __future__ import annotations

import heapq
import time
from abc import ABC, abstractmethod
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from repro.errors import SearchError
from repro.search.engine import _CLOSED, _OPEN, Order, SearchResult
from repro.search.node import SearchNode
from repro.search.stats import ExpansionTrace, SearchStats


class VectorSearchProblem(ABC):
    """A search problem over the int states ``0 .. size - 1``, batched.

    The contract mirrors :class:`~repro.search.problem.SearchProblem`
    except that :meth:`expand` replaces ``successors`` and
    :meth:`heuristics` replaces ``heuristic``: one call returns every
    successor of a state with its edge cost, and heuristics are priced
    for an array of states at once.  Successor *order* within the batch
    must match what the scalar problem would have yielded — the engine
    preserves it, and the tie-breaking counter makes it observable.

    States are ints of a small range so that the engine can mirror
    every state's best-known g in one flat float64 array (the "g
    mirror").  On congested workloads ~80% of generated successors fail
    the ``new_g < existing.g`` improvement test; one gathered comparison
    against the mirror rejects them all, so the Python loop only visits
    actual improvements.  The comparison is the identical float64 ``<``
    the scalar loop performs (unknown states hold +inf), so the visited
    set, push order, and all counters are unchanged.  The pathfinder's
    batched problem numbers the points of the connection's escape grid
    this way.
    """

    @abstractmethod
    def start_states(self) -> Sequence[tuple[int, float]]:
        """``(state, initial cost)`` pairs seeding the search."""

    @abstractmethod
    def is_goal(self, state: int) -> bool:
        """Whether *state* satisfies the search goal."""

    @abstractmethod
    def size(self) -> int:
        """Number of states: every state is an int below it."""

    @abstractmethod
    def expand(self, state: int) -> tuple[np.ndarray, np.ndarray]:
        """Successor states and edge costs of the full expansion of *state*.

        Returns ``(states, edge_costs)``: an int64 array of distinct
        successor states and the float64 edge costs, both in batch
        order.
        """

    @abstractmethod
    def heuristics(self, states: np.ndarray) -> np.ndarray:
        """Admissible estimates of an int64 array of states, as float64.

        The engine asks only for start states and for the successors
        that improve on their best-known g; heuristic values are pure
        per-state functions, so they equal those of the full batch.
        """

    def describe(self, state: int) -> str:
        """*state* as the engine's error messages print it."""
        return str(state)


def search_vectorized(
    problem: VectorSearchProblem,
    order: Order = Order.A_STAR,
    *,
    node_limit: Optional[int] = None,
    trace: bool = False,
) -> SearchResult[int]:
    """Run the OPEN/CLOSED search with batched expansion.

    Mirrors :func:`repro.search.engine.search` for the cost-ordered
    disciplines; blind orders have no per-successor pricing to batch
    and are rejected.  Semantics — admissible goal test at pop,
    reopening of CLOSED nodes, node-limit termination, stats, traces —
    are identical to the scalar loop, node for node.

    Best-first search is the same loop with ``h ≡ 0``: its heap entries
    ``(g + 0.0, -g, counter, ...)`` order exactly like the scalar
    engine's ``(g, 0.0, counter, ...)``, since equal first keys mean
    equal g and so equal second keys.
    """
    if not order.is_cost_ordered:
        raise SearchError(
            f"vectorized search supports cost-ordered orders only, got {order.value}"
        )

    stats = SearchStats()
    expansion = ExpansionTrace() if trace else None
    record = expansion.record if expansion is not None else None
    started = time.perf_counter()

    use_heuristic = order is Order.A_STAR
    heuristics = problem.heuristics
    expand = problem.expand
    is_goal = problem.is_goal
    heappush = heapq.heappush
    heappop = heapq.heappop
    zeros = repeat(0.0)

    nodes: dict[int, SearchNode[int]] = {}
    status: dict[int, int] = {}
    nodes_get = nodes.get
    status_get = status.get
    g_flat = np.full(problem.size(), np.inf, dtype=np.float64)
    heap: list[tuple[float, float, int, float, SearchNode[int]]] = []
    counter = 0
    open_size = 0
    max_open = 0
    expanded = 0
    generated = 0
    reopened = 0

    def finish(termination: str) -> None:
        stats.nodes_expanded = expanded
        stats.nodes_generated = generated
        stats.nodes_reopened = reopened
        stats.max_open_size = max_open
        stats.termination = termination
        stats.elapsed_seconds = time.perf_counter() - started

    starts = list(problem.start_states())
    if use_heuristic:
        start_hs = heuristics(np.array([s for s, _ in starts], dtype=np.int64)).tolist()
    else:
        start_hs = zeros
    for (state, g0), h0 in zip(starts, start_hs):
        if g0 < 0:
            raise SearchError(
                f"negative start cost {g0} for state {problem.describe(state)}"
            )
        existing = nodes.get(state)
        if existing is None or g0 < existing.g:
            node = SearchNode(state, g0, h0)
            nodes[state] = node
            heappush(heap, (g0 + h0, -g0, counter, g0, node))
            counter += 1
            status[state] = _OPEN
            open_size += 1
            if open_size > max_open:
                max_open = open_size
            g_flat[state] = g0

    while heap:
        entry = heappop(heap)
        pushed_g = entry[3]
        node = entry[4]
        open_size -= 1
        state = node.state
        if status_get(state) != _OPEN or pushed_g != node.g:
            continue  # stale heap entry: the node was re-pushed cheaper
        status[state] = _CLOSED

        if is_goal(state):
            finish("goal")
            return SearchResult(node, stats, expansion)

        expanded += 1
        if record is not None:
            parent = node.parent
            record(state, parent.state if parent is not None else None)
        if node_limit is not None and expanded >= node_limit:
            finish("limit")
            return SearchResult(None, stats, expansion)

        batch, edge_costs = expand(state)
        count = batch.shape[0]
        if not count:
            continue
        if edge_costs.min() < 0:
            bad = int(np.flatnonzero(edge_costs < 0)[0])
            raise SearchError(
                f"negative edge cost {edge_costs[bad]} from {problem.describe(state)} "
                f"to {problem.describe(int(batch[bad]))}"
            )
        generated += count
        # node_g + float64 column == the scalar per-successor addition,
        # element for element.  ``g_flat`` mirrors the best-known g of
        # every node (+inf when unknown), so the gathered comparison
        # selects exactly the successors the scalar loop would create
        # or improve, in batch order; .tolist() yields native floats so
        # heap entries compare exactly as in the scalar engine.
        node_g = node.g
        new_arr = node_g + edge_costs
        winners = np.flatnonzero(new_arr < g_flat[batch])
        if not winners.size:
            continue
        win_states = batch[winners]
        hs = heuristics(win_states).tolist() if use_heuristic else zeros
        child_depth = node.depth + 1
        for succ_state, new_g, h in zip(win_states.tolist(), new_arr[winners].tolist(), hs):
            g_flat[succ_state] = new_g
            existing = nodes_get(succ_state)
            if existing is None:
                child = SearchNode(succ_state, new_g, h, node, child_depth)
                nodes[succ_state] = child
                heappush(heap, (new_g + h, -new_g, counter, new_g, child))
            else:  # a winner improves on the g its mirror entry holds
                if status_get(succ_state) == _CLOSED:
                    reopened += 1
                existing.parent = node
                existing.g = new_g
                existing.depth = child_depth
                heappush(heap, (new_g + h, -new_g, counter, new_g, existing))
            counter += 1
            status[succ_state] = _OPEN
            open_size += 1
            if open_size > max_open:
                max_open = open_size

    finish("exhausted")
    return SearchResult(None, stats, expansion)
