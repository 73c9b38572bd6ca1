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
from typing import Generic, Hashable, Optional, Sequence, TypeVar

import numpy as np

from repro.errors import SearchError
from repro.search.engine import _CLOSED, _OPEN, Order, SearchResult
from repro.search.node import SearchNode
from repro.search.stats import ExpansionTrace, SearchStats

S = TypeVar("S", bound=Hashable)


class VectorSearchProblem(ABC, Generic[S]):
    """A search problem whose successors arrive as numpy batches.

    The contract mirrors :class:`~repro.search.problem.SearchProblem`
    except that :meth:`expand` replaces ``successors``: one call
    returns every successor of a state, with edge costs (and, for A*,
    heuristic values) already evaluated as float64 arrays.  Successor
    *order* within the batch must match what the scalar problem would
    have yielded — the engine preserves it, and the tie-breaking
    counter makes it observable.

    A problem whose states are the ints of a small range can also
    implement the optional dense-key protocol below, which the engine
    then uses instead of :meth:`expand`.  The pathfinder's batched
    problem does so: each state is its index on the connection's escape
    grid, so the engine's g mirror has one entry per grid point.
    """

    @abstractmethod
    def start_states(self) -> Sequence[tuple[S, float]]:
        """``(state, initial cost)`` pairs seeding the search."""

    @abstractmethod
    def is_goal(self, state: S) -> bool:
        """Whether *state* satisfies the search goal."""

    @abstractmethod
    def heuristic(self, state: S) -> float:
        """Admissible estimate for one state (used for start states)."""

    @abstractmethod
    def expand(
        self, state: S, with_h: bool
    ) -> tuple[list[S], np.ndarray, Optional[np.ndarray]]:
        """All successors of *state* as one batch.

        Returns ``(states, edge_costs, heuristics)`` where ``states``
        is a list of hashable successor states, ``edge_costs`` is a
        float64 array of the same length, and ``heuristics`` is a
        float64 array when *with_h* is true (``None`` otherwise).
        """

    def describe(self, state: S) -> str:
        """*state* as the engine's error messages print it."""
        return str(state)

    # -- optional dense-key protocol ---------------------------------
    #
    # On congested workloads ~80% of generated successors fail the
    # ``new_g < existing.g`` improvement test and cost a pure-Python
    # dict probe each.  A problem whose states are the ints
    # ``0 .. size - 1`` can opt in to a batched prefilter: the engine
    # keeps a flat float64 array of best-known g values (the "g
    # mirror", one entry per state) and gathers / compares a whole batch
    # in two numpy ops, so the Python loop only visits actual
    # improvements.  The comparison is the identical float64 ``<`` the
    # loop performs (unknown states hold +inf), so the visited set,
    # push order, and all counters are unchanged.

    def dense_size(self) -> Optional[int]:
        """Size of the int state range, or ``None`` to use the generic path."""
        return None

    def expand_dense(self, state: int) -> tuple[np.ndarray, np.ndarray]:
        """Successor states and edge costs of the full expansion of *state*.

        Returns ``(states, edge_costs)``: an int64 array of successor
        states and the float64 edge costs, both in batch order.  Only
        called when :meth:`dense_size` returns a size.
        """
        raise NotImplementedError

    def dense_heuristics(self, states: np.ndarray) -> np.ndarray:
        """Heuristics of an int64 array of states, as float64.

        The engine asks only for the successors that improve on their
        best-known g; heuristic values are pure per-state functions, so
        they equal those of the full batch.
        """
        raise NotImplementedError


def search_vectorized(
    problem: VectorSearchProblem[S],
    order: Order = Order.A_STAR,
    *,
    node_limit: Optional[int] = None,
    exhaustive: bool = False,
    trace: bool = False,
) -> SearchResult[S]:
    """Run the OPEN/CLOSED search with batched expansion.

    Mirrors :func:`repro.search.engine.search` for the cost-ordered
    disciplines; blind orders have no per-successor pricing to batch
    and are rejected.  Semantics — admissible goal test at pop,
    reopening of CLOSED nodes, node-limit termination, stats, traces —
    are identical to the scalar loop, node for node.
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
    heuristic = problem.heuristic
    expand = problem.expand
    is_goal = problem.is_goal
    heappush = heapq.heappush
    heappop = heapq.heappop

    nodes: dict[S, SearchNode[S]] = {}
    status: dict[S, int] = {}
    nodes_get = nodes.get
    status_get = status.get
    dense_size = problem.dense_size()
    g_flat: Optional[np.ndarray] = None
    if dense_size is not None:
        g_flat = np.full(dense_size, np.inf, dtype=np.float64)
        expand_dense = problem.expand_dense
        dense_heuristics = problem.dense_heuristics
    heap: list[tuple[float, float, int, float, SearchNode[S]]] = []
    counter = 0
    open_size = 0
    max_open = 0
    expanded = 0
    generated = 0
    reopened = 0
    best_goal: Optional[SearchNode[S]] = None

    def finish(termination: str) -> None:
        stats.nodes_expanded = expanded
        stats.nodes_generated = generated
        stats.nodes_reopened = reopened
        stats.max_open_size = max_open
        stats.termination = termination
        stats.elapsed_seconds = time.perf_counter() - started

    for state, g0 in problem.start_states():
        if g0 < 0:
            raise SearchError(
                f"negative start cost {g0} for state {problem.describe(state)}"
            )
        existing = nodes.get(state)
        if existing is None or g0 < existing.g:
            h0 = heuristic(state) if use_heuristic else 0.0
            node = SearchNode(state, g0, h0)
            nodes[state] = node
            if use_heuristic:
                heappush(heap, (g0 + h0, -g0, counter, g0, node))
            else:
                heappush(heap, (g0, 0.0, counter, g0, node))
            counter += 1
            status[state] = _OPEN
            open_size += 1
            if open_size > max_open:
                max_open = open_size
            if g_flat is not None:
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
            if not exhaustive:
                finish("goal")
                return SearchResult(node, stats, expansion)
            if best_goal is None or node.g < best_goal.g:
                best_goal = node

        expanded += 1
        if record is not None:
            parent = node.parent
            record(state, parent.state if parent is not None else None)
        if node_limit is not None and expanded >= node_limit:
            finish("limit")
            return SearchResult(best_goal, stats, expansion)

        node_g = node.g
        child_depth = node.depth + 1

        if g_flat is not None:
            # Dense prefilter: ``g_flat`` mirrors the best-known g of
            # every node (+inf when unknown), so the gathered float64
            # comparison below selects exactly the successors the
            # generic loop would create or improve — in the same
            # (ascending-index) order, with the same counter values.
            # Heuristics are evaluated on those winners alone (they
            # are pure per-state functions, so the values are
            # identical).
            batch, edge_costs = expand_dense(state)
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
            new_arr = node_g + edge_costs
            winners = np.flatnonzero(new_arr < g_flat[batch])
            if not winners.size:
                continue
            win_states = batch[winners]
            succ_states = win_states.tolist()
            new_gs = new_arr[winners].tolist()
            if use_heuristic:
                for succ_state, new_g, h in zip(
                    succ_states, new_gs, dense_heuristics(win_states).tolist()
                ):
                    existing = nodes_get(succ_state)
                    if existing is None:
                        g_flat[succ_state] = new_g
                        child = SearchNode(succ_state, new_g, h, node, child_depth)
                        nodes[succ_state] = child
                        heappush(heap, (new_g + h, -new_g, counter, new_g, child))
                    elif new_g < existing.g:
                        g_flat[succ_state] = new_g
                        if status_get(succ_state) == _CLOSED:
                            reopened += 1
                        existing.parent = node
                        existing.g = new_g
                        existing.depth = child_depth
                        heappush(
                            heap,
                            (new_g + existing.h, -new_g, counter, new_g, existing),
                        )
                    else:  # pragma: no cover - batch states are distinct
                        continue
                    counter += 1
                    status[succ_state] = _OPEN
                    open_size += 1
                    if open_size > max_open:
                        max_open = open_size
            else:
                for succ_state, new_g in zip(succ_states, new_gs):
                    existing = nodes_get(succ_state)
                    if existing is None:
                        g_flat[succ_state] = new_g
                        child = SearchNode(succ_state, new_g, 0.0, node, child_depth)
                        nodes[succ_state] = child
                        heappush(heap, (new_g, 0.0, counter, new_g, child))
                    elif new_g < existing.g:
                        g_flat[succ_state] = new_g
                        if status_get(succ_state) == _CLOSED:
                            reopened += 1
                        existing.parent = node
                        existing.g = new_g
                        existing.depth = child_depth
                        heappush(heap, (new_g, 0.0, counter, new_g, existing))
                    else:  # pragma: no cover - batch states are distinct
                        continue
                    counter += 1
                    status[succ_state] = _OPEN
                    open_size += 1
                    if open_size > max_open:
                        max_open = open_size
            continue

        succ_states, edge_costs, succ_hs = expand(state, use_heuristic)
        count = len(succ_states)
        if not count:
            continue
        if edge_costs.min() < 0:
            bad = int(np.flatnonzero(edge_costs < 0)[0])
            raise SearchError(
                f"negative edge cost {edge_costs[bad]} from {problem.describe(state)} "
                f"to {problem.describe(succ_states[bad])}"
            )
        generated += count
        # node_g + float64 column == the scalar per-successor addition,
        # element for element; .tolist() yields native floats so heap
        # entries compare exactly as in the scalar engine.  The two
        # specialized loops below are the same per-successor body with
        # the order-dependent branches hoisted out; most successors
        # fall through both tests untouched, so the fall-through path
        # is kept as short as possible.
        new_gs = (node_g + edge_costs).tolist()
        if use_heuristic:
            for succ_state, new_g, h in zip(succ_states, new_gs, succ_hs.tolist()):
                existing = nodes_get(succ_state)
                if existing is None:
                    child = SearchNode(succ_state, new_g, h, node, child_depth)
                    nodes[succ_state] = child
                    heappush(heap, (new_g + h, -new_g, counter, new_g, child))
                    counter += 1
                    status[succ_state] = _OPEN
                    open_size += 1
                    if open_size > max_open:
                        max_open = open_size
                elif new_g < existing.g:
                    if status_get(succ_state) == _CLOSED:
                        reopened += 1
                    existing.parent = node
                    existing.g = new_g
                    existing.depth = child_depth
                    heappush(
                        heap, (new_g + existing.h, -new_g, counter, new_g, existing)
                    )
                    counter += 1
                    status[succ_state] = _OPEN
                    open_size += 1
                    if open_size > max_open:
                        max_open = open_size
        else:
            for succ_state, new_g in zip(succ_states, new_gs):
                existing = nodes_get(succ_state)
                if existing is None:
                    child = SearchNode(succ_state, new_g, 0.0, node, child_depth)
                    nodes[succ_state] = child
                    heappush(heap, (new_g, 0.0, counter, new_g, child))
                    counter += 1
                    status[succ_state] = _OPEN
                    open_size += 1
                    if open_size > max_open:
                        max_open = open_size
                elif new_g < existing.g:
                    if status_get(succ_state) == _CLOSED:
                        reopened += 1
                    existing.parent = node
                    existing.g = new_g
                    existing.depth = child_depth
                    heappush(heap, (new_g, 0.0, counter, new_g, existing))
                    counter += 1
                    status[succ_state] = _OPEN
                    open_size += 1
                    if open_size > max_open:
                        max_open = open_size

    finish("goal" if best_goal is not None else "exhausted")
    return SearchResult(best_goal, stats, expansion)
