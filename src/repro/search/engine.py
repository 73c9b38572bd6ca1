"""The generic OPEN/CLOSED search engine.

One loop implements the paper's whole algorithm family: "Search
algorithms are often classified by the order in which nodes are placed
on, and removed from, the OPEN list."  The :class:`Order` enum selects
that order; everything else — goal testing at expansion, the single
active copy per state, reopening CLOSED nodes when a shorter path is
found, the admissible termination condition — is shared.

The cost-ordered loop is the router's innermost hot path (everything
else in a routing run happens per net or per iteration; this happens
per node).  It is deliberately written lean: flat tuple heap entries
(no nested sort keys), integer OPEN/CLOSED codes, bound-method and
counter hoisting, and per-expansion allocations pulled out of the
loop.  The node accounting, expansion order, and results are
byte-identical to the straightforward form — the engine tests pin
golden expansion traces to keep it that way.
"""

from __future__ import annotations

import enum
import heapq
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Generic, Hashable, Optional, TypeVar

from repro.errors import SearchError
from repro.search.node import SearchNode
from repro.search.problem import SearchProblem
from repro.search.stats import ExpansionTrace, SearchStats

S = TypeVar("S", bound=Hashable)

# OPEN/CLOSED codes for the status dict: comparing small ints is
# measurably cheaper than comparing strings in the stale-entry check
# that runs once per heap pop.
_OPEN = 1
_CLOSED = 2


class Order(enum.Enum):
    """OPEN-list disciplines, named as in the paper."""

    DEPTH_FIRST = "depth-first"
    BREADTH_FIRST = "breadth-first"
    BEST_FIRST = "best-first"
    A_STAR = "a-star"

    @property
    def is_cost_ordered(self) -> bool:
        """True for the disciplines that pop by path cost (g or f)."""
        return self in (Order.BEST_FIRST, Order.A_STAR)


@dataclass
class SearchResult(Generic[S]):
    """Outcome of one search.

    Attributes
    ----------
    states:
        The found path, start to goal, or ``None`` if no goal was
        reached.
    goal_cost:
        The goal's cost (``inf`` without a goal).
    stats:
        Node counters and timing.
    trace:
        Expansion order, when tracing was requested.
    """

    states: Optional[list[S]]
    goal_cost: float
    stats: SearchStats
    trace: Optional[ExpansionTrace] = None

    @classmethod
    def ending_at(
        cls, goal: Optional[SearchNode[S]], stats: SearchStats, trace: Optional[ExpansionTrace]
    ) -> "SearchResult[S]":
        """The result of a search that reached *goal* (``None``: no goal)."""
        if goal is None:
            return cls(None, math.inf, stats, trace)
        return cls(goal.path(), goal.g, stats, trace)

    @property
    def found(self) -> bool:
        """Whether a goal was reached."""
        return self.states is not None

    @property
    def cost(self) -> float:
        """Cost of the found path.

        Raises :class:`SearchError` when no goal was found.
        """
        if self.states is None:
            raise SearchError("search found no goal; no cost available")
        return self.goal_cost

    @property
    def path(self) -> list[S]:
        """States from start to goal.

        Raises :class:`SearchError` when no goal was found.
        """
        if self.states is None:
            raise SearchError("search found no goal; no path available")
        return self.states


def search(
    problem: SearchProblem[S],
    order: Order = Order.A_STAR,
    *,
    node_limit: Optional[int] = None,
    depth_limit: Optional[int] = None,
    exhaustive: bool = False,
    trace: bool = False,
) -> SearchResult[S]:
    """Run the OPEN/CLOSED search over *problem*.

    Parameters
    ----------
    problem:
        Supplies start states, goal test, successors, and heuristic.
    order:
        OPEN-list discipline.  ``A_STAR`` uses f = g + h; ``BEST_FIRST``
        ignores the heuristic and orders by g alone (branch-and-bound);
        the blind orders ignore costs when choosing what to expand.
    node_limit:
        Abort (``stats.termination == "limit"``) after expanding this
        many nodes.  Guards against runaway searches on unroutable
        inputs when using incomplete orders.
    depth_limit:
        For ``DEPTH_FIRST``: "a depth limit is sometimes used to
        prevent the algorithm from going too far down the wrong path".
        Ignored by other orders.
    exhaustive:
        "If we were to ignore our terminating condition and stop only
        when no more nodes were left on OPEN ... This is called
        exhaustive search."  Tracks the best goal instead of stopping
        at the first.
    trace:
        Record the expansion order (for Figure 1 style rendering).

    Notes
    -----
    With cost-ordered disciplines the goal test happens when a node is
    *removed* from OPEN — the paper's admissible terminating condition —
    and CLOSED nodes are moved back to OPEN when a cheaper path to them
    appears.  With blind disciplines each state is visited at most once.
    """
    if order.is_cost_ordered:
        return _cost_ordered_search(
            problem, order, node_limit=node_limit, exhaustive=exhaustive, trace=trace
        )
    return _blind_search(
        problem,
        order,
        node_limit=node_limit,
        depth_limit=depth_limit,
        trace=trace,
    )


# ----------------------------------------------------------------------
# Cost-ordered searches (best-first, A*)
# ----------------------------------------------------------------------
def _cost_ordered_search(
    problem: SearchProblem[S],
    order: Order,
    *,
    node_limit: Optional[int],
    exhaustive: bool,
    trace: bool,
) -> SearchResult[S]:
    stats = SearchStats()
    expansion = ExpansionTrace() if trace else None
    record = expansion.record if expansion is not None else None
    started = time.perf_counter()

    use_heuristic = order is Order.A_STAR
    heuristic = problem.heuristic
    successors = problem.successors
    is_goal = problem.is_goal
    heappush = heapq.heappush
    heappop = heapq.heappop

    nodes: dict[S, SearchNode[S]] = {}
    status: dict[S, int] = {}
    # Flat heap entries: (f, -g, counter, pushed_g, node) for A*,
    # (g, 0.0, counter, pushed_g, node) for best-first.  The unique
    # counter breaks all remaining ties, so nodes never compare.  On
    # equal f the deeper (higher-g) node is preferred: it is closer to
    # the goal, which measurably trims expansions without touching
    # admissibility.
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
            raise SearchError(f"negative start cost {g0} for state {state}")
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

    while heap:
        entry = heappop(heap)
        pushed_g = entry[3]
        node = entry[4]
        open_size -= 1
        state = node.state
        if status.get(state) != _OPEN or pushed_g != node.g:
            continue  # stale heap entry: the node was re-pushed cheaper
        status[state] = _CLOSED

        if is_goal(state):
            if not exhaustive:
                finish("goal")
                return SearchResult.ending_at(node, stats, expansion)
            if best_goal is None or node.g < best_goal.g:
                best_goal = node

        expanded += 1
        if record is not None:
            parent = node.parent
            record(state, parent.state if parent is not None else None)
        if node_limit is not None and expanded >= node_limit:
            finish("limit")
            return SearchResult.ending_at(best_goal, stats, expansion)

        node_g = node.g
        child_depth = node.depth + 1
        for succ_state, edge_cost in successors(state):
            if edge_cost < 0:
                raise SearchError(
                    f"negative edge cost {edge_cost} from {state} to {succ_state}"
                )
            generated += 1
            new_g = node_g + edge_cost
            existing = nodes.get(succ_state)
            if existing is None:
                h = heuristic(succ_state) if use_heuristic else 0.0
                child = SearchNode(succ_state, new_g, h, node, child_depth)
                nodes[succ_state] = child
                if use_heuristic:
                    heappush(heap, (new_g + h, -new_g, counter, new_g, child))
                else:
                    heappush(heap, (new_g, 0.0, counter, new_g, child))
                counter += 1
                status[succ_state] = _OPEN
                open_size += 1
                if open_size > max_open:
                    max_open = open_size
            elif new_g < existing.g:
                # "If its new f is less than the old it must be placed
                # back on OPEN ... its pointers must be redirected."
                if status.get(succ_state) == _CLOSED:
                    reopened += 1
                existing.parent = node
                existing.g = new_g
                existing.depth = child_depth
                if use_heuristic:
                    heappush(heap, (new_g + existing.h, -new_g, counter, new_g, existing))
                else:
                    heappush(heap, (new_g, 0.0, counter, new_g, existing))
                counter += 1
                status[succ_state] = _OPEN
                open_size += 1
                if open_size > max_open:
                    max_open = open_size

    finish("goal" if best_goal is not None else "exhausted")
    return SearchResult.ending_at(best_goal, stats, expansion)


# ----------------------------------------------------------------------
# Blind searches (depth-first, breadth-first)
# ----------------------------------------------------------------------
def _blind_search(
    problem: SearchProblem[S],
    order: Order,
    *,
    node_limit: Optional[int],
    depth_limit: Optional[int],
    trace: bool,
) -> SearchResult[S]:
    stats = SearchStats()
    expansion = ExpansionTrace() if trace else None
    started = time.perf_counter()

    frontier: deque[SearchNode[S]] = deque()
    active: set[S] = set()
    for state, g0 in problem.start_states():
        node = SearchNode(state, g=g0)
        if state not in active:
            active.add(state)
            frontier.append(node)
    stats.observe_open_size(len(frontier))

    pop = frontier.pop if order is Order.DEPTH_FIRST else frontier.popleft

    while frontier:
        node = pop()
        if problem.is_goal(node.state):
            stats.termination = "goal"
            stats.elapsed_seconds = time.perf_counter() - started
            return SearchResult.ending_at(node, stats, expansion)
        stats.nodes_expanded += 1
        if expansion is not None:
            parent_state = node.parent.state if node.parent else None
            expansion.record(node.state, parent_state)
        if node_limit is not None and stats.nodes_expanded >= node_limit:
            stats.termination = "limit"
            stats.elapsed_seconds = time.perf_counter() - started
            return SearchResult.ending_at(None, stats, expansion)
        if depth_limit is not None and order is Order.DEPTH_FIRST and node.depth >= depth_limit:
            continue

        successors = list(problem.successors(node.state))
        if order is Order.DEPTH_FIRST:
            # Reverse so the first-listed successor is expanded first.
            successors.reverse()
        for succ_state, edge_cost in successors:
            stats.nodes_generated += 1
            if succ_state in active:
                continue
            active.add(succ_state)
            child = SearchNode(
                succ_state, g=node.g + edge_cost, parent=node, depth=node.depth + 1
            )
            frontier.append(child)
        stats.observe_open_size(len(frontier))

    stats.termination = "exhausted"
    stats.elapsed_seconds = time.perf_counter() - started
    return SearchResult.ending_at(None, stats, expansion)
