"""Search instrumentation.

The paper's efficiency claims are about *node counts* ("surprisingly
few nodes are generated before an optimal path is found"), so every
search records them; the experiment harness aggregates these into the
reproduced series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class SearchStats:
    """Counters accumulated during one search.

    Attributes
    ----------
    nodes_expanded:
        Nodes taken off OPEN and expanded.
    nodes_generated:
        Successor nodes produced (including duplicates later discarded).
    nodes_reopened:
        Nodes moved from CLOSED back to OPEN because a cheaper path was
        found — the paper's "pointers must be redirected" case.
    max_open_size:
        High-water mark of the OPEN list (the space cost the paper
        contrasts against grid expansion).
    elapsed_seconds:
        Wall-clock duration of the search.
    termination:
        How the search ended: ``"goal"``, ``"exhausted"`` (OPEN ran
        empty), ``"limit"`` (node limit hit), or ``"none"`` (no search
        has been recorded yet — the neutral element for merging).
    cache_hits / cache_misses:
        Ray probes of this search.  Rays are not memoized, so
        ``cache_hits`` is always 0 and ``cache_misses`` counts every
        probe (:attr:`~repro.geometry.raytrace.ObstacleSet.ray_probes`);
        the field names survive for the perf tracer and stored routes.
        Telemetry only: these are excluded from any byte-identity
        comparison.
    """

    nodes_expanded: int = 0
    nodes_generated: int = 0
    nodes_reopened: int = 0
    max_open_size: int = 0
    elapsed_seconds: float = 0.0
    termination: str = "none"
    cache_hits: int = 0
    cache_misses: int = 0

    def observe_open_size(self, size: int) -> None:
        """Track the OPEN list high-water mark."""
        if size > self.max_open_size:
            self.max_open_size = size

    def merged_with(self, other: "SearchStats") -> "SearchStats":
        """Combine counters from two searches (multi-connection routing)."""
        return SearchStats.merged((self, other))

    @classmethod
    def merged(cls, parts: Sequence["SearchStats"]) -> "SearchStats":
        """Combine the counters of *parts*, in order.

        The result equals folding :meth:`merged_with` over *parts* from
        an empty ``SearchStats()``: times are summed in order, and the
        merged termination is the *worst* one, so an aggregate reads
        ``"goal"`` only when every constituent search reached its goal.
        """
        total = cls()
        for part in parts:
            total.nodes_expanded += part.nodes_expanded
            total.nodes_generated += part.nodes_generated
            total.nodes_reopened += part.nodes_reopened
            total.observe_open_size(part.max_open_size)
            total.elapsed_seconds += part.elapsed_seconds
            if _SEVERITY.get(part.termination, 3) > _SEVERITY.get(total.termination, 3):
                total.termination = part.termination
            total.cache_hits += part.cache_hits
            total.cache_misses += part.cache_misses
        return total


#: Termination outcomes from best to worst; unknown ones rank worst.
_SEVERITY = {"none": 0, "goal": 1, "exhausted": 2, "limit": 3}


@dataclass
class ExpansionTrace:
    """Optional record of the order in which states were expanded.

    Drives the Figure 1 reproduction: rendering the expansion (each
    expanded state with a segment back to its parent) shows how few
    nodes the line-search A* touches compared to a grid wavefront.
    """

    entries: list = field(default_factory=list)

    def record(self, state, parent=None) -> None:
        """Append the next expanded state and its parent state."""
        self.entries.append((state, parent))

    @property
    def states(self) -> list:
        """Expanded states in expansion order."""
        return [state for state, _parent in self.entries]

    def __len__(self) -> int:
        return len(self.entries)
