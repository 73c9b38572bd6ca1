"""Search instrumentation.

The paper's efficiency claims are about *node counts* ("surprisingly
few nodes are generated before an optimal path is found"), so every
search records them; the experiment harness aggregates these into the
reproduced series.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
        """Combine counters from two searches (multi-connection routing).

        The merged termination is the *worst* of the two, so an
        aggregate reads ``"goal"`` only when every constituent search
        reached its goal.
        """
        severity = {"none": 0, "goal": 1, "exhausted": 2, "limit": 3}
        worst = max(self.termination, other.termination, key=lambda t: severity.get(t, 3))
        return SearchStats(
            nodes_expanded=self.nodes_expanded + other.nodes_expanded,
            nodes_generated=self.nodes_generated + other.nodes_generated,
            nodes_reopened=self.nodes_reopened + other.nodes_reopened,
            max_open_size=max(self.max_open_size, other.max_open_size),
            elapsed_seconds=self.elapsed_seconds + other.elapsed_seconds,
            termination=worst,
            cache_hits=self.cache_hits + other.cache_hits,
            cache_misses=self.cache_misses + other.cache_misses,
        )


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
