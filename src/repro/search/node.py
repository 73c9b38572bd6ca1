"""Search nodes.

"In the implementation it is important to keep pointers from each
successor back to its parent node.  These pointers provide the means
for following back the path to the start node once the search has
terminated."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, Hashable, Optional, TypeVar

S = TypeVar("S", bound=Hashable)


@dataclass(eq=False, slots=True)
class SearchNode(Generic[S]):
    """A node in the search graph.

    Slotted: searches allocate one of these per generated state, so the
    per-instance ``__dict__`` is worth eliding (measurably smaller and
    faster to construct on the hot path).

    Attributes
    ----------
    state:
        The underlying problem state (a point, a grid coordinate...).
    g:
        Cost of the best known path from the start to this node — the
        paper's g-hat.
    h:
        Heuristic estimate of remaining cost — the paper's h-hat.
    parent:
        Back-pointer for path reconstruction; updated when a shorter
        path to this state is found ("its pointers must be redirected").
    depth:
        Hop count from the start node (used by depth-limited search).
    """

    state: S
    g: float
    h: float = 0.0
    parent: Optional["SearchNode[S]"] = field(default=None, repr=False)
    depth: int = 0

    @property
    def f(self) -> float:
        """The evaluation function f = g + h."""
        return self.g + self.h

    def path(self) -> list[S]:
        """States from the start node to this node, in order."""
        states: list[S] = []
        node: Optional[SearchNode[S]] = self
        while node is not None:
            states.append(node.state)
            node = node.parent
        states.reverse()
        return states

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({self.state}, g={self.g}, h={self.h})"
