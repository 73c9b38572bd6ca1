"""Nets: sets of terminals to be electrically connected.

"Both multi-pin terminals and multi-terminal nets are accommodated."
A two-terminal net is the base routing case; nets with more terminals
are routed as approximate Steiner trees (Extensions section).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from repro.errors import LayoutError
from repro.geometry.point import Point
from repro.geometry.rect import Rect, bounding_rect
from repro.layout.terminal import Terminal


@dataclass(frozen=True)
class Net:
    """A net over two or more terminals."""

    name: str
    terminals: tuple[Terminal, ...]

    def __init__(self, name: str, terminals: Iterable[Terminal]):
        terms = tuple(terminals)
        if not name:
            raise LayoutError("net name must be non-empty")
        if len(terms) < 2:
            raise LayoutError(f"net {name!r} needs >= 2 terminals, got {len(terms)}")
        names = [t.name for t in terms]
        if len(set(names)) != len(names):
            raise LayoutError(f"net {name!r} has duplicate terminal names")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "terminals", terms)

    @property
    def is_two_terminal(self) -> bool:
        """True for the simple point-to-point case."""
        return len(self.terminals) == 2

    @property
    def pin_count(self) -> int:
        """Total physical pins across all terminals."""
        return sum(len(t.pins) for t in self.terminals)

    @property
    def all_pin_locations(self) -> tuple[Point, ...]:
        """Locations of every pin of every terminal."""
        return tuple(p.location for t in self.terminals for p in t.pins)

    @property
    def bounding_box(self) -> Rect:
        """Bounding rect over all pin locations."""
        return bounding_rect(self.all_pin_locations)

    @functools.cached_property
    def hpwl(self) -> int:
        """Half-perimeter wirelength lower bound over all pins.

        The classical optimistic estimate; useful as a normalizer when
        reporting routed wirelength quality.  Computed once: a net
        never changes.
        """
        return self.bounding_box.half_perimeter

    @functools.cached_property
    def seed_terminal(self) -> Terminal:
        """The terminal a Steiner tree of the net grows from: the one
        nearest the pins' centroid (ties by name).

        The paper does not specify a seed; any choice yields a valid
        tree.  Nearest-to-centroid keeps early connections central,
        which slightly shortens trees versus an arbitrary first
        terminal.  Computed once: a net never changes.
        """
        pins = self.all_pin_locations
        centroid = Point(sum(p.x for p in pins) // len(pins), sum(p.y for p in pins) // len(pins))
        return min(self.terminals, key=lambda t: (t.distance_to(centroid), t.name))

    def terminal(self, name: str) -> Terminal:
        """Look up a terminal by name.

        Raises :class:`LayoutError` when absent.
        """
        for term in self.terminals:
            if term.name == name:
                return term
        raise LayoutError(f"net {self.name!r} has no terminal {name!r}")

    @staticmethod
    def two_point(name: str, a: Point, b: Point) -> "Net":
        """Convenience constructor for a plain two-point net."""
        return Net(name, [Terminal.single(f"{name}.s", a), Terminal.single(f"{name}.d", b)])

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Net({self.name!r}, {len(self.terminals)} terminals)"
