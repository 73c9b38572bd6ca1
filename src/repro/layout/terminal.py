"""Multi-pin terminals.

From the paper's Extensions section: "Multi-pin terminals are handled
by logically grouping all pins which belong to a terminal.  When a
terminal is connected into the tree ... all the pins which are
associated with the newly connected terminal are brought into the
connected set."

A :class:`Terminal` is that logical group: one electrical connection
point of a net, physically reachable at any of several equivalent pins
(e.g. a power rail exposed on both cell edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import LayoutError
from repro.geometry.point import Point
from repro.layout.pin import Pin


@dataclass(frozen=True)
class Terminal:
    """A logical terminal: one or more electrically equivalent pins.

    ``locations`` holds every equivalent pin's location, in pin order.
    It is computed once, at construction, and is not a field: equality,
    hashing and the repr read ``name`` and ``pins`` only.
    """

    name: str
    pins: tuple[Pin, ...]

    def __init__(self, name: str, pins: Iterable[Pin]):
        pin_tuple = tuple(pins)
        if not name:
            raise LayoutError("terminal name must be non-empty")
        if not pin_tuple:
            raise LayoutError(f"terminal {name!r} has no pins")
        names = [p.name for p in pin_tuple]
        if len(set(names)) != len(names):
            raise LayoutError(f"terminal {name!r} has duplicate pin names")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "pins", pin_tuple)
        object.__setattr__(self, "locations", tuple(p.location for p in pin_tuple))

    @property
    def is_multi_pin(self) -> bool:
        """True when the terminal exposes more than one equivalent pin."""
        return len(self.pins) > 1

    def nearest_pin_to(self, point: Point) -> Pin:
        """The equivalent pin closest (L1) to *point*.

        Deterministic under ties (pin order breaks them).
        """
        return min(self.pins, key=lambda p: (p.location.manhattan(point), p.name))

    def distance_to(self, point: Point) -> int:
        """Rectilinear distance from *point* to the nearest pin."""
        return min(p.location.manhattan(point) for p in self.pins)

    @staticmethod
    def single(name: str, location: Point, cell: str | None = None) -> "Terminal":
        """Convenience constructor for the common one-pin terminal."""
        return Terminal(name, [Pin(name, location, cell)])

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Terminal({self.name!r}, {len(self.pins)} pin(s))"
