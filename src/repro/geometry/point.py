"""Points and axis directions in the rectilinear routing plane.

The paper's state space is the two-dimensional routing plane itself:
"The space is the routing plane and it is, of course, two-dimensional."
A :class:`Point` is therefore both a geometric primitive and a search
state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, slots=True, order=True)
class Point:
    """An immutable point in the routing plane.

    Points order lexicographically (x first, then y) which gives a
    deterministic tie-break order wherever points are sorted.

    Parameters
    ----------
    x, y:
        Coordinates in database units.  Integers keep all geometry exact
        and are what the routers and tests use throughout.
    """

    x: int
    y: int

    def manhattan(self, other: "Point") -> int:
        """Rectilinear (L1) distance to *other*.

        This is the paper's admissible heuristic: "the best you can do
        using Manhattan geometry is a connection whose length is equal
        to the rectilinear distance between the two points."
        """
        return abs(self.x - other.x) + abs(self.y - other.y)

    def translated(self, dx: int, dy: int) -> "Point":
        """Return a new point displaced by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def with_x(self, x: int) -> "Point":
        """Return a copy with the x coordinate replaced."""
        return Point(x, self.y)

    def with_y(self, y: int) -> "Point":
        """Return a copy with the y coordinate replaced."""
        return Point(self.x, y)

    def coord(self, axis: "Axis") -> int:
        """Coordinate along *axis* (``Axis.X`` -> x, ``Axis.Y`` -> y)."""
        return self.x if axis is Axis.X else self.y

    def __iter__(self) -> Iterator[int]:
        yield self.x
        yield self.y

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.x}, {self.y})"


def manhattan(a: Point, b: Point) -> int:
    """Module-level convenience alias for :meth:`Point.manhattan`."""
    return a.manhattan(b)


class Axis(enum.Enum):
    """The two rectilinear axes."""

    X = "x"
    Y = "y"

    @property
    def other(self) -> "Axis":
        """The perpendicular axis."""
        return Axis.Y if self is Axis.X else Axis.X


class Direction(enum.Enum):
    """The four rectilinear ray directions.

    Successor generation traces rays in these directions; the enum
    carries the unit displacement, the axis of travel, and sign helpers
    so ray-tracing code reads declaratively.
    """

    EAST = (1, 0)
    WEST = (-1, 0)
    NORTH = (0, 1)
    SOUTH = (0, -1)

    @property
    def dx(self) -> int:
        """Unit displacement along x."""
        return self.value[0]

    @property
    def dy(self) -> int:
        """Unit displacement along y."""
        return self.value[1]

    @property
    def axis(self) -> Axis:
        """Axis of travel (EAST/WEST move along X)."""
        return Axis.X if self.value[0] != 0 else Axis.Y

    @property
    def is_horizontal(self) -> bool:
        """True for EAST and WEST."""
        return self.value[0] != 0

    @property
    def sign(self) -> int:
        """+1 when travelling toward increasing coordinates, else -1."""
        return self.value[0] + self.value[1]

    @property
    def opposite(self) -> "Direction":
        """The reverse direction."""
        return _OPPOSITE[self]

    @staticmethod
    def toward(origin: Point, target: Point) -> list["Direction"]:
        """Directions that strictly reduce the Manhattan distance to *target*.

        Used by the goal-directed ("aggressive") successor generator:
        the paper "extends any path as far toward the goal as is
        feasible in x and y".
        """
        moves: list[Direction] = []
        if target.x > origin.x:
            moves.append(Direction.EAST)
        elif target.x < origin.x:
            moves.append(Direction.WEST)
        if target.y > origin.y:
            moves.append(Direction.NORTH)
        elif target.y < origin.y:
            moves.append(Direction.SOUTH)
        return moves


_OPPOSITE = {
    Direction.EAST: Direction.WEST,
    Direction.WEST: Direction.EAST,
    Direction.NORTH: Direction.SOUTH,
    Direction.SOUTH: Direction.NORTH,
}

#: All four directions in a deterministic order.
ALL_DIRECTIONS: tuple[Direction, Direction, Direction, Direction] = (
    Direction.EAST,
    Direction.WEST,
    Direction.NORTH,
    Direction.SOUTH,
)
