"""Topologically ordered point structures.

The paper's implementation section describes the data structure behind
its ray tracer: "The atomic unit of the data structure is the point.
... All points are linked to reflect their topological order in both x
and y. ... a third set of links is kept to maintain this logical
relationship between points" (membership in boxes and wire segments).

Two structures are provided:

* :class:`CoordIndex` — a sorted multiset of coordinates supporting
  range queries.  This is what the escape-coordinate generator actually
  needs (all cell-edge coordinates crossed by a clear ray span).
* :class:`LinkedPointMesh` — a faithful rendition of the linked-point
  mesh: every inserted point is doubly linked in global x order and in
  global y order and tagged with the logical owner it belongs to.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Optional

import numpy as np

from repro.errors import GeometryError
from repro.geometry.point import Point


class CoordIndex:
    """A sorted multiset of integer coordinates with range queries.

    Duplicates are reference-counted so that removing one of two cells
    sharing an edge coordinate keeps the coordinate alive.
    """

    def __init__(self, values: Iterable[int] = ()):
        self._counts: dict[int, int] = {}
        self._sorted: list[int] = []
        self._array: Optional[np.ndarray] = None
        for value in values:
            self.add(value)

    def add(self, value: int) -> None:
        """Insert *value* (duplicates allowed)."""
        if value in self._counts:
            self._counts[value] += 1
        else:
            self._counts[value] = 1
            bisect.insort(self._sorted, value)
            self._array = None

    def remove(self, value: int) -> None:
        """Remove one occurrence of *value*.

        Raises :class:`KeyError` if the value is not present.
        """
        count = self._counts[value]
        if count > 1:
            self._counts[value] = count - 1
        else:
            del self._counts[value]
            index = bisect.bisect_left(self._sorted, value)
            self._sorted.pop(index)
            self._array = None

    def as_array(self) -> np.ndarray:
        """Sorted distinct values as an int64 numpy snapshot.

        Cached until the distinct-value set changes; callers must not
        mutate the returned array.  The batched search merges it into
        its escape grid once per search instead of calling
        :meth:`between` per ray.
        """
        if self._array is None:
            self._array = np.asarray(self._sorted, dtype=np.int64)
        return self._array

    def __contains__(self, value: int) -> bool:
        return value in self._counts

    def __len__(self) -> int:
        return len(self._sorted)

    def __iter__(self) -> Iterator[int]:
        return iter(self._sorted)

    def between(
        self, lo: int, hi: int, *, include_lo: bool = False, include_hi: bool = False
    ) -> list[int]:
        """Distinct coordinates within ``(lo, hi)``.

        Boundary inclusion is controlled by the keyword flags; the
        default is the open interval, which matches "escape coordinates
        strictly inside a clear ray span".
        """
        if lo > hi:
            lo, hi = hi, lo
        left = bisect.bisect_left(self._sorted, lo) if include_lo else bisect.bisect_right(
            self._sorted, lo
        )
        right = bisect.bisect_right(self._sorted, hi) if include_hi else bisect.bisect_left(
            self._sorted, hi
        )
        return self._sorted[left:right]

    def nearest_at_or_below(self, value: int) -> Optional[int]:
        """Largest stored coordinate ``<= value``, or ``None``."""
        index = bisect.bisect_right(self._sorted, value)
        return self._sorted[index - 1] if index else None

    def nearest_at_or_above(self, value: int) -> Optional[int]:
        """Smallest stored coordinate ``>= value``, or ``None``."""
        index = bisect.bisect_left(self._sorted, value)
        return self._sorted[index] if index < len(self._sorted) else None


@dataclass(eq=False)
class MeshPoint:
    """A node of :class:`LinkedPointMesh`.

    Carries the geometric point, the logical owner (a box, wire, or any
    hashable tag — the paper's "third set of links"), and the four
    topological neighbour links maintained by the mesh.
    """

    point: Point
    owner: Hashable = None
    prev_x: Optional["MeshPoint"] = field(default=None, repr=False)
    next_x: Optional["MeshPoint"] = field(default=None, repr=False)
    prev_y: Optional["MeshPoint"] = field(default=None, repr=False)
    next_y: Optional["MeshPoint"] = field(default=None, repr=False)

    @property
    def key_x(self) -> tuple[int, int]:
        """Sort key for the x ordering (x major, y minor)."""
        return (self.point.x, self.point.y)

    @property
    def key_y(self) -> tuple[int, int]:
        """Sort key for the y ordering (y major, x minor)."""
        return (self.point.y, self.point.x)


class LinkedPointMesh:
    """Points doubly linked in both x and y topological order.

    Insertions keep two doubly linked lists consistent: one sorted by
    ``(x, y)`` and one by ``(y, x)``.  Identical coordinates from
    different owners coexist as distinct nodes.  The mesh supports the
    queries the paper's ray tracer needs — walking to the next point in
    either axis order — and is exercised by the analysis layer; the hot
    routing path uses the vectorized :class:`~repro.geometry.raytrace.ObstacleSet`
    instead (same semantics, measured faster).
    """

    def __init__(self) -> None:
        self._nodes: list[MeshPoint] = []
        self._head_x: Optional[MeshPoint] = None
        self._head_y: Optional[MeshPoint] = None

    def __len__(self) -> int:
        return len(self._nodes)

    def insert(self, point: Point, owner: Hashable = None) -> MeshPoint:
        """Insert *point* tagged with *owner* and return its node."""
        node = MeshPoint(point, owner)
        self._link(node, "x")
        self._link(node, "y")
        self._nodes.append(node)
        return node

    def remove(self, node: MeshPoint) -> None:
        """Unlink *node* from both orders.

        Raises :class:`GeometryError` if the node is not in this mesh.
        """
        try:
            self._nodes.remove(node)
        except ValueError:
            raise GeometryError("node does not belong to this mesh") from None
        self._unlink(node, "x")
        self._unlink(node, "y")

    # ------------------------------------------------------------------
    # Ordered iteration / walking
    # ------------------------------------------------------------------
    def iter_x_order(self) -> Iterator[MeshPoint]:
        """Nodes in ``(x, y)`` order."""
        node = self._head_x
        while node is not None:
            yield node
            node = node.next_x

    def iter_y_order(self) -> Iterator[MeshPoint]:
        """Nodes in ``(y, x)`` order."""
        node = self._head_y
        while node is not None:
            yield node
            node = node.next_y

    def points(self) -> list[Point]:
        """All stored points in x order."""
        return [node.point for node in self.iter_x_order()]

    def owners_at(self, point: Point) -> list[Hashable]:
        """Owners of every node at exactly *point*."""
        return [node.owner for node in self._nodes if node.point == point]

    # ------------------------------------------------------------------
    # Linked-list plumbing
    # ------------------------------------------------------------------
    def _link(self, node: MeshPoint, axis: str) -> None:
        head_attr = f"_head_{axis}"
        prev_attr, next_attr = f"prev_{axis}", f"next_{axis}"
        key = (lambda n: n.key_x) if axis == "x" else (lambda n: n.key_y)
        head: Optional[MeshPoint] = getattr(self, head_attr)
        if head is None or key(node) <= key(head):
            setattr(node, next_attr, head)
            if head is not None:
                setattr(head, prev_attr, node)
            setattr(self, head_attr, node)
            return
        cursor = head
        while getattr(cursor, next_attr) is not None and key(getattr(cursor, next_attr)) < key(
            node
        ):
            cursor = getattr(cursor, next_attr)
        follower = getattr(cursor, next_attr)
        setattr(node, prev_attr, cursor)
        setattr(node, next_attr, follower)
        setattr(cursor, next_attr, node)
        if follower is not None:
            setattr(follower, prev_attr, node)

    def _unlink(self, node: MeshPoint, axis: str) -> None:
        head_attr = f"_head_{axis}"
        prev_attr, next_attr = f"prev_{axis}", f"next_{axis}"
        prev: Optional[MeshPoint] = getattr(node, prev_attr)
        nxt: Optional[MeshPoint] = getattr(node, next_attr)
        if prev is not None:
            setattr(prev, next_attr, nxt)
        else:
            setattr(self, head_attr, nxt)
        if nxt is not None:
            setattr(nxt, prev_attr, prev)
        setattr(node, prev_attr, None)
        setattr(node, next_attr, None)
