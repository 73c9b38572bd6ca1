"""The layout: routing surface, placed cells, and the netlist.

A :class:`Layout` is the single input artifact of the global router.
It is a mutable builder (cells and nets can be added incrementally, as
a silicon compiler or chip assembler would) with validation available
via :func:`repro.layout.validate.validate_layout`.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.errors import LayoutError
from repro.geometry.point import Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.layout.net import Net
from repro.layout.pin import Pin
from repro.layout.validate import bounding_boxes, separations

#: Largest coordinate magnitude a layout accepts.  The router's int64
#: columns subtract coordinates, so the limit sits below 2**63.
MAX_COORDINATE = 2**62


def _coordinate_problem(values: Iterable[object]) -> Optional[str]:
    """Why *values* are not in-range integer coordinates, or ``None``.

    The router's int64 columns would silently truncate a fraction, so
    only :class:`numbers.Integral` values (``bool`` excluded) pass.
    """
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            return f"has a non-integer coordinate {value!r}"
        if abs(value) > MAX_COORDINATE:
            return "is out of range (|v| <= 2**62)"
    return None


class Layout:
    """A general-cell layout.

    Parameters
    ----------
    outline:
        The routing surface boundary.  All cells and routes must stay
        inside it.
    cells, nets:
        Optional initial contents; more can be added afterwards.
    """

    def __init__(
        self,
        outline: Rect,
        cells: Iterable[Cell] = (),
        nets: Iterable[Net] = (),
    ):
        problem = _coordinate_problem((outline.x0, outline.y0, outline.x1, outline.y1))
        if problem:
            raise LayoutError(f"layout outline {outline} {problem}")
        if outline.width == 0 or outline.height == 0:
            raise LayoutError(f"layout outline {outline} is degenerate")
        self.outline = outline
        self._cells: dict[str, Cell] = {}
        self._nets: dict[str, Net] = {}
        # None until validate_layout passes the layout with its default
        # checks; from then on, the nets added since (only their pins
        # are left to check).  Adding a cell resets it.
        self._unchecked: Optional[list[Net]] = None
        for cell in cells:
            self.add_cell(cell)
        for net in nets:
            self.add_net(net)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_cell(self, cell: Cell) -> None:
        """Add a cell.

        Raises :class:`LayoutError` on duplicate names, non-integer
        coordinates or cells outside the outline.  Overlap/separation is
        checked by validation, not here, so that partially built layouts
        remain inspectable.
        """
        if cell.name in self._cells:
            raise LayoutError(f"duplicate cell name {cell.name!r}")
        shape = cell.shape
        if isinstance(shape, Rect):
            coords: list[object] = [shape.x0, shape.y0, shape.x1, shape.y1]
        else:
            coords = [c for v in shape.vertices for c in (v.x, v.y)]
        problem = _coordinate_problem(coords)
        if problem:
            raise LayoutError(f"cell {cell.name!r} {problem}")
        if not self.outline.contains_rect(cell.bounding_box):
            raise LayoutError(f"cell {cell.name!r} extends outside the outline {self.outline}")
        self._cells[cell.name] = cell
        self._unchecked = None

    def add_net(self, net: Net) -> None:
        """Add a net.

        Raises :class:`LayoutError` on duplicate names, pins that
        reference unknown cells, or pin coordinates that are not
        integers or are out of range (:data:`MAX_COORDINATE`).
        """
        if net.name in self._nets:
            raise LayoutError(f"duplicate net name {net.name!r}")
        for terminal in net.terminals:
            for pin in terminal.pins:
                at = pin.location
                problem = _coordinate_problem((at.x, at.y))
                if problem:
                    raise LayoutError(f"net {net.name!r} pin {pin.name!r} at {at} {problem}")
                if pin.cell is not None and pin.cell not in self._cells:
                    raise LayoutError(
                        f"net {net.name!r} pin {pin.name!r} references unknown cell {pin.cell!r}"
                    )
        self._nets[net.name] = net
        if self._unchecked is not None:
            self._unchecked.append(net)

    def copy(self) -> "Layout":
        """A layout with this one's outline, cells and nets, in order.

        The copy shares the immutable cells and nets (already checked on
        the way in, so they are not checked again); adding or removing
        elements of either layout leaves the other unchanged.
        """
        copied = object.__new__(type(self))
        copied.outline = self.outline
        copied._cells = dict(self._cells)
        copied._nets = dict(self._nets)
        copied._unchecked = None if self._unchecked is None else list(self._unchecked)
        return copied

    def remove_net(self, name: str) -> Net:
        """Remove and return a net by name (rip-up support)."""
        try:
            net = self._nets.pop(name)
        except KeyError:
            raise LayoutError(f"no net named {name!r}") from None
        if self._unchecked is not None:
            self._unchecked = [n for n in self._unchecked if n is not net]
        return net

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def cells(self) -> tuple[Cell, ...]:
        """All cells in insertion order."""
        return tuple(self._cells.values())

    @property
    def nets(self) -> tuple[Net, ...]:
        """All nets in insertion order."""
        return tuple(self._nets.values())

    def cell(self, name: str) -> Cell:
        """Look up a cell by name."""
        try:
            return self._cells[name]
        except KeyError:
            raise LayoutError(f"no cell named {name!r}") from None

    def net(self, name: str) -> Net:
        """Look up a net by name."""
        try:
            return self._nets[name]
        except KeyError:
            raise LayoutError(f"no net named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._cells or name in self._nets

    def iter_pins(self) -> Iterator[Pin]:
        """Every pin of every net."""
        for net in self._nets.values():
            for terminal in net.terminals:
                yield from terminal.pins

    def cell_at(self, point: Point) -> Optional[Cell]:
        """The cell whose closed outline contains *point*, if any.

        With valid (non-overlapping) placements at most one cell
        strictly contains a point; boundary points may touch several
        cells only if validation is violated, in which case the first
        in insertion order is returned.
        """
        for cell in self._cells.values():
            if cell.contains_point(point):
                return cell
        return None

    # ------------------------------------------------------------------
    # Router views
    # ------------------------------------------------------------------
    def obstacles(self) -> ObstacleSet:
        """The cells' blocking rects as an obstacle set for ray tracing.

        The set is immutable and built on each call.  A router that
        routes against extra obstacles (the nets-as-obstacles baseline)
        grows its own copy with :meth:`ObstacleSet.extended`.
        """
        rects: list[Rect] = []
        for cell in self._cells.values():
            rects.extend(cell.blocking_rects)
        return ObstacleSet(self.outline, rects)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def cell_area(self) -> int:
        """Total placed cell area."""
        return sum(cell.area for cell in self._cells.values())

    @property
    def utilization(self) -> float:
        """Cell area over surface area (placement density)."""
        return self.cell_area / self.outline.area

    def min_cell_separation(self) -> Optional[int]:
        """Smallest pairwise bounding-box separation, or ``None`` if < 2 cells.

        The paper's third placement restriction requires this to be
        positive ("a finite and non-zero distance apart").
        """
        n = len(self._cells)
        if n < 2:
            return None
        gaps = separations(bounding_boxes(self.cells))
        return int(gaps[np.triu_indices(n, 1)].min())

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Layout({self.outline}, {len(self._cells)} cells, "
            f"{len(self._nets)} nets, util={self.utilization:.2f})"
        )
