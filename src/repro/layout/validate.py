"""Layout validation against the paper's placement restrictions.

"There are, however, three restrictions placed on the block placement:
The blocks must be rectangular, oriented orthogonally, and placed a
finite and non-zero distance apart."

Rectangularity and orthogonality are structural (the geometry types
admit nothing else; polygonal cells are the explicitly-flagged
extension), so validation focuses on separation, containment, and pin
legality.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.layout.cell import Cell
    from repro.layout.layout import Layout
    from repro.layout.net import Net


def bounding_boxes(cells: tuple[Cell, ...]) -> np.ndarray:
    """The cells' bounding boxes as an ``(n, 4)`` int64 array of
    ``[x0, y0, x1, y1]`` rows, in cell order."""
    return np.array(
        [(b.x0, b.y0, b.x1, b.y1) for b in (cell.bounding_box for cell in cells)],
        dtype=np.int64,
    ).reshape(len(cells), 4)


def separations(boxes: np.ndarray) -> np.ndarray:
    """Pairwise rectilinear gaps of *boxes* (:func:`bounding_boxes` rows).

    Entry ``[i, j]`` is ``Rect.separation`` of boxes ``i`` and ``j``:
    per axis, the gap between the closed spans (0 when they touch or
    overlap), summed over both axes.
    """
    x0, y0, x1, y1 = (column[:, None] for column in boxes.T)
    gap_x = np.maximum(np.maximum(x0.T - x1, x0 - x1.T), 0)
    gap_y = np.maximum(np.maximum(y0.T - y1, y0 - y1.T), 0)
    return gap_x + gap_y


def validate_layout(
    layout: Layout,
    *,
    min_separation: int = 1,
    allow_polygon_cells: bool = True,
) -> None:
    """Check *layout* against the paper's placement restrictions.

    Parameters
    ----------
    layout:
        The layout to check.
    min_separation:
        Minimum required gap between any two cell bounding boxes.  The
        paper requires a "finite and non-zero distance", i.e. at least
        1 database unit.
    allow_polygon_cells:
        When ``False``, enforce the base paper's rectangularity
        restriction strictly (reject :class:`OrthoPolygon` outlines).

    Raises
    ------
    ValidationError
        Describing the first violation found, with the offending names.
        Cells are checked in order, then pairs of cells in row-major
        order, then pins in netlist order.

    A layout passed with the default checks remembers it: validating it
    again checks only the pins of nets added since (which follow every
    other net in netlist order, so the first violation is the same),
    and adding a cell makes the next call check everything.
    """
    if min_separation < 1:
        raise ValidationError("min_separation must be >= 1 (paper requires non-zero spacing)")
    defaults = min_separation == 1 and allow_polygon_cells
    if defaults and layout._unchecked is not None:
        cells = layout.cells
        for net in layout._unchecked:  # typically a net or two: checked pin by pin
            for terminal in net.terminals:
                for pin in terminal.pins:
                    _check_pin(layout, net, pin, cells)
        layout._unchecked = []
        return

    cells = layout.cells
    for cell in cells:
        if not allow_polygon_cells and not cell.is_rectangular:
            raise ValidationError(
                f"cell {cell.name!r} is polygonal but rectangular cells were required"
            )
        if not layout.outline.contains_rect(cell.bounding_box):
            raise ValidationError(f"cell {cell.name!r} extends outside the routing surface")

    boxes = bounding_boxes(cells)
    gaps = separations(boxes)
    too_close = np.flatnonzero(np.triu(gaps < min_separation, 1))
    if too_close.size:
        i, j = divmod(int(too_close[0]), len(cells))
        raise ValidationError(
            f"cells {cells[i].name!r} and {cells[j].name!r} are {int(gaps[i, j])} apart; "
            f"placement requires separation >= {min_separation}"
        )

    _validate_pins(layout, boxes, layout.nets)
    if defaults:
        layout._unchecked = []


def _validate_pins(layout: Layout, boxes: np.ndarray, nets: Iterable[Net]) -> None:
    """Every pin must be a legal route endpoint.

    Rules: a pin attached to a cell must lie on that cell's boundary; a
    pad pin must lie on or inside the outline; no pin may fall strictly
    inside any cell interior (it would be unreachable).

    A pin strictly inside a cell is strictly inside its bounding box,
    so one pins x boxes broadcast picks the candidate cells and the
    exact ``contains_point`` runs on those alone (a polygon's notch is
    inside its box but outside the cell).
    """
    cells = layout.cells
    pins = [(net, pin) for net in nets for terminal in net.terminals for pin in terminal.pins]
    xy = np.array([(pin.location.x, pin.location.y) for _, pin in pins], dtype=np.int64)
    px, py = xy.reshape(-1, 2).T[:, :, None]
    x0, y0, x1, y1 = boxes.T
    inside_box = (x0 < px) & (px < x1) & (y0 < py) & (py < y1)
    suspects = inside_box.any(axis=1).tolist()
    for i, ((net, pin), suspect) in enumerate(zip(pins, suspects)):
        candidates = [cells[k] for k in np.flatnonzero(inside_box[i]).tolist()] if suspect else ()
        _check_pin(layout, net, pin, candidates)


def _check_pin(layout: Layout, net: Net, pin, candidates: Iterable[Cell]) -> None:
    """Check one pin; *candidates* are the cells it may be strictly inside."""
    at = pin.location
    problem = None
    if not layout.outline.contains_point(at):
        problem = "lies outside the routing surface"
    elif pin.cell is not None and not layout.cell(pin.cell).on_boundary(at):
        problem = f"is not on the boundary of its cell {pin.cell!r}"
    else:
        for cell in candidates:
            if cell.contains_point(at, strict=True):
                problem = f"is strictly inside cell {cell.name!r} and unreachable"
                break
    if problem is not None:
        raise ValidationError(f"pin {pin.name!r} of net {net.name!r} {problem}")
