"""Cells (blocks / macros) in a general-cell layout.

"General cell routing refers to the problem of routing between several
blocks of arbitrary size."  A :class:`Cell` is such a block: named,
rectangular by default, optionally an orthogonal polygon (the paper's
proposed extension).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.errors import LayoutError
from repro.geometry.orthpoly import OrthoPolygon
from repro.geometry.point import Point
from repro.geometry.rect import Rect

Shape = Union[Rect, OrthoPolygon]


@dataclass(frozen=True)
class Cell:
    """A placed block.

    Parameters
    ----------
    name:
        Unique identifier within a layout.
    shape:
        Either a :class:`Rect` (the paper's base restriction: "blocks
        must be rectangular, oriented orthogonally") or an
        :class:`OrthoPolygon` (the Extensions section's generalization).
    """

    name: str
    shape: Shape

    def __post_init__(self) -> None:
        if not self.name:
            raise LayoutError("cell name must be non-empty")
        if isinstance(self.shape, Rect) and (self.shape.width == 0 or self.shape.height == 0):
            raise LayoutError(f"cell {self.name!r} has a degenerate outline {self.shape}")

    # ------------------------------------------------------------------
    # Shape views
    # ------------------------------------------------------------------
    @property
    def is_rectangular(self) -> bool:
        """True for plain rectangular blocks."""
        return isinstance(self.shape, Rect)

    @property
    def bounding_box(self) -> Rect:
        """Axis-aligned bounding box of the outline."""
        if isinstance(self.shape, Rect):
            return self.shape
        return self.shape.bounding_box

    @property
    def blocking_rects(self) -> tuple[Rect, ...]:
        """Rects whose open interiors block routing.

        Their open interiors together cover the cell's open interior,
        and wires may still hug every boundary edge.  A rectangular
        cell blocks with itself.  A polygonal cell blocks with its
        disjoint slab decomposition, followed by one bridge per pair of
        vertically adjacent slabs over their shared x span, so no wire
        runs along the seam between two slabs.  The bridges come after
        the slabs, so ray ties still go to a slab, and use only slab
        coordinates, so the escape grid is the slabs' own.
        """
        if isinstance(self.shape, Rect):
            return (self.shape,)
        slabs = self.shape.to_rects()
        bridges = [
            Rect(max(lower.x0, upper.x0), lower.y0, min(lower.x1, upper.x1), upper.y1)
            for lower in slabs
            for upper in slabs
            if lower.y1 == upper.y0 and max(lower.x0, upper.x0) < min(lower.x1, upper.x1)
        ]
        return tuple(slabs + bridges)

    @property
    def area(self) -> int:
        """Area of the outline."""
        return self.shape.area

    def on_boundary(self, p: Point) -> bool:
        """Whether *p* lies on the cell's outline boundary."""
        return self.shape.on_boundary(p)

    def contains_point(self, p: Point, *, strict: bool = False) -> bool:
        """Whether *p* is inside the outline (open interior if strict)."""
        return self.shape.contains_point(p, strict=strict)

    # ------------------------------------------------------------------
    # Placement transforms (used when instancing cells from a library)
    # ------------------------------------------------------------------
    def translated(self, dx: int, dy: int) -> "Cell":
        """The same cell displaced by ``(dx, dy)``."""
        if isinstance(self.shape, Rect):
            return Cell(self.name, self.shape.translated(dx, dy))
        moved = OrthoPolygon([v.translated(dx, dy) for v in self.shape.vertices])
        return Cell(self.name, moved)

    def renamed(self, name: str) -> "Cell":
        """The same outline under a new name (library instancing)."""
        return Cell(name, self.shape)

    def rotated90(self) -> "Cell":
        """The cell rotated 90 degrees counter-clockwise about its bbox origin.

        Orthogonal orientation is preserved, matching the paper's second
        placement restriction.
        """
        box = self.bounding_box
        if isinstance(self.shape, Rect):
            rotated = Rect.from_origin_size(box.x0, box.y0, box.height, box.width)
            return Cell(self.name, rotated)
        vertices = [
            Point(box.x0 + (box.y1 - v.y), box.y0 + (v.x - box.x0)) for v in self.shape.vertices
        ]
        return Cell(self.name, OrthoPolygon(vertices))

    @staticmethod
    def rect(name: str, x: int, y: int, width: int, height: int) -> "Cell":
        """Convenience constructor from origin and size."""
        return Cell(name, Rect.from_origin_size(x, y, width, height))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cell({self.name!r}, {self.shape})"
