"""ASCII rendering of layouts, routes, and search expansions.

Terminal-friendly reproduction medium for the paper's figures: cells
are hatched blocks, wires are drawn with line characters, expansion
traces overlay as dots.  The renderer scales the plane down to a
character canvas, so it is schematic — exact coordinates live in the
SVG exporter.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.route import GlobalRoute, RouteTree
from repro.geometry.point import Point
from repro.geometry.segment import Segment, path_segments
from repro.layout.layout import Layout
from repro.search.stats import ExpansionTrace
from repro.analysis.expansion import trace_points, trace_segments

CELL_CHAR = "#"
WIRE_H = "-"
WIRE_V = "|"
WIRE_X = "+"
PIN_CHAR = "o"
EXPAND_CHAR = "."


class _Canvas:
    """A character raster mapped onto the layout outline."""

    def __init__(self, layout: Layout, width: int):
        self.layout = layout
        outline = layout.outline
        self.cols = max(20, width)
        aspect = outline.height / outline.width if outline.width else 1.0
        # Terminal cells are ~2x taller than wide; halve the row count.
        self.rows = max(10, int(self.cols * aspect * 0.5))
        self.grid = [[" "] * self.cols for _ in range(self.rows)]

    def col(self, x: int) -> int:
        outline = self.layout.outline
        if outline.width == 0:
            return 0
        frac = (x - outline.x0) / outline.width
        return min(self.cols - 1, max(0, round(frac * (self.cols - 1))))

    def row(self, y: int) -> int:
        outline = self.layout.outline
        if outline.height == 0:
            return 0
        frac = (y - outline.y0) / outline.height
        # Row 0 is the top of the printout.
        return min(self.rows - 1, max(0, (self.rows - 1) - round(frac * (self.rows - 1))))

    def put(self, x: int, y: int, char: str, *, overwrite: bool = True) -> None:
        r, c = self.row(y), self.col(x)
        if overwrite or self.grid[r][c] == " ":
            self.grid[r][c] = char

    def draw_segment(self, seg: Segment, *, h_char: str, v_char: str) -> None:
        if seg.is_horizontal:
            r = self.row(seg.a.y)
            c0, c1 = sorted((self.col(seg.a.x), self.col(seg.b.x)))
            for c in range(c0, c1 + 1):
                self.grid[r][c] = WIRE_X if self.grid[r][c] == v_char else h_char
        else:
            c = self.col(seg.a.x)
            r0, r1 = sorted((self.row(seg.a.y), self.row(seg.b.y)))
            for r in range(r0, r1 + 1):
                self.grid[r][c] = WIRE_X if self.grid[r][c] == h_char else v_char

    def fill_rect(self, x0: int, y0: int, x1: int, y1: int, char: str) -> None:
        c0, c1 = sorted((self.col(x0), self.col(x1)))
        rows = sorted((self.row(y0), self.row(y1)))
        for r in range(rows[0], rows[1] + 1):
            for c in range(c0, c1 + 1):
                self.grid[r][c] = char

    def text(self) -> str:
        border = "+" + "-" * self.cols + "+"
        lines = [border]
        lines.extend("|" + "".join(row) + "|" for row in self.grid)
        lines.append(border)
        return "\n".join(lines)


def render_layout(
    layout: Layout,
    route: Optional[GlobalRoute] = None,
    *,
    width: int = 78,
    show_pins: bool = True,
    extra_points: Iterable[tuple[Point, str]] = (),
) -> str:
    """Render the layout (and optionally its routes) as ASCII art."""
    canvas = _Canvas(layout, width)
    for cell in layout.cells:
        for rect in cell.blocking_rects:
            canvas.fill_rect(rect.x0, rect.y0, rect.x1, rect.y1, CELL_CHAR)
    if route is not None:
        for _net, seg in route.all_segments():
            canvas.draw_segment(seg, h_char=WIRE_H, v_char=WIRE_V)
    if show_pins:
        for pin in layout.iter_pins():
            canvas.put(pin.location.x, pin.location.y, PIN_CHAR)
    for point, char in extra_points:
        canvas.put(point.x, point.y, char)
    return canvas.text()


def render_expansion(
    layout: Layout,
    trace: ExpansionTrace,
    path: Optional[RouteTree | list[Point]] = None,
    *,
    width: int = 78,
    start: Optional[Point] = None,
    goal: Optional[Point] = None,
) -> str:
    """Figure-1 style rendering: explored segments, final path, endpoints.

    Explored tree edges draw as dots; the final path (bend-point list
    or a route tree) overlays with line characters; start and goal mark
    as ``s`` and ``d`` as in the paper's figure.
    """
    canvas = _Canvas(layout, width)
    for cell in layout.cells:
        for rect in cell.blocking_rects:
            canvas.fill_rect(rect.x0, rect.y0, rect.x1, rect.y1, CELL_CHAR)
    for seg in trace_segments(trace):
        canvas.draw_segment(seg, h_char=EXPAND_CHAR, v_char=EXPAND_CHAR)
    for point in trace_points(trace):
        canvas.put(point.x, point.y, EXPAND_CHAR, overwrite=False)
    if path is not None:
        segments = path.segments if isinstance(path, RouteTree) else path_segments(path)
        for seg in segments:
            canvas.draw_segment(seg, h_char=WIRE_H, v_char=WIRE_V)
    if start is not None:
        canvas.put(start.x, start.y, "s")
    if goal is not None:
        canvas.put(goal.x, goal.y, "d")
    return canvas.text()
