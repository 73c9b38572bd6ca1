"""Differential parity of the columnar layers around the search.

``find_passages``, ``measure_congestion``, the route verifier and the
layout validator run on int64 column broadcasts.  Their pairwise
Python loops live on here, verbatim, as the oracles: whatever layout,
route or netlist hypothesis draws, the columnar forms must return the
same passage list in the same order, the same net sets, the same
violation strings in the same order, and raise the same
``ValidationError`` message.  The drawn layouts use a coarse
coordinate grid so that edges coincide; cells may touch, overlap, be
L-shaped polygons (the ``l_macro`` shape of the polygon-cell bench) or
carry the boundary's pseudo name.  The verifier, which checks a whole
route in one pass, is also drawn on nets whose wires overlap (each net
must be judged on its own wires and pins), at the ``±2**62`` limit, on
hand-built broken and empty trees, and run on the 60 seed-1 perfbench
``first-pass`` routes.  One more property checks that a polygon cell's
blocking rects cover its open interior and nothing outside it, on T,
U, plus and staircase shapes.
"""

import random
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.verify import (
    verify_detailed,
    verify_global_route,
    verify_path,
    verify_route_tree,
)
from repro.core.congestion import (
    BOUNDARY,
    Passage,
    find_passages,
    measure_congestion,
)
from repro.core.route import GlobalRoute, RoutePath, RouteTree
from repro.core.router import GlobalRouter
from repro.detail.detailed import DetailedRouter
from repro.errors import LayoutError, ValidationError
from repro.geometry.orthpoly import OrthoPolygon
from repro.geometry.point import Axis, Point
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment
from repro.layout.cell import Cell
from repro.layout.generators import LayoutSpec, random_layout
from repro.layout.layout import Layout
from repro.layout.net import Net
from repro.layout.pin import Pin
from repro.layout.terminal import Terminal
from repro.layout.validate import validate_layout

from tests.property.conftest import LIMIT, generate, limit_layouts

SIZE = 60

#: Coarse coordinates so that cell edges, pins and wires coincide.
GRID = tuple(range(0, SIZE + 1, 5))

#: Wire and pin coordinates: the grid plus points just off the surface.
WIRE = (-5,) + GRID + (SIZE + 5,)


# ----------------------------------------------------------------------
# The scalar oracles: the pairwise loops the columnar forms replaced.
# ----------------------------------------------------------------------
def scalar_find_passages(layout: Layout, *, max_gap: Optional[int] = None) -> list[Passage]:
    passages: list[Passage] = []
    boxes = [(cell.name, cell.bounding_box) for cell in layout.cells]

    for i in range(len(boxes)):
        for j in range(len(boxes)):
            if i == j:
                continue
            name_a, a = boxes[i]
            name_b, b = boxes[j]
            # Horizontal adjacency: a strictly left of b.
            if a.x1 <= b.x0:
                overlap = a.y_span.intersection(b.y_span)
                if overlap is not None and overlap.length >= 1:
                    region = Rect(a.x1, overlap.lo, b.x0, overlap.hi)
                    _append_if_clear(
                        passages, region, Axis.Y, (name_a, name_b), boxes, max_gap
                    )
            # Vertical adjacency: a strictly below b.
            if a.y1 <= b.y0:
                overlap = a.x_span.intersection(b.x_span)
                if overlap is not None and overlap.length >= 1:
                    region = Rect(overlap.lo, a.y1, overlap.hi, b.y0)
                    _append_if_clear(
                        passages, region, Axis.X, (name_a, name_b), boxes, max_gap
                    )

    outline = layout.outline
    for name, box in boxes:
        candidates = (
            (Rect(outline.x0, box.y0, box.x0, box.y1), Axis.Y, (BOUNDARY, name)),
            (Rect(box.x1, box.y0, outline.x1, box.y1), Axis.Y, (name, BOUNDARY)),
            (Rect(box.x0, outline.y0, box.x1, box.y0), Axis.X, (BOUNDARY, name)),
            (Rect(box.x0, box.y1, box.x1, outline.y1), Axis.X, (name, BOUNDARY)),
        )
        for region, flow, between in candidates:
            _append_if_clear(passages, region, flow, between, boxes, max_gap)

    return _dedupe(passages)


def _dedupe(passages: list[Passage]) -> list[Passage]:
    """Drop symmetric duplicates (a|b vs b|a over the same region)."""
    seen: set[tuple[Rect, Axis, frozenset[str]]] = set()
    unique: list[Passage] = []
    for p in passages:
        key = (p.region, p.flow, frozenset(p.between))
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique


def _append_if_clear(passages, region, flow, between, boxes, max_gap) -> None:
    gap = region.width if flow is Axis.Y else region.height
    span = region.height if flow is Axis.Y else region.width
    if gap < 1 or span < 1:
        return
    if max_gap is not None and gap > max_gap:
        return
    for name, box in boxes:
        if name in between:
            continue
        if box.intersects(region, strict=True):
            return
    passages.append(Passage(region, flow, between))


def scalar_measure_congestion(passages, route) -> list[set[str]]:
    return [
        {name for name, seg in route.all_segments() if passage.carries(seg)}
        for passage in passages
    ]


def scalar_verify_path(path: RoutePath, layout: Layout) -> list[str]:
    violations: list[str] = []
    for point in path.points:
        if not layout.outline.contains_point(point):
            violations.append(f"point {point} outside routing surface")
    if not path.segments:
        # A path without hops sits at its one point; strictly inside a
        # cell is as illegal as a wire through one.
        point = path.points[0]
        for cell in layout.cells:
            if crosses_cell(cell, Segment(point, point)):
                violations.append(f"point {point} inside cell {cell.name!r}")
    for seg in path.segments:
        for cell in layout.cells:
            if crosses_cell(cell, seg):
                violations.append(f"segment {seg} crosses cell {cell.name!r}")
    return violations


def crosses_cell(cell: Cell, seg: Segment) -> bool:
    """Whether *seg* enters the open interior of any of *cell*'s
    blocking rects: one finding per cell, however many rects."""
    return any(rect.segment_crosses_interior(seg) for rect in cell.blocking_rects)


def scalar_verify_route_tree(tree: RouteTree, net: Net, layout: Layout) -> list[str]:
    violations: list[str] = []
    for path in tree.paths:
        violations.extend(scalar_verify_path(path, layout))

    if set(tree.connected_terminals) != {t.name for t in net.terminals}:
        missing = {t.name for t in net.terminals} - set(tree.connected_terminals)
        violations.append(f"net {net.name!r}: terminals never connected: {sorted(missing)}")
        return violations

    violations.extend(scalar_connectivity_violations(tree, net))
    return violations


def scalar_connectivity_violations(tree: RouteTree, net: Net) -> list[str]:
    elements: list[Segment] = list(tree.segments)
    for path in tree.paths:
        if len(path.points) == 1:
            elements.append(Segment(path.points[0], path.points[0]))

    pin_elements: dict[str, list[int]] = {}
    for terminal in net.terminals:
        indices: list[int] = []
        for pin in terminal.pins:
            elements.append(Segment(pin.location, pin.location))
            indices.append(len(elements) - 1)
        pin_elements[terminal.name] = indices

    parent = list(range(len(elements)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            if elements[i].intersects(elements[j]):
                union(i, j)

    for indices in pin_elements.values():
        for first, second in zip(indices, indices[1:]):
            union(first, second)

    violations: list[str] = []
    roots_by_terminal = {
        name: {find(i) for i in indices} for name, indices in pin_elements.items()
    }
    anchor_candidates = roots_by_terminal[net.terminals[0].name]
    best_anchor = None
    best_cover = -1
    for root in anchor_candidates:
        cover = sum(1 for roots in roots_by_terminal.values() if root in roots)
        if cover > best_cover:
            best_anchor, best_cover = root, cover
    for terminal in net.terminals:
        if best_anchor not in roots_by_terminal[terminal.name]:
            violations.append(
                f"net {net.name!r}: terminal {terminal.name!r} not electrically "
                f"connected to the tree"
            )
    return violations


def scalar_verify_global_route(route: GlobalRoute, layout: Layout) -> dict[str, list[str]]:
    report: dict[str, list[str]] = {}
    for name, tree in route.trees.items():
        violations = scalar_verify_route_tree(tree, layout.net(name), layout)
        if violations:
            report[name] = violations
    return report


def scalar_verify_detailed(result, layout: Layout) -> list[str]:
    violations: list[str] = []
    for wire in result.layers.wires:
        for endpoint in (wire.seg.a, wire.seg.b):
            if not layout.outline.contains_point(endpoint):
                violations.append(f"wire {wire.seg} of {wire.net!r} leaves the surface")
                break
        for cell in layout.cells:
            if crosses_cell(cell, wire.seg):
                violations.append(f"wire {wire.seg} of {wire.net!r} crosses cell {cell.name!r}")
    return violations


def scalar_validate_layout(
    layout: Layout, *, min_separation: int = 1, allow_polygon_cells: bool = True
) -> None:
    cells = layout.cells
    for cell in cells:
        if not allow_polygon_cells and not cell.is_rectangular:
            raise ValidationError(
                f"cell {cell.name!r} is polygonal but rectangular cells were required"
            )
        if not layout.outline.contains_rect(cell.bounding_box):
            raise ValidationError(f"cell {cell.name!r} extends outside the routing surface")

    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            a, b = cells[i], cells[j]
            gap = a.bounding_box.separation(b.bounding_box)
            if gap < min_separation:
                raise ValidationError(
                    f"cells {a.name!r} and {b.name!r} are {gap} apart; "
                    f"placement requires separation >= {min_separation}"
                )

    for net in layout.nets:
        for terminal in net.terminals:
            for pin in terminal.pins:
                where = f"pin {pin.name!r} of net {net.name!r}"
                if not layout.outline.contains_point(pin.location):
                    raise ValidationError(f"{where} lies outside the routing surface")
                if pin.cell is not None:
                    cell = layout.cell(pin.cell)
                    if not cell.on_boundary(pin.location):
                        raise ValidationError(
                            f"{where} is not on the boundary of its cell {pin.cell!r}"
                        )
                for cell in layout.cells:
                    if cell.contains_point(pin.location, strict=True):
                        raise ValidationError(
                            f"{where} is strictly inside cell {cell.name!r} and unreachable"
                        )


def scalar_min_cell_separation(layout: Layout) -> Optional[int]:
    boxes = [cell.bounding_box for cell in layout.cells]
    if len(boxes) < 2:
        return None
    return min(
        boxes[i].separation(boxes[j])
        for i in range(len(boxes))
        for j in range(i + 1, len(boxes))
    )


def message(check, *args, **kwargs) -> Optional[str]:
    """The ValidationError message *check* raises, or None."""
    try:
        check(*args, **kwargs)
    except ValidationError as exc:
        return str(exc)
    return None


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def l_macro(name: str, x: int, y: int, size: int, notch: int) -> Cell:
    """An L-shaped cell with a notch cut from its top-right."""
    arm = size - notch
    return Cell(
        name,
        OrthoPolygon(
            [
                Point(x, y),
                Point(x + size, y),
                Point(x + size, y + arm),
                Point(x + arm, y + arm),
                Point(x + arm, y + size),
                Point(x, y + size),
            ]
        ),
    )


@st.composite
def cells(draw, name: str) -> Cell:
    """A rect or an L-shaped cell on the coarse grid; cells may overlap."""
    if draw(st.booleans()):
        size = draw(st.sampled_from((10, 15, 20)))
        notch = draw(st.sampled_from([n for n in (5, 10) if n < size]))
        x = draw(st.sampled_from([g for g in GRID if g + size <= SIZE]))
        y = draw(st.sampled_from([g for g in GRID if g + size <= SIZE]))
        return l_macro(name, x, y, size, notch)
    x0, x1 = sorted(draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=2, unique=True)))
    return Cell(name, Rect(x0, y0, x1, y1))


#: Vertex lists of orthogonal polygon families beyond the L, in units
#: of drawn widths; each takes the draw's positive dimensions a..f.
POLYGON_FAMILIES = {
    # A bar of width c + a + e on a stem of width a.
    "T": lambda a, b, c, d, e, f: [
        (c, 0), (c + a, 0), (c + a, b), (c + a + e, b), (c + a + e, b + d),
        (0, b + d), (0, b), (c, b),
    ],
    # Two prongs of widths a and c over a base of height b.
    "U": lambda a, b, c, d, e, f: [
        (0, 0), (a + e + c, 0), (a + e + c, b + d), (a + e, b + d), (a + e, b),
        (a, b), (a, b + d), (0, b + d),
    ],
    # A centre square a x b with arms c, e (x) and d, f (y).
    "plus": lambda a, b, c, d, e, f: [
        (c, 0), (c + a, 0), (c + a, d), (c + a + e, d), (c + a + e, d + b),
        (c + a, d + b), (c + a, d + b + f), (c, d + b + f), (c, d + b), (0, d + b),
        (0, d), (c, d),
    ],
    # Three steps, each narrower than the one below.
    "staircase": lambda a, b, c, d, e, f: [
        (0, 0), (a + c + e, 0), (a + c + e, b), (a + c, b), (a + c, b + d), (a, b + d),
        (a, b + d + f), (0, b + d + f),
    ],
}


@st.composite
def polygons(draw) -> OrthoPolygon:
    """A T, U, plus or staircase polygon, reflected or transposed at
    random, with even coordinates so every slab has interior points."""
    family = POLYGON_FAMILIES[draw(st.sampled_from(sorted(POLYGON_FAMILIES)))]
    corners = family(*draw(st.lists(st.integers(1, 4), min_size=6, max_size=6)))
    flip_x, flip_y, transpose = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    points = []
    for x, y in corners:
        x, y = (-x if flip_x else x), (-y if flip_y else y)
        points.append(Point(2 * y, 2 * x) if transpose else Point(2 * x, 2 * y))
    return OrthoPolygon(points)


@st.composite
def layouts(draw, spaced: bool = False) -> Layout:
    """Up to seven cells; one may carry the boundary's pseudo name.

    With *spaced*, a drawn cell closer than 1 to a placed one is
    skipped, so validation gets past the separation check.
    """
    count = draw(st.integers(min_value=0, max_value=7))
    names = [f"c{i}" for i in range(count)]
    if names and draw(st.booleans()):
        names[draw(st.integers(0, count - 1))] = BOUNDARY
    layout = Layout(Rect(0, 0, SIZE, SIZE))
    for name in names:
        cell = draw(cells(name))
        box = cell.bounding_box
        if spaced and any(box.separation(c.bounding_box) < 1 for c in layout.cells):
            continue
        layout.add_cell(cell)
    return layout


def points(coords=WIRE):
    return st.builds(Point, st.sampled_from(coords), st.sampled_from(coords))


@st.composite
def polylines(draw, coords=WIRE) -> RoutePath:
    """A rectilinear path: one point, or alternating x and y moves."""
    start = draw(points(coords))
    pts = [start]
    for k in range(draw(st.integers(min_value=0, max_value=4))):
        last = pts[-1]
        coord = draw(st.sampled_from(coords))
        pts.append(Point(coord, last.y) if k % 2 == 0 else Point(last.x, coord))
    return RoutePath(tuple(pts))


@st.composite
def pins(draw, layout: Layout, name: str, coords=None) -> Pin:
    """A pad pin anywhere on or off the grid (or on *coords*), or a pin
    on a cell's outline.

    A pin on an outline claims that cell or, sometimes, another one.  A
    pad may fall strictly inside a cell, or in a polygon's notch, which
    is inside the cell's bounding box but outside the cell.
    """
    names = [cell.name for cell in layout.cells]
    if names and draw(st.booleans()):
        cell = draw(st.sampled_from(layout.cells))
        edge = draw(st.sampled_from(cell.shape.edges))
        middle = Point((edge.a.x + edge.b.x) // 2, (edge.a.y + edge.b.y) // 2)
        location = draw(st.sampled_from((edge.a, edge.b, middle)))
        owner = cell.name if draw(st.booleans()) else draw(st.sampled_from(names))
        return Pin(name, location, owner)
    return Pin(name, draw(points(coords or (WIRE if draw(st.booleans()) else GRID))))


@st.composite
def netlists(draw, layout: Layout, max_nets: int = 3, coords=None) -> list[Net]:
    """One to *max_nets* nets of two or three terminals of one or two pins."""
    nets = []
    for n in range(draw(st.integers(min_value=1, max_value=max_nets))):
        terminals = []
        for t in range(draw(st.integers(min_value=2, max_value=3))):
            count = draw(st.integers(min_value=1, max_value=2))
            members = [draw(pins(layout, f"n{n}.t{t}.p{p}", coords)) for p in range(count)]
            terminals.append(Terminal(f"n{n}.t{t}", members))
        nets.append(Net(f"n{n}", terminals))
    return nets


@st.composite
def routed(draw, coords=None, shared=False):
    """A layout with nets and hand-drawn trees: wires cross cells, leave
    the surface, dangle, or skip terminals (truncated trees).

    With *coords* (:data:`LIMIT`), cells, pins and wires sit at the
    ``±2**62`` limit.  With *shared*, every tree claims all its
    terminals and draws its paths from one pool, so the nets' wires
    overlap and touch each other's pins.
    """
    layout = draw(limit_layouts() if coords else layouts())
    for net in draw(netlists(layout, coords=coords)):
        layout.add_net(net)
    wires = polylines(coords or WIRE)
    if shared:
        wires = st.sampled_from(draw(st.lists(wires, min_size=1, max_size=5)))
    route = GlobalRoute()
    for net in layout.nets:
        names = [t.name for t in net.terminals]
        claimed = draw(st.lists(st.sampled_from(names), max_size=len(names), unique=True))
        if shared or draw(st.booleans()):
            claimed = names
        paths = draw(st.lists(wires, max_size=4))
        route.trees[net.name] = RouteTree(net.name, paths, claimed)
    return layout, route


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
class TestPolygonBlocking:
    """A polygon cell's blocking rects cover its open interior exactly."""

    @given(polygons())
    @settings(max_examples=200, deadline=None)
    def test_blocking_rects_cover_the_open_interior(self, polygon):
        rects = Cell("p", polygon).blocking_rects
        box = polygon.bounding_box
        for x in range(box.x0, box.x1 + 1):
            for y in range(box.y0, box.y1 + 1):
                point = Point(x, y)
                blocked = any(r.x0 < x < r.x1 and r.y0 < y < r.y1 for r in rects)
                assert blocked == polygon.contains_point(point, strict=True), point
        slabs = polygon.to_rects()
        assert rects[: len(slabs)] == tuple(slabs)
        assert {r.x0 for r in rects} | {r.x1 for r in rects} <= (
            {r.x0 for r in slabs} | {r.x1 for r in slabs}
        )
        assert {r.y0 for r in rects} | {r.y1 for r in rects} <= (
            {r.y0 for r in slabs} | {r.y1 for r in slabs}
        )


class TestPassageParity:
    @given(layouts(), st.sampled_from([None, 1, 2, 3, 4, 5, 6]))
    @settings(max_examples=150, deadline=None)
    def test_same_passages_in_the_same_order(self, layout, max_gap):
        assert find_passages(layout, max_gap=max_gap) == scalar_find_passages(
            layout, max_gap=max_gap
        )

    @given(routed())
    @settings(max_examples=80, deadline=None)
    def test_same_nets_per_passage(self, case):
        layout, route = case
        passages = find_passages(layout)
        measured = measure_congestion(passages, route)
        assert [e.passage for e in measured.entries] == passages
        assert [e.nets for e in measured.entries] == scalar_measure_congestion(
            passages, route
        )


class TestVerifyParity:
    @given(routed())
    @settings(max_examples=120, deadline=None)
    def test_same_violations_per_net(self, case):
        layout, route = case
        assert verify_global_route(route, layout) == scalar_verify_global_route(
            route, layout
        )
        for name, tree in route.trees.items():
            net = layout.net(name)
            assert verify_route_tree(tree, net, layout) == scalar_verify_route_tree(
                tree, net, layout
            )
            for path in tree.paths:
                assert verify_path(path, layout) == scalar_verify_path(path, layout)

    @given(st.integers(min_value=0, max_value=10_000), st.data())
    @settings(max_examples=25, deadline=None)
    def test_corrupted_real_routes(self, seed, data):
        """A clean route, then injected crossings, escapes and truncation."""
        layout = generate(LayoutSpec(n_cells=5, n_nets=4, terminals_per_net=(2, 3)), seed)
        route = GlobalRouter(layout).route_all()
        assert verify_global_route(route, layout) == {}
        for tree in route.trees.values():
            if tree.paths and data.draw(st.booleans()):
                tree.paths[data.draw(st.integers(0, len(tree.paths) - 1))] = data.draw(
                    polylines()
                )
            if tree.connected_terminals and data.draw(st.booleans()):
                tree.connected_terminals.pop()
        assert verify_global_route(route, layout) == scalar_verify_global_route(route, layout)
        detailed = DetailedRouter(layout).run(route)
        assert verify_detailed(detailed, layout) == scalar_verify_detailed(detailed, layout)

    @given(routed(shared=True))
    @settings(max_examples=100, deadline=None)
    def test_nets_are_judged_apart(self, case):
        """Wires drawn from one pool overlap across nets; each net is
        still judged on its own wires and pins alone."""
        layout, route = case
        report = verify_global_route(route, layout)
        assert report == scalar_verify_global_route(route, layout)
        for name, tree in route.trees.items():
            assert report.get(name, []) == verify_route_tree(tree, layout.net(name), layout)

    def test_touching_nets_do_not_join(self):
        """Net b's two wires end on net a's wire and net c's pins sit on
        it, yet a's wire joins neither net."""
        layout = Layout(Rect(0, 0, 40, 40))
        for net in (
            Net.two_point("a", Point(0, 0), Point(20, 0)),
            Net.two_point("b", Point(0, 10), Point(20, 10)),
            Net.two_point("c", Point(5, 0), Point(15, 0)),
        ):
            layout.add_net(net)
        route = GlobalRoute()
        route.trees["a"] = RouteTree("a", [RoutePath((Point(0, 0), Point(20, 0)))], ["a.s", "a.d"])
        route.trees["b"] = RouteTree(
            "b",
            [RoutePath((Point(0, 10), Point(0, 0))), RoutePath((Point(20, 0), Point(20, 10)))],
            ["b.s", "b.d"],
        )
        route.trees["c"] = RouteTree("c", [], ["c.s", "c.d"])
        expected = {
            name: [f"net {name!r}: terminal '{name}.d' not electrically connected to the tree"]
            for name in ("b", "c")
        }
        assert verify_global_route(route, layout) == expected
        assert scalar_verify_global_route(route, layout) == expected

    @given(routed(coords=LIMIT))
    @settings(max_examples=100, deadline=None)
    def test_the_coordinate_limit(self, case):
        """Cells, pins and wires at ``±2**62``: no key of the sweep overflows."""
        layout, route = case
        assert verify_global_route(route, layout) == scalar_verify_global_route(route, layout)
        for tree in route.trees.values():
            for path in tree.paths:
                assert verify_path(path, layout) == scalar_verify_path(path, layout)

    BROKEN = {
        # A three-terminal net whose wire reaches only two terminals.
        "disconnected terminal": (
            [RoutePath((Point(0, 0), Point(20, 0)))],
            ["net 'n': terminal 'n.t2' not electrically connected to the tree"],
        ),
        # The wires reach every terminal; t0's second pin dangles off-tree.
        "dangling extra pin": (
            [RoutePath((Point(0, 0), Point(20, 0))), RoutePath((Point(20, 0), Point(20, 20)))],
            [],
        ),
        # A zero-length connection at a point inside the cell.
        "hop-less point in a cell": (
            [
                RoutePath((Point(0, 0), Point(20, 0), Point(20, 20))),
                RoutePath((Point(30, 30),)),
            ],
            ["point (30, 30) inside cell 'c'"],
        ),
    }

    @pytest.mark.parametrize("case", sorted(BROKEN))
    def test_broken_trees(self, case):
        paths, expected = self.BROKEN[case]
        layout = Layout(Rect(0, 0, 60, 60))
        layout.add_cell(Cell("c", Rect(25, 25, 35, 35)))
        layout.add_net(
            Net(
                "n",
                [
                    Terminal("n.t0", [Pin("p0", Point(0, 0)), Pin("p1", Point(50, 50))]),
                    Terminal.single("n.t1", Point(20, 0)),
                    Terminal.single("n.t2", Point(20, 20)),
                ],
            )
        )
        route = GlobalRoute({"n": RouteTree("n", paths, ["n.t0", "n.t1", "n.t2"])})
        report = {"n": expected} if expected else {}
        assert verify_global_route(route, layout) == report
        assert scalar_verify_global_route(route, layout) == report

    def test_empty_routes(self):
        """No trees, and trees without paths: only their pins can join."""
        layout = Layout(Rect(0, 0, 40, 40))
        assert verify_global_route(GlobalRoute(), layout) == {}
        layout.add_net(Net.two_point("apart", Point(0, 0), Point(10, 0)))
        layout.add_net(Net.two_point("stacked", Point(5, 5), Point(5, 5)))
        layout.add_net(Net.two_point("unclaimed", Point(0, 0), Point(10, 0)))
        route = GlobalRoute(
            {
                "apart": RouteTree("apart", [], ["apart.s", "apart.d"]),
                "stacked": RouteTree("stacked", [], ["stacked.s", "stacked.d"]),
                "unclaimed": RouteTree("unclaimed"),
            }
        )
        expected = {
            "apart": ["net 'apart': terminal 'apart.d' not electrically connected to the tree"],
            "unclaimed": [
                "net 'unclaimed': terminals never connected: ['unclaimed.d', 'unclaimed.s']"
            ],
        }
        assert verify_global_route(route, layout) == expected
        assert scalar_verify_global_route(route, layout) == expected

    def test_perfbench_first_pass_routes(self):
        """The 60 seed-1 layouts of perfbench's ``first-pass`` workload
        (its ``first_pass_requests``: the same spec, seeds and skips),
        routed by the ``single`` strategy, global and detailed."""
        spec = LayoutSpec(
            n_cells=12, n_nets=40, cell_min=14, cell_max=18,
            terminals_per_net=(2, 4), density=0.4,
        )
        rng = random.Random("first-pass:1")
        routed_layouts = 0
        while routed_layouts < 60:
            try:
                layout = random_layout(spec, seed=rng.randrange(2**31))
            except LayoutError:
                continue
            routed_layouts += 1
            route = GlobalRouter(layout).route_all()
            assert verify_global_route(route, layout) == scalar_verify_global_route(route, layout)
            detailed = DetailedRouter(layout).run(route)
            assert verify_detailed(detailed, layout) == scalar_verify_detailed(detailed, layout)


class TestValidateParity:
    @given(
        st.data(), st.integers(min_value=1, max_value=6), st.sampled_from((True, True, False))
    )
    @settings(max_examples=200, deadline=None)
    def test_same_first_error(self, data, min_separation, polygons):
        layout = data.draw(layouts(spaced=data.draw(st.booleans())))
        for net in data.draw(netlists(layout)):
            layout.add_net(net)
        knobs = {"min_separation": min_separation, "allow_polygon_cells": polygons}
        assert message(validate_layout, layout, **knobs) == message(
            scalar_validate_layout, layout, **knobs
        )
        assert layout.min_cell_separation() == scalar_min_cell_separation(layout)
