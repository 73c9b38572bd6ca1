"""Independent route validity checking.

These checkers share no code with the routers' own legality logic
beyond the geometry primitives, so a router bug cannot hide behind its
own definition of legality.  A route is checked in one pass over one
int64 table of every path's :attr:`~repro.core.route.RoutePath.hops`
(a hop-less path as its point) with a tree-id column: containment in
the surface is one broadcast, crossing a cell another.  Connectivity
adds every terminal pin, finds the touching pairs by one sort-and-sweep
keyed by (tree, x), and labels components by one union-find over them.
Messages are worded only for the trees that hold a flagged element.
All checkers return a list of violation strings (empty = valid);
`strict=True` raises instead.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import RoutingError
from repro.core.route import GlobalRoute, RoutePath, RouteTree
from repro.detail.detailed import DetailedResult
from repro.geometry.rect import Rect
from repro.geometry.segment import segment_rows
from repro.layout.layout import Layout
from repro.layout.net import Net

#: Segments x rects booleans in one chunk of the crossing broadcast.
_CHUNK = 1 << 18


class _Blockers:
    """Every cell's blocking rects as int64 columns, in cell order, then
    ``blocking_rects`` order; ``cell`` is each row's cell index.  Built
    from the cells alone, never from a router's obstacle view."""

    def __init__(self, layout: Layout):
        self.names = [cell.name for cell in layout.cells]
        rects = [
            (index, rect.x0, rect.y0, rect.x1, rect.y1)
            for index, cell in enumerate(layout.cells)
            for rect in cell.blocking_rects
        ]
        self.cell, self.x0, self.y0, self.x1, self.y1 = (
            np.array(rects, dtype=np.int64).reshape(-1, 5).T
        )

    def crossed(self, rows: np.ndarray) -> dict[int, list[str]]:
        """Per ``(4, n)`` int64 ``horizontal, track, lo, hi`` row that
        enters a cell's open interior, the cells it enters, each once, in
        table order: ``rect.segment_crosses_interior`` broadcast.  A
        horizontal row (a degenerate one too: strict point containment)
        runs strictly between a rect's bottom and top and overlaps its x
        span with positive length; a vertical one, the transpose."""
        crossed: dict[int, list[str]] = {}
        step = max(1, _CHUNK // max(1, self.cell.size))
        for start in range(0, rows.shape[1], step):
            chunk = rows[:, start : start + step]
            horizontal, track, lo, hi = (column[:, None] for column in chunk)
            hit = np.where(
                horizontal == 1,
                (self.y0 < track) & (track < self.y1) & (lo < self.x1) & (self.x0 < hi),
                (self.x0 < track) & (track < self.x1) & (lo < self.y1) & (self.y0 < hi),
            )
            # Hits come row by row in table order, so a row's hits on
            # one cell's rects (a polygon's slabs and seams) are adjacent.
            row, cell = np.nonzero(hit)
            cell = self.cell[cell]
            first = np.ones(row.size, dtype=bool)
            first[1:] = (row[1:] != row[:-1]) | (cell[1:] != cell[:-1])
            for r, c in zip((row[first] + start).tolist(), cell[first].tolist()):
                crossed.setdefault(r, []).append(self.names[c])
        return crossed


def _boxes(rows: np.ndarray) -> np.ndarray:
    """Hop rows as closed boxes ``x0, y0, x1, y1``: a horizontal row
    spans ``[lo, hi]`` at ``y = track``; a vertical one, the transpose."""
    return np.where(rows[0] == 1, rows[[2, 1, 3, 1]], rows[[1, 2, 1, 3]])


def _outside(boxes: np.ndarray, outline: Rect) -> np.ndarray:
    """Per box, whether one of its corners leaves the closed *outline*."""
    x0, y0, x1, y1 = boxes
    return (x0 < outline.x0) | (y0 < outline.y0) | (outline.x1 < x1) | (outline.y1 < y1)


def _touching(boxes: np.ndarray, group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair ``(i, j)`` of closed boxes of one group that share a
    point, by one sort-and-sweep over boxes keyed by (group, x0): a
    box's candidates follow it in key order up to its x1, and are kept
    on y overlap.  x is rank-compressed first, so the keys fit int64."""
    x0, y0, x1, y1 = boxes
    count = x0.size
    values, ranks = np.unique(np.concatenate([x0, x1]), return_inverse=True)
    start = group * values.size + ranks[:count]
    order = np.argsort(start, kind="stable")
    stop = (group * values.size + ranks[count:])[order]
    window = np.searchsorted(start[order], stop, side="right") - np.arange(1, count + 1)
    first = np.repeat(np.arange(count), window)
    offset = np.arange(first.size) - np.repeat(np.cumsum(window) - window, window)
    i, j = order[first], order[first + 1 + offset]
    keep = (y0[i] <= y1[j]) & (y0[j] <= y1[i])
    return i[keep], j[keep]


def _components(label: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Union-find over the pairs ``(i, j)`` from the parents *label*, a
    forest of stars with each parent at most its child: each round hooks
    the larger root of every pair across two components under the
    smaller, then jumps pointers until each element points at its root."""
    while (apart := label[i] != label[j]).any():
        li, lj = label[i][apart], label[j][apart]
        np.minimum.at(label, np.maximum(li, lj), np.minimum(li, lj))
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    return label


def _violations(
    trees: Sequence[tuple[RouteTree, Optional[Net]]], layout: Layout
) -> list[list[str]]:
    """Per ``(tree, net)``: path by path, the points off the surface and
    the cells its hops cross or its hop-less point sits in; then, with a
    *net*, the terminals not claimed or, if all are, not joined."""
    tables, ends = [np.empty((4, 0), dtype=np.int64)], [0]
    dangling: list[int] = []  # rows of a repeated point: no element
    tail: dict[int, list[str]] = {}  # per tree, its net's messages
    pins: list[int] = []  # per pin of a fully claimed net: x, y, tree, terminal
    terminals: list[tuple[int, str, int]] = []  # tree, name, first terminal
    for t, (tree, net) in enumerate(trees):
        ends.append(ends[-1])
        for path in tree.paths:
            hops = path.hops
            if not hops.size:
                point = path.start
                hops = np.array([[1], [point.y], [point.x], [point.x]], dtype=np.int64)
                if len(path.points) > 1:
                    dangling.append(ends[-1])
            tables.append(hops)
            ends[-1] += hops.shape[1]
        if net is None:
            continue
        names = {terminal.name for terminal in net.terminals}
        claimed = set(tree.connected_terminals)
        if claimed != names:
            tail[t] = [f"net {net.name!r}: terminals never connected: {sorted(names - claimed)}"]
            continue
        anchor = len(terminals)
        for terminal in net.terminals:
            for pin in terminal.pins:
                pins += (pin.location.x, pin.location.y, t, len(terminals))
            terminals.append((t, terminal.name, anchor))
    rows = np.concatenate(tables, axis=1)
    tree_of = np.repeat(np.arange(len(trees)), np.diff(ends))
    boxes = _boxes(rows)
    crossed = _Blockers(layout).crossed(rows)

    # A fully claimed tree's elements (its rows, its net's pins) join
    # when they share a point.  Pins of one terminal are one through
    # their cell ("logically grouped"), so extra pins may dangle off the
    # tree.  Every terminal must lie in the first terminal's component.
    if terminals:
        keep = np.isin(tree_of, [t for t, _, _ in terminals])
        keep[dangling] = False
        base = np.count_nonzero(keep)
        x, y, pin_tree, pin_terminal = np.array(pins, dtype=np.int64).reshape(-1, 4).T
        heads = base + np.searchsorted(pin_terminal, np.arange(len(terminals)))
        touching = _touching(
            np.concatenate([boxes[:, keep], [x, y, x, y]], axis=1),
            np.concatenate([tree_of[keep], pin_tree]),
        )
        # Each pin starts under its terminal's first pin.
        label = _components(np.concatenate([np.arange(base), heads[pin_terminal]]), *touching)
        anchors = heads[[anchor for _, _, anchor in terminals]]
        for k in np.flatnonzero(label[heads] != label[anchors]).tolist():
            t, name, _ = terminals[k]
            message = f"terminal {name!r} not electrically connected to the tree"
            tail.setdefault(t, []).append(f"net {trees[t][1].name!r}: {message}")

    report: list[list[str]] = [[] for _ in trees]
    outside = tree_of[_outside(boxes, layout.outline)].tolist()
    for t in sorted(set(tail).union(outside, tree_of[list(crossed)].tolist())):
        row = ends[t]
        for path in trees[t][0].paths:
            report[t] += [
                f"point {point} outside routing surface"
                for point in path.points
                if not layout.outline.contains_point(point)
            ]
            segments = [f"segment {segment} crosses cell" for segment in path.segments]
            for place in segments or [f"point {path.start} inside cell"]:
                report[t] += [f"{place} {name!r}" for name in crossed.get(row, ())]
                row += 1
        report[t] += tail.get(t, [])
    return report


def verify_path(path: RoutePath, layout: Layout) -> list[str]:
    """Check one connection path: inside the surface, outside cells; a
    hop-less path (one point, perhaps repeated) must not sit in a cell."""
    return _violations([(RouteTree("", [path]), None)], layout)[0]


def verify_route_tree(tree: RouteTree, net: Net, layout: Layout) -> list[str]:
    """Check a routed net: geometry legality plus full connectivity,
    established independently: every terminal must have a pin in the
    one connected component of the tree's segments and points."""
    return _violations([(tree, net)], layout)[0]


def verify_global_route(
    route: GlobalRoute, layout: Layout, *, strict: bool = False
) -> dict[str, list[str]]:
    """Check every routed net; returns violations per net name.  With
    ``strict=True`` raises :class:`RoutingError` on the first violating net."""
    trees = [(tree, layout.net(name)) for name, tree in route.trees.items()]
    found = zip(route.trees, _violations(trees, layout))
    report = {name: violations for name, violations in found if violations}
    if strict and report:
        name, violations = next(iter(report.items()))
        raise RoutingError(f"invalid route for net {name!r}: {violations[0]}")
    return report


def detailed_violations(result: DetailedResult, layout: Layout) -> list[tuple[str, str]]:
    """``(net name, message)`` for every illegal detailed wire, in wire order.

    Overlap conflicts are already on the result; this adds what the
    corridor logic must guarantee, each one broadcast over every wire:
    inside the surface, outside cell interiors."""
    wires = result.layers.wires
    rows = segment_rows([wire.seg for wire in wires])
    outside = _outside(_boxes(rows), layout.outline)
    crossed = _Blockers(layout).crossed(rows)
    violations: list[tuple[str, str]] = []
    for index in sorted(set(np.flatnonzero(outside).tolist()) | set(crossed)):
        wire = wires[index]
        findings = ["leaves the surface"] if outside[index] else []
        findings += [f"crosses cell {name!r}" for name in crossed.get(index, ())]
        violations += [(wire.net, f"wire {wire.seg} of {wire.net!r} {f}") for f in findings]
    return violations


def verify_detailed(result: DetailedResult, layout: Layout) -> list[str]:
    """Check detailed wires: the messages of :func:`detailed_violations`."""
    return [message for _, message in detailed_violations(result, layout)]


def assert_optimal_length(path: RoutePath, expected: int) -> None:
    """Test helper: path length must equal the oracle's *expected*.

    Raises :class:`RoutingError` on mismatch with both values in the
    message (used by the admissibility experiment).
    """
    if path.length != expected:
        raise RoutingError(f"path length {path.length} != oracle optimum {expected}")
