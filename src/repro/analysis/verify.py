"""Independent route validity checking.

These checkers share no code with the routers' own legality logic
beyond the geometry primitives, so a router bug cannot hide behind its
own definition of legality.  A route is read through each path's
:attr:`~repro.core.route.RoutePath.hops`, its one integer form; a
``Segment`` is built only to word a violation.  All checkers return a
list of violation strings (empty = valid); `strict=True` raises
instead.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import RoutingError
from repro.core.route import GlobalRoute, RoutePath, RouteTree
from repro.detail.detailed import DetailedResult
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.segment import segment_rows
from repro.layout.layout import Layout
from repro.layout.net import Net

#: Segments x rects booleans in one chunk of the crossing broadcast.
_CHUNK = 1 << 18


class _Blockers:
    """Every cell's blocking rects as int64 columns, read off the layout.

    Rows run in cell order, then in each cell's ``blocking_rects``
    order; ``owners`` names each row's cell.  One table serves a whole
    check, and it is built from the cells alone, never from a router's
    obstacle view.
    """

    def __init__(self, layout: Layout):
        self.owners: list[str] = []
        rows: list[tuple[int, int, int, int]] = []
        for cell in layout.cells:
            for rect in cell.blocking_rects:
                self.owners.append(cell.name)
                rows.append((rect.x0, rect.y0, rect.x1, rect.y1))
        self.x0, self.y0, self.x1, self.y1 = np.array(rows, dtype=np.int64).reshape(-1, 4).T

    def crossed(self, rows: np.ndarray) -> list[list[str]]:
        """Per hop row, the owner of each rect whose open interior it enters.

        *rows* are ``(4, n)`` int64 ``horizontal, track, lo, hi`` rows
        (:attr:`RoutePath.hops`, or ``segment_rows`` of segments).  The
        broadcast form of ``rect.segment_crosses_interior(seg)`` over
        every rect, in table order: a horizontal row (a degenerate one
        counts as horizontal, which makes the test strict point
        containment) must run strictly between the rect's bottom and
        top and overlap its x span with positive length; a vertical
        one, the transpose.
        """
        count = rows.shape[1]
        crossed: list[list[str]] = [[] for _ in range(count)]
        if not count or not self.owners:
            return crossed
        step = max(1, _CHUNK // len(self.owners))
        for start in range(0, count, step):
            chunk = rows[:, start : start + step]
            horizontal, track, lo, hi = (column[:, None] for column in chunk)
            hit = np.where(
                horizontal == 1,
                (self.y0 < track) & (track < self.y1) & (lo < self.x1) & (self.x0 < hi),
                (self.x0 < track) & (track < self.x1) & (lo < self.y1) & (self.y0 < hi),
            )
            for row, col in zip(*(index.tolist() for index in np.nonzero(hit))):
                crossed[start + row].append(self.owners[col])
        return crossed


def verify_path(path: RoutePath, layout: Layout) -> list[str]:
    """Check one connection path: inside the surface, outside cells.

    A path with hops must not cross a cell's interior; a path without
    any (a single point, perhaps repeated) must not sit inside one.
    """
    return _path_violations([path], layout.outline, _Blockers(layout))


def _path_violations(
    paths: Sequence[RoutePath], outline: Rect, blockers: _Blockers
) -> list[str]:
    """:func:`verify_path` over *paths*, in order, with one containment
    and one crossing broadcast.

    The crossing table holds each path's :attr:`~RoutePath.hops`, or,
    for a path without hops, its point as one degenerate row.
    """
    if not paths:
        return []
    x, y = np.array([(p.x, p.y) for path in paths for p in path.points], dtype=np.int64).T
    inside = iter(
        ((outline.x0 <= x) & (x <= outline.x1) & (outline.y0 <= y) & (y <= outline.y1)).tolist()
    )
    tables = [path.hops if path.hops.size else _point_rows([path.start]) for path in paths]
    crossed = iter(blockers.crossed(np.concatenate(tables, axis=1)))
    violations: list[str] = []
    for path in paths:
        for point in path.points:
            if not next(inside):
                violations.append(f"point {point} outside routing surface")
        if not path.hops.size:
            violations.extend(f"point {path.start} inside cell {name!r}" for name in next(crossed))
        for index in range(path.hops.shape[1]):
            violations.extend(
                f"segment {path.segments[index]} crosses cell {name!r}" for name in next(crossed)
            )
    return violations


def _point_rows(points: Sequence[Point]) -> np.ndarray:
    """*points* as degenerate (horizontal) hop rows, which
    :meth:`_Blockers.crossed` tests as strict containment."""
    return np.array([(1, p.y, p.x, p.x) for p in points], dtype=np.int64).reshape(-1, 4).T


def verify_route_tree(tree: RouteTree, net: Net, layout: Layout) -> list[str]:
    """Check a routed net: geometry legality plus full connectivity.

    Connectivity is established independently: every terminal must have
    at least one pin in the single connected component formed by the
    tree's segments and points.
    """
    return _tree_violations(tree, net, layout.outline, _Blockers(layout))


def _tree_violations(
    tree: RouteTree, net: Net, outline: Rect, blockers: _Blockers
) -> list[str]:
    """:func:`verify_route_tree` against a prebuilt blocker table."""
    violations = _path_violations(tree.paths, outline, blockers)

    if set(tree.connected_terminals) != {t.name for t in net.terminals}:
        missing = {t.name for t in net.terminals} - set(tree.connected_terminals)
        violations.append(f"net {net.name!r}: terminals never connected: {sorted(missing)}")
        return violations

    violations.extend(_connectivity_violations(tree, net))
    return violations


def _connectivity_violations(tree: RouteTree, net: Net) -> list[str]:
    """Union-find over tree geometry; every terminal must reach the root."""
    # Elements, each a closed box [x0, y0, x1, y1]: the tree's hops,
    # path by path, the bare point of every zero-length connection,
    # then every terminal pin, points as degenerate hops.  A horizontal
    # hop (horizontal, track, lo, hi) spans [lo, hi] at y = track; a
    # vertical one, the transpose.
    stubs = [path.points[0] for path in tree.paths if len(path.points) == 1]
    pins = [pin.location for terminal in net.terminals for pin in terminal.pins]
    hops = np.concatenate([path.hops for path in tree.paths] + [_point_rows(stubs + pins)], axis=1)
    boxes = np.where(hops[0] == 1, hops[[2, 1, 3, 1]], hops[[1, 2, 1, 3]])
    parent = list(range(boxes.shape[1]))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    # Two closed axis-parallel segments share a point exactly when
    # their (degenerate) boxes overlap, touching included.
    x0, y0, x1, y1 = (column[:, None] for column in boxes)
    touch = (x0 <= x1.T) & (x0.T <= x1) & (y0 <= y1.T) & (y0.T <= y1)
    for i, j in zip(*(index.tolist() for index in np.nonzero(np.triu(touch, 1)))):
        union(i, j)

    # Pins of one terminal are electrically equivalent through their
    # cell ("logically grouped"), so they join even without wire
    # geometry between them, and each terminal lies in one component.
    # (A terminal may have extra pins dangling off-tree, which is legal.)
    firsts: list[int] = []
    first = len(parent) - len(pins)
    for terminal in net.terminals:
        for pin in range(first + 1, first + len(terminal.pins)):
            union(first, pin)
        firsts.append(first)
        first += len(terminal.pins)

    # The first terminal's component is the tree; every terminal must
    # be in it.
    anchor = find(firsts[0])
    return [
        f"net {net.name!r}: terminal {terminal.name!r} not electrically connected to the tree"
        for terminal, first in zip(net.terminals, firsts)
        if find(first) != anchor
    ]


def verify_global_route(
    route: GlobalRoute, layout: Layout, *, strict: bool = False
) -> dict[str, list[str]]:
    """Check every routed net; returns violations per net name.

    With ``strict=True`` raises :class:`RoutingError` on the first
    violating net.
    """
    blockers = _Blockers(layout)
    report: dict[str, list[str]] = {}
    for name, tree in route.trees.items():
        violations = _tree_violations(tree, layout.net(name), layout.outline, blockers)
        if violations:
            report[name] = violations
    if strict and report:
        name, violations = next(iter(report.items()))
        raise RoutingError(f"invalid route for net {name!r}: {violations[0]}")
    return report


def detailed_violations(result: DetailedResult, layout: Layout) -> list[tuple[str, str]]:
    """``(net name, message)`` for every illegal detailed wire, in wire order.

    Same-layer overlap conflicts are already recorded on the result;
    this adds the geometric checks (wires inside the surface, outside
    cell interiors) that the channel corridor logic must guarantee.
    """
    wires = result.layers.wires
    crossed = _Blockers(layout).crossed(segment_rows([wire.seg for wire in wires]))
    violations: list[tuple[str, str]] = []
    for wire, owners in zip(wires, crossed):
        for endpoint in (wire.seg.a, wire.seg.b):
            if not layout.outline.contains_point(endpoint):
                violations.append(
                    (wire.net, f"wire {wire.seg} of {wire.net!r} leaves the surface")
                )
                break
        violations.extend(
            (wire.net, f"wire {wire.seg} of {wire.net!r} crosses cell {name!r}")
            for name in owners
        )
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
