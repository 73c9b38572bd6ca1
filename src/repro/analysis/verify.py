"""Independent route validity checking.

These checkers share no code with the routers' own legality logic
beyond the geometry primitives, so a router bug cannot hide behind its
own definition of legality.  All checkers return a list of violation
strings (empty = valid); `strict=True` raises instead.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import RoutingError
from repro.core.route import GlobalRoute, RoutePath, RouteTree
from repro.detail.detailed import DetailedResult
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment
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

    def crossed(self, segments: Sequence[Segment]) -> list[list[str]]:
        """Per segment, the owner of each rect whose open interior it enters.

        The broadcast form of ``rect.segment_crosses_interior(seg)``
        over every rect, in table order.  A horizontal segment (a
        degenerate one counts as horizontal, which makes the test
        strict point containment) must run strictly between the rect's
        bottom and top and overlap its x span with positive length; a
        vertical one, the transpose.
        """
        crossed: list[list[str]] = [[] for _ in segments]
        if not segments or not self.owners:
            return crossed
        # Segments are normalized a <= b, so a holds the low end.
        ends = np.array([(s.a.x, s.a.y, s.b.x, s.b.y) for s in segments], dtype=np.int64)
        step = max(1, _CHUNK // len(self.owners))
        for start in range(0, len(segments), step):
            ax, ay, bx, by = (column[:, None] for column in ends[start : start + step].T)
            hit = np.where(
                ay == by,
                (self.y0 < ay) & (ay < self.y1) & (ax < self.x1) & (self.x0 < bx),
                (self.x0 < ax) & (ax < self.x1) & (ay < self.y1) & (self.y0 < by),
            )
            for row, col in zip(*(index.tolist() for index in np.nonzero(hit))):
                crossed[start + row].append(self.owners[col])
        return crossed


def verify_path(path: RoutePath, layout: Layout) -> list[str]:
    """Check one connection path: inside the surface, outside cells."""
    return _path_violations([path], [path.segments], layout.outline, _Blockers(layout))


def _path_violations(
    paths: Sequence[RoutePath],
    segments: Sequence[Sequence[Segment]],
    outline: Rect,
    blockers: _Blockers,
) -> list[str]:
    """:func:`verify_path` over *paths* (whose ``segments`` are given),
    in order, with one containment and one crossing broadcast."""
    xy = np.array([(p.x, p.y) for path in paths for p in path.points], dtype=np.int64)
    x, y = xy.reshape(-1, 2).T
    inside = iter(
        ((outline.x0 <= x) & (x <= outline.x1) & (outline.y0 <= y) & (y <= outline.y1)).tolist()
    )
    crossed = iter(blockers.crossed([seg for segs in segments for seg in segs]))
    violations: list[str] = []
    for path, segs in zip(paths, segments):
        for point in path.points:
            if not next(inside):
                violations.append(f"point {point} outside routing surface")
        for seg in segs:
            violations.extend(f"segment {seg} crosses cell {name!r}" for name in next(crossed))
    return violations


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
    segments = [path.segments for path in tree.paths]
    violations = _path_violations(tree.paths, segments, outline, blockers)

    if set(tree.connected_terminals) != {t.name for t in net.terminals}:
        missing = {t.name for t in net.terminals} - set(tree.connected_terminals)
        violations.append(f"net {net.name!r}: terminals never connected: {sorted(missing)}")
        return violations

    violations.extend(_connectivity_violations(tree, net, segments))
    return violations


def _connectivity_violations(
    tree: RouteTree, net: Net, segments: Sequence[Sequence[Segment]]
) -> list[str]:
    """Union-find over tree geometry; every terminal must reach the root."""
    # Elements, each a closed box [x0, y0, x1, y1]: the tree's
    # segments (*segments*, per path), the bare point of every
    # zero-length connection, then every terminal pin.
    rows = [(s.a.x, s.a.y, s.b.x, s.b.y) for segs in segments for s in segs]
    stubs = [path.points[0] for path in tree.paths if len(path.points) == 1]
    rows += [(p.x, p.y, p.x, p.y) for p in stubs]
    pin_elements: dict[str, list[int]] = {}
    for terminal in net.terminals:
        indices: list[int] = []
        for pin in terminal.pins:
            rows.append((pin.location.x, pin.location.y, pin.location.x, pin.location.y))
            indices.append(len(rows) - 1)
        pin_elements[terminal.name] = indices

    parent = list(range(len(rows)))

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
    # their (degenerate) boxes overlap, touching included.  Pairs join
    # in row-major (i < j) order, which fixes each component's root.
    boxes = np.array(rows, dtype=np.int64).reshape(-1, 4)
    x0, y0, x1, y1 = (column[:, None] for column in boxes.T)
    touch = (x0 <= x1.T) & (x0.T <= x1) & (y0 <= y1.T) & (y0.T <= y1)
    for i, j in zip(*(index.tolist() for index in np.nonzero(np.triu(touch, 1)))):
        union(i, j)

    # Pins of one terminal are electrically equivalent through their
    # cell ("logically grouped"), so they join even without wire
    # geometry between them.
    for indices in pin_elements.values():
        for first, second in zip(indices, indices[1:]):
            union(first, second)

    violations: list[str] = []
    # The component that contains any connected pin of the first
    # terminal is the tree; every terminal needs a pin in it.
    roots_by_terminal = {
        name: {find(i) for i in indices} for name, indices in pin_elements.items()
    }
    anchor_candidates = roots_by_terminal[net.terminals[0].name]
    # Choose the anchor root shared by the most terminals (a terminal
    # may have extra pins dangling off-tree, which is legal).
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
    crossed = _Blockers(layout).crossed([wire.seg for wire in wires])
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
