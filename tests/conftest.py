"""Shared fixtures and independent oracles for the test suite.

The key testing asset is :func:`oracle_shortest_length`: a networkx
Dijkstra over an explicitly constructed track graph.  It shares no
search or successor code with the library, so agreement between the
router and the oracle is real evidence of optimality (the paper's
admissibility claim).  :func:`broadcast_congestion` recounts passage
usage from route segments, sharing no code with the congestion
ledger it checks.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx
import numpy as np
import pytest

from repro.core.congestion import _CHUNK, CongestionMap, Passage, PassageUsage
from repro.core.route import GlobalRoute
from repro.geometry.orthpoly import OrthoPolygon
from repro.geometry.point import Axis, Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment
from repro.layout.cell import Cell
from repro.layout.generators import LayoutSpec, figure1_layout, random_layout
from repro.layout.layout import Layout
from repro.layout.net import Net


def oracle_shortest_length(
    obstacles: ObstacleSet, source: Point, target: Point
) -> int | None:
    """Optimal rectilinear obstacle-avoiding length, or None if cut off.

    Builds the full track graph over all obstacle/boundary edge
    coordinates plus the endpoints' coordinates, connects axis-adjacent
    free vertices whose joining segment is clear, and runs networkx
    Dijkstra.  The existence of a shortest rectilinear path on this
    graph is a standard result, so this is a true optimum.
    """
    xs = sorted(set(obstacles.edge_xs) | {source.x, target.x})
    ys = sorted(set(obstacles.edge_ys) | {source.y, target.y})
    graph = nx.Graph()
    grid_points = {}
    for x in xs:
        for y in ys:
            p = Point(x, y)
            if obstacles.point_free(p):
                grid_points[(x, y)] = p
                graph.add_node((x, y))
    for y in ys:
        row = [x for x in xs if (x, y) in grid_points]
        for x0, x1 in zip(row, row[1:]):
            if obstacles.segment_free(Segment(Point(x0, y), Point(x1, y))):
                graph.add_edge((x0, y), (x1, y), weight=x1 - x0)
    for x in xs:
        col = [y for y in ys if (x, y) in grid_points]
        for y0, y1 in zip(col, col[1:]):
            if obstacles.segment_free(Segment(Point(x, y0), Point(x, y1))):
                graph.add_edge((x, y0), (x, y1), weight=y1 - y0)
    try:
        return nx.dijkstra_path_length(
            graph, (source.x, source.y), (target.x, target.y)
        )
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def broadcast_congestion(passages: Iterable[Passage], route: GlobalRoute) -> CongestionMap:
    """Count, per passage, the distinct nets flowing through it.

    Column-batched form of the naive ``passage.carries(seg)`` double
    loop: passage regions and segment endpoints go into int64 columns
    once, and one passages x segments broadcast (in chunks of passages)
    makes every carry test.  The membership math is integer-exact and
    ``nets`` is a set, so the result is identical to the scalar loop
    for any input.
    """
    entries = [PassageUsage(p) for p in passages]
    tagged = route.all_segments()
    if not entries or not tagged:
        return CongestionMap(entries)

    names = [name for name, _ in tagged]
    ax, ay, bx, by = np.array(
        [(seg.a.x, seg.a.y, seg.b.x, seg.b.y) for _, seg in tagged], dtype=np.int64
    ).T
    # Degenerate segments are in neither class (carries() ignores
    # them); non-rectilinear ones would be in neither either.
    vertical = (ax == bx) & (ay != by)
    horizontal = (ay == by) & (ax != bx)
    v_lo = np.minimum(ay, by)
    v_hi = np.maximum(ay, by)
    h_lo = np.minimum(ax, bx)
    h_hi = np.maximum(ax, bx)
    regions = np.array(
        [(r.x0, r.y0, r.x1, r.y1) for r in (e.passage.region for e in entries)], dtype=np.int64
    )
    flow_y = np.array([e.passage.flow is Axis.Y for e in entries])

    step = max(1, _CHUNK // len(tagged))
    for start in range(0, len(entries), step):
        x0, y0, x1, y1 = (column[:, None] for column in regions[start : start + step].T)
        # A corridor flowing along y carries vertical segments on a
        # track inside its closed x span that overlap its y span with
        # positive length; one flowing along x, the transpose.
        carried = np.where(
            flow_y[start : start + step, None],
            vertical & (x0 <= ax) & (ax <= x1) & (v_lo < y1) & (y0 < v_hi),
            horizontal & (y0 <= ay) & (ay <= y1) & (h_lo < x1) & (x0 < h_hi),
        )
        for row, col in zip(*(index.tolist() for index in np.nonzero(carried))):
            entries[start + row].nets.add(names[col])
    return CongestionMap(entries)


@pytest.fixture
def empty_surface() -> ObstacleSet:
    """A 100x100 routing surface with no cells."""
    return ObstacleSet(Rect(0, 0, 100, 100))


@pytest.fixture
def one_block() -> ObstacleSet:
    """One central block on a 100x100 surface."""
    return ObstacleSet(Rect(0, 0, 100, 100), [Rect(40, 30, 60, 70)])


@pytest.fixture
def fig1() -> tuple[Layout, Point, Point]:
    """The Figure 1 reconstruction: (layout, start, destination)."""
    return figure1_layout()


@pytest.fixture
def small_layout() -> Layout:
    """A reproducible 8-cell, 6-net random layout."""
    return random_layout(
        LayoutSpec(n_cells=8, n_nets=6, terminals_per_net=(2, 3), pins_per_terminal=(1, 2)),
        seed=123,
    )


@pytest.fixture
def medium_layout() -> Layout:
    """A reproducible 14-cell, 12-net random layout."""
    return random_layout(
        LayoutSpec(n_cells=14, n_nets=12, terminals_per_net=(2, 4), pins_per_terminal=(1, 2)),
        seed=321,
    )


@pytest.fixture
def l_cell_layout() -> Layout:
    """One L-shaped cell whose two slabs meet along y = 20 for x in
    [10, 20], and net ``n`` from (0, 20) to (40, 20) along that seam."""
    layout = Layout(Rect(0, 0, 40, 40))
    corners = [(10, 10), (30, 10), (30, 20), (20, 20), (20, 30), (10, 30)]
    layout.add_cell(Cell("L", OrthoPolygon([Point(x, y) for x, y in corners])))
    layout.add_net(Net.two_point("n", Point(0, 20), Point(40, 20)))
    return layout
