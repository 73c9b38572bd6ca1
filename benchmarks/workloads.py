"""Shared workloads and reporting helpers for the benchmark harness."""

from __future__ import annotations

import pathlib
import random

from repro.geometry.point import Point
from repro.geometry.raytrace import ObstacleSet
from repro.layout.generators import LayoutSpec, grid_layout, random_layout, random_netlist
from repro.layout.layout import Layout

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def report(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def scaling_layout(n_cells: int, seed: int = 0) -> Layout:
    """A density-controlled layout for node-count scaling sweeps."""
    return random_layout(
        LayoutSpec(n_cells=n_cells, n_nets=0, cell_min=8, cell_max=20, density=0.30),
        seed=seed,
    )


def corner_pair(layout: Layout, seed: int = 0) -> tuple[Point, Point]:
    """A long, *obstructed* source/destination pair.

    Prefers pairs whose two direct L-shaped routes are both blocked, so
    the search actually has to work (an unobstructed pair expands just
    two nodes and tells the scaling sweep nothing).
    """
    from repro.geometry.segment import Segment

    rng = random.Random(seed)
    obs = layout.obstacles()
    outline = layout.outline

    def random_free(lo_frac: float, hi_frac: float) -> Point:
        for _attempt in range(400):
            p = Point(
                outline.x0 + int(outline.width * rng.uniform(lo_frac, hi_frac)),
                outline.y0 + int(outline.height * rng.uniform(lo_frac, hi_frac)),
            )
            if obs.point_free(p):
                return p
        raise RuntimeError("no free point in band")

    def l_routes_blocked(s: Point, d: Point) -> bool:
        via_a = Point(d.x, s.y)
        via_b = Point(s.x, d.y)
        route_a_clear = (
            obs.point_free(via_a)
            and obs.segment_free(Segment(s, via_a))
            and obs.segment_free(Segment(via_a, d))
        )
        route_b_clear = (
            obs.point_free(via_b)
            and obs.segment_free(Segment(s, via_b))
            and obs.segment_free(Segment(via_b, d))
        )
        return not route_a_clear and not route_b_clear

    best: tuple[Point, Point] | None = None
    for _attempt in range(300):
        s = random_free(0.0, 0.25)
        d = random_free(0.75, 1.0)
        if best is None:
            best = (s, d)
        if l_routes_blocked(s, d):
            return (s, d)
    assert best is not None
    return best


def netted_layout(
    n_cells: int,
    n_nets: int,
    seed: int = 0,
    *,
    terminals=(2, 3),
    pins=(1, 1),
    density: float = 0.35,
) -> Layout:
    """A routable random layout with nets attached."""
    return random_layout(
        LayoutSpec(
            n_cells=n_cells,
            n_nets=n_nets,
            terminals_per_net=terminals,
            pins_per_terminal=pins,
            density=density,
        ),
        seed=seed,
    )


def congested_layout(n_nets: int = 24, seed: int = 5, gap: int = 3) -> Layout:
    """The grid-of-macros layout with deliberately narrow passages."""
    layout = grid_layout(3, 3, cell_width=20, cell_height=20, gap=gap, margin=8)
    rng = random.Random(seed)
    spec = LayoutSpec(terminals_per_net=(2, 3), pad_fraction=0.0)
    for net in random_netlist(layout, n_nets, rng=rng, spec=spec):
        layout.add_net(net)
    return layout


def scaled_congested_layout(
    n_nets: int = 200,
    seed: int = 7,
    *,
    rows: int = 6,
    cols: int = 6,
    gap: int = 3,
    terminals: tuple[int, int] = (3, 6),
) -> Layout:
    """The engine-comparison workload: a big macro grid, many fat nets.

    Hundreds of 3-6 terminal nets across a 6x6 macro grid is where the
    compiled search earns its keep — multi-terminal nets make the
    scalar per-node heuristic loop walk every tree segment in Python,
    while the kernel walks them in C.  Small two-terminal workloads
    understate the gap (per-search set-up dominates), so the tracked
    engine speedup is measured here.
    """
    layout = grid_layout(rows, cols, cell_width=20, cell_height=20, gap=gap, margin=8)
    rng = random.Random(seed)
    spec = LayoutSpec(terminals_per_net=terminals, pad_fraction=0.0)
    for net in random_netlist(layout, n_nets, rng=rng, spec=spec):
        layout.add_net(net)
    return layout


def random_free_pair(obs: ObstacleSet, rng: random.Random) -> tuple[Point, Point]:
    """Two routable points on an obstacle set."""
    bound = obs.bound

    def pick() -> Point:
        while True:
            p = Point(rng.randint(bound.x0, bound.x1), rng.randint(bound.y0, bound.y1))
            if obs.point_free(p):
                return p

    return pick(), pick()
