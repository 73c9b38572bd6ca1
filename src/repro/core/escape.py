"""Escape-point successor generation — the heart of the line-search router.

"What is needed then is a method of detecting when a path collides
with a cell and a means for generating successors that: (1) extends
any path as far toward the goal as is feasible in x and y and (2) hugs
cells (obstacles) as they are encountered."

Both requirements reduce to: trace the four maximal clear rays from
the current point and decide where along each ray the path may stop
(each stop is a successor reachable by one straight wire segment).

Two stop policies are provided:

``FULL``
    Stop at every *escape coordinate* crossed by the clear ray — the
    edge coordinates of all cells and of the routing boundary, plus
    caller-supplied coordinates (goal and source alignments).  This
    lazily explores the full track graph, on which a minimal
    rectilinear obstacle-avoiding path always exists, so A* over it is
    admissible.  It is also the "leaves no stone unturned" form that
    the orthogonal-polygon extension requires.

``AGGRESSIVE``
    The literal reading of the paper's two rules: stop only at
    caller-supplied (goal-aligned) coordinates, at the farthest
    feasible reach, and at the corner coordinates of cells being
    hugged — the cell just collided with and any cell whose boundary
    passes through the current point.  Generates fewer nodes; the A1
    ablation quantifies the trade against ``FULL``.
"""

from __future__ import annotations

import enum
from typing import Sequence

from repro.geometry.point import ALL_DIRECTIONS, Direction, Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.rect import Rect


class EscapeMode(enum.Enum):
    """Successor-stop policy (see module docstring)."""

    FULL = "full"
    AGGRESSIVE = "aggressive"


def escape_moves(
    origin: Point,
    obstacles: ObstacleSet,
    *,
    mode: EscapeMode = EscapeMode.FULL,
    extra_xs: Sequence[int] = (),
    extra_ys: Sequence[int] = (),
) -> list[tuple[Point, Direction]]:
    """Successor points of *origin*, each reachable by one straight wire.

    Parameters
    ----------
    origin:
        Current search point (must be routable).
    obstacles:
        The ray-tracing view of the layout.
    mode:
        Stop policy.
    extra_xs, extra_ys:
        Additional stop coordinates — the goal/source/tree alignments
        supplied by the pathfinder so that goal-directed extension
        "as far toward the goal as is feasible" emerges from the same
        mechanism.

    Returns
    -------
    list of (successor point, direction of travel) pairs; deduplicated,
    in deterministic order.
    """
    moves: list[tuple[Point, Direction]] = []
    # The cells hugged at the origin, looked up once for all four rays.
    touching = obstacles.rects_touching(origin) if mode is EscapeMode.AGGRESSIVE else None
    for direction, hit in zip(ALL_DIRECTIONS, obstacles.rays(origin)):
        if hit.reach == origin:
            continue
        stops = _stops_for_ray(origin, direction, hit.reach, hit.obstacle, obstacles, touching,
                               extra_xs, extra_ys)
        # No cross-direction dedup is needed: east/west stops keep the
        # origin's y and differ from it in x, north/south keep x and
        # differ in y, and the origin itself is never a stop — so the
        # four rays cannot produce the same successor twice.
        origin_coord = origin.x if direction.is_horizontal else origin.y
        make = origin.with_x if direction.is_horizontal else origin.with_y
        for coord in stops:
            if coord != origin_coord:
                moves.append((make(coord), direction))
    return moves


def _stops_for_ray(
    origin: Point,
    direction: Direction,
    reach: Point,
    blocker: Rect | None,
    obstacles: ObstacleSet,
    touching: list[Rect] | None,
    extra_xs: Sequence[int],
    extra_ys: Sequence[int],
) -> list[int]:
    """Stop coordinates along one clear ray, always including the reach.

    *touching* is ``None`` in FULL mode; in AGGRESSIVE mode it holds
    the rects hugged at the origin, whose corners stop the ray.
    """
    horizontal = direction.is_horizontal
    start = origin.x if horizontal else origin.y
    end = reach.x if horizontal else reach.y
    lo, hi = (start, end) if start < end else (end, start)
    extras = extra_xs if horizontal else extra_ys

    stops: set[int] = {end}
    if touching is None:
        index = obstacles.edge_xs if horizontal else obstacles.edge_ys
        stops.update(index.between(lo, hi))
    else:
        hug_cells = touching if blocker is None else touching + [blocker]
        for cell in hug_cells:
            for coord in (cell.x0, cell.x1) if horizontal else (cell.y0, cell.y1):
                if lo < coord < hi:
                    stops.add(coord)
    for coord in extras:
        if lo < coord < hi:
            stops.add(coord)
    return sorted(stops)
