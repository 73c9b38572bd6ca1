"""Regression: the per-track ray index must never survive mutation churn.

``first_hit`` answers come from row and column blocker indexes that
are dropped on every mutation.  Heavy remove/add churn additionally
triggers slot *compaction* (``_COMPACT_SLACK``), which rebuilds the
numpy views and renumbers live slots — a regime where a stale track
from before a mutation would silently return hits against geometry
that no longer exists.  This suite drives exactly that churn and
cross-checks every answer against a freshly built set.
"""

from repro.geometry.point import Direction, Point
from repro.geometry.raytrace import _COMPACT_SLACK, ObstacleSet
from repro.geometry.rect import Rect

BOUND = Rect(0, 0, 1000, 1000)


def _grid_rects(n: int, *, offset: int = 0) -> list[Rect]:
    """n disjoint 4x4 obstacles on a 10-unit grid, shifted by *offset*."""
    rects = []
    for i in range(n):
        x = 10 + (i % 30) * 30 + offset
        y = 10 + (i // 30) * 30 + offset
        rects.append(Rect(x, y, x + 4, y + 4))
    return rects


def _probes() -> list[tuple[Point, Direction]]:
    points = [Point(x, y) for x in (0, 5, 25, 55, 305) for y in (0, 5, 25, 55)]
    return [(p, d) for p in points for d in Direction]


def _assert_fresh_equal(obs: ObstacleSet) -> None:
    """Every ray answer equals a from-scratch ObstacleSet's answer."""
    fresh = ObstacleSet(BOUND, obs.rects)
    for origin, direction in _probes():
        assert obs.first_hit(origin, direction) == fresh.first_hit(
            origin, direction
        ), f"stale ray answer at {origin} {direction}"


def test_remove_add_churn_through_compaction():
    rects = _grid_rects(100)
    obs = ObstacleSet(BOUND, rects)

    # Index the tracks of a spread of origins and directions.
    for origin, direction in _probes():
        obs.first_hit(origin, direction)

    # Remove enough rects to cross the compaction threshold (dead >
    # _COMPACT_SLACK and dead > live) with the tracks indexed.
    doomed = rects[: _COMPACT_SLACK + 20]
    for rect in doomed:
        obs.remove(rect)
    assert len(obs.rects) == len(rects) - len(doomed)
    _assert_fresh_equal(obs)

    # Re-add new geometry over the vacated slots and re-query.
    obs.add_many(_grid_rects(40, offset=3))
    _assert_fresh_equal(obs)


def test_interleaved_churn_rounds_stay_consistent():
    obs = ObstacleSet(BOUND, _grid_rects(90))
    for round_no in range(4):
        # Query (indexes the tracks), churn, query again.
        for origin, direction in _probes():
            obs.first_hit(origin, direction)
        survivors = list(obs.rects)
        for rect in survivors[: len(survivors) // 2]:
            obs.remove(rect)
        obs.add_many(_grid_rects(30, offset=2 * round_no + 1))
        _assert_fresh_equal(obs)
