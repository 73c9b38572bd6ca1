"""Property tests for the obstacle set's ray layer.

The ``ObstacleSet`` is built once (numpy columns plus a per-track
blocker index filled lazily) and grown only by ``extended``, which
returns a new set with the extra rects appended.  These tests compare
every ray answer between:

* the indexed set (the shipping configuration),
* a set whose rays run the plain numpy scan (the reference that
  ``reference_search()`` selects),
* a pure-Python loop over ``obs.rects`` (no numpy, no index), and
* for sets grown by ``extended`` chains, a set built fresh over the
  same rects.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry.point import ALL_DIRECTIONS, Direction, Point
from repro.geometry.raytrace import ObstacleSet
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment

BOUND = Rect(0, 0, 60, 60)


@st.composite
def small_rects(draw):
    x0 = draw(st.integers(min_value=1, max_value=55))
    y0 = draw(st.integers(min_value=1, max_value=55))
    return Rect(x0, y0, x0 + draw(st.integers(0, 8)), y0 + draw(st.integers(0, 8)))


#: Coarse coordinates so that edges coincide: rects overlap, share near
#: edges, duplicate, collapse to zero width or height, sit flush with
#: the bound (0 and 60), and reach past it.
TRICKY = (-5, 0, 10, 20, 30, 40, 50, 60, 65)

#: Probe coordinates: on the grid, between grid lines, and just outside
#: the bound.
PROBE = (-1, 0, 5, 10, 15, 20, 30, 35, 40, 50, 55, 60, 61)


@st.composite
def tricky_rects(draw):
    x0, x1 = sorted(draw(st.lists(st.sampled_from(TRICKY), min_size=2, max_size=2)))
    y0, y1 = sorted(draw(st.lists(st.sampled_from(TRICKY), min_size=2, max_size=2)))
    return Rect(x0, y0, x1, y1)


@st.composite
def tricky_sets(draw):
    """Tricky rects plus explicit duplicates of some of them."""
    rects = draw(st.lists(tricky_rects(), max_size=10))
    if rects:
        rects += draw(st.lists(st.sampled_from(rects), max_size=3))
    return rects


probe_lists = st.lists(
    st.builds(Point, st.sampled_from(PROBE), st.sampled_from(PROBE)), min_size=1, max_size=12
)


@st.composite
def extension_chains(draw, rects=small_rects()):
    """A base rect list and the batches an ``extended`` chain appends.

    Batches may be empty and may repeat rects already in the set.
    """
    base = draw(st.lists(rects, max_size=6))
    batches = draw(st.lists(st.lists(rects, max_size=4), min_size=1, max_size=5))
    return base, batches


def grow(bound: Rect, base, batches) -> list[ObstacleSet]:
    """The chain ``ObstacleSet(bound, base).extended(b1).extended(b2)...``."""
    chain = [ObstacleSet(bound, base)]
    for batch in batches:
        chain.append(chain[-1].extended(batch))
    return chain


def probe_points(rng: random.Random, count: int = 12) -> list[Point]:
    return [Point(rng.randint(0, 60), rng.randint(0, 60)) for _ in range(count)]


def ray_answers(obs: ObstacleSet, probes) -> list:
    """All ray answers over the probe points (errors recorded as markers)."""
    out = []
    for p in probes:
        for direction in ALL_DIRECTIONS:
            try:
                hit = obs.first_hit(p, direction)
                out.append((p, direction, hit.reach, hit.obstacle))
            except Exception:
                out.append((p, direction, "illegal-origin"))
    return out


def scan_set(bound: Rect, rects=()) -> ObstacleSet:
    """A set whose rays run the reference numpy scan."""
    obs = ObstacleSet(bound, rects)
    obs._scan_rays = True  # what find_path sets under reference_search()
    return obs


def brute_ray(obs: ObstacleSet, p: Point, direction: Direction):
    """``first_hit`` as a pure-Python loop over ``obs.rects``.

    Returns ``(reach, obstacle)``, or ``"outside"``/``"inside"`` for an
    illegal origin.  A rect blocks when the ray's track is strictly
    inside its perpendicular span and its far edge lies ahead; the
    nearest near edge wins, the earliest-inserted rect on ties, and a
    stop beyond the bound yields to the bound.
    """
    bound = obs.bound
    if not bound.contains_point(p):
        return "outside"
    if any(r.contains_point(p, strict=True) for r in obs.rects):
        return "inside"
    horizontal = direction.is_horizontal
    sign = direction.sign
    pos = p.x if horizontal else p.y
    best = None
    for r in obs.rects:
        if horizontal:
            straddles, lo, hi = r.y0 < p.y < r.y1, r.x0, r.x1
        else:
            straddles, lo, hi = r.x0 < p.x < r.x1, r.y0, r.y1
        if not straddles:
            continue
        if sign > 0 and hi > pos:
            stop = lo
        elif sign < 0 and lo < pos:
            stop = hi
        else:
            continue
        if best is None or (stop < best[0] if sign > 0 else stop > best[0]):
            best = (stop, r)
    if horizontal:
        limit = bound.x1 if sign > 0 else bound.x0
    else:
        limit = bound.y1 if sign > 0 else bound.y0
    if best is None or (best[0] > limit if sign > 0 else best[0] < limit):
        stop, obstacle = limit, None
    else:
        stop, obstacle = best
    return (p.with_x(stop) if horizontal else p.with_y(stop)), obstacle


def ray_answer(obs: ObstacleSet, p: Point, direction: Direction):
    """``first_hit`` in :func:`brute_ray`'s vocabulary."""
    try:
        hit = obs.first_hit(p, direction)
    except GeometryError as exc:
        return "outside" if "outside" in str(exc) else "inside"
    return hit.reach, hit.obstacle


def reach_answer(obs: ObstacleSet, p: Point):
    try:
        return obs.reaches(p.x, p.y)
    except GeometryError as exc:
        return "outside" if "outside" in str(exc) else "inside"


def brute_reaches(obs: ObstacleSet, p: Point):
    answers = [brute_ray(obs, p, d) for d in ALL_DIRECTIONS]
    if isinstance(answers[0], str):
        return answers[0]
    east, west, north, south = (reach for reach, _ in answers)
    return east.x, west.x, north.y, south.y


def assert_index_matches_references(obs: ObstacleSet, probes) -> None:
    """Index vs reference scan vs pure-Python loop, on every surface."""
    scan = scan_set(obs.bound, obs.rects)
    for p in probes:
        for direction in ALL_DIRECTIONS:
            expected = brute_ray(obs, p, direction)
            assert ray_answer(obs, p, direction) == expected
            assert ray_answer(scan, p, direction) == expected
        assert reach_answer(obs, p) == brute_reaches(obs, p)


class TestIndexVsScanVsBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(tricky_sets(), probe_lists)
    def test_static_sets_agree(self, rects, probes):
        assert_index_matches_references(ObstacleSet(BOUND, rects), probes)

    @settings(max_examples=60, deadline=None)
    @given(tricky_sets(), probe_lists)
    def test_indexed_tracks_answer_again(self, rects, probes):
        obs = ObstacleSet(BOUND, rects)
        # Twice: the second pass is answered from the built track index.
        assert_index_matches_references(obs, probes)
        assert_index_matches_references(obs, probes)

    @settings(max_examples=60, deadline=None)
    @given(extension_chains(tricky_rects()), probe_lists)
    def test_agree_along_an_extended_chain(self, chain, probes):
        base, batches = chain
        sets = grow(BOUND, base, batches)
        for obs in sets:
            assert_index_matches_references(obs, probes)
        # Every set keeps answering for its own rects after its
        # successors were built and queried.
        for obs in sets:
            assert_index_matches_references(obs, probes)


class TestExtendedVsFresh:
    @settings(max_examples=60, deadline=None)
    @given(extension_chains(), st.integers(0, 2**31))
    def test_grown_set_matches_a_fresh_build(self, chain, seed):
        base, batches = chain
        rng = random.Random(seed)
        probes = probe_points(rng)
        grown = ObstacleSet(BOUND, base)
        expected = list(base)
        for batch in batches:
            # Query before growing so the old set has indexed tracks.
            ray_answers(grown, probes)
            grown = grown.extended(batch)
            expected.extend(batch)
        fresh = ObstacleSet(BOUND, expected)

        assert grown.rects == fresh.rects == tuple(expected)
        assert list(grown.edge_xs) == list(fresh.edge_xs)
        assert list(grown.edge_ys) == list(fresh.edge_ys)
        assert ray_answers(grown, probes) == ray_answers(fresh, probes)
        assert grown.points_free(probes) == [fresh.point_free(p) for p in probes]
        for p in probes:
            assert reach_answer(grown, p) == reach_answer(fresh, p)
            assert grown.point_free(p) == fresh.point_free(p)
            assert grown.on_any_boundary(p) == fresh.on_any_boundary(p)
            assert grown.rects_touching(p) == fresh.rects_touching(p)
        for a in probes[:6]:
            for b in probes[6:]:
                if a.x == b.x or a.y == b.y:
                    seg = Segment(a, b)
                    assert grown.segment_free(seg) == fresh.segment_free(seg)


def assert_reaches_on_edges(obs: ObstacleSet, probes) -> None:
    """Every reach is a registered edge coordinate or the origin itself.

    The compiled search names states by their index on the grid of edge
    (plus pin) coordinates, so a reach anywhere else would have no
    state to land on.
    """
    xs = set(obs.edge_xs)
    ys = set(obs.edge_ys)
    for p in probes:
        try:
            east, west, north, south = obs.reaches(p.x, p.y)
        except GeometryError:
            continue
        for reach in (east, west):
            assert reach in xs or reach == p.x, (p, reach, sorted(xs))
        for reach in (north, south):
            assert reach in ys or reach == p.y, (p, reach, sorted(ys))


class TestReachesStayOnTheEscapeGrid:
    @settings(max_examples=80, deadline=None)
    @given(tricky_sets(), probe_lists)
    def test_static_sets(self, rects, probes):
        assert_reaches_on_edges(ObstacleSet(BOUND, rects), probes)

    @settings(max_examples=60, deadline=None)
    @given(extension_chains(tricky_rects()), probe_lists)
    def test_along_an_extended_chain(self, chain, probes):
        base, batches = chain
        for obs in grow(BOUND, base, batches):
            assert_reaches_on_edges(obs, probes)
