"""Property tests for the obstacle set's ray layer.

The ``ObstacleSet`` is built once (int64 numpy columns of its rects)
and grown only by ``extended``, which returns a new set with the extra
rects appended.  These tests compare every answer of ``rays`` (all four
rays from a point, in one pass) with:

* a pure-Python loop over ``obs.rects`` per direction (no numpy), on
  coarse tricky sets and on sets out at ``±2**62``, and
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


def brute_ray(obs: ObstacleSet, p: Point, direction: Direction):
    """One ray of ``rays`` as a pure-Python loop over ``obs.rects``.

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


def ray_answer(obs: ObstacleSet, p: Point):
    """``rays`` in :func:`brute_ray`'s vocabulary: four answers or one error."""
    try:
        hits = obs.rays(p)
    except GeometryError as exc:
        return "outside" if "outside" in str(exc) else "inside"
    assert all(hit.origin == p for hit in hits)
    return [(hit.reach, hit.obstacle) for hit in hits]


def brute_rays(obs: ObstacleSet, p: Point):
    answers = [brute_ray(obs, p, d) for d in ALL_DIRECTIONS]
    return answers[0] if isinstance(answers[0], str) else answers


def ray_answers(obs: ObstacleSet, probes) -> list:
    """:func:`ray_answer` at every probe point."""
    return [ray_answer(obs, p) for p in probes]


def assert_rays_match_brute_force(obs: ObstacleSet, probes) -> None:
    for p in probes:
        assert ray_answer(obs, p) == brute_rays(obs, p), p


class TestRaysVsBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(tricky_sets(), probe_lists)
    def test_static_sets_agree(self, rects, probes):
        assert_rays_match_brute_force(ObstacleSet(BOUND, rects), probes)

    @settings(max_examples=60, deadline=None)
    @given(tricky_sets(), probe_lists)
    def test_repeat_queries_answer_again(self, rects, probes):
        obs = ObstacleSet(BOUND, rects)
        first = ray_answers(obs, probes)
        # Nothing is memoized: the repeat is traced again, four rays a point.
        assert ray_answers(obs, probes) == first
        assert obs.ray_probes == 8 * len(probes)

    @settings(max_examples=60, deadline=None)
    @given(tricky_sets(), probe_lists)
    def test_every_ray_is_a_free_run(self, rects, probes):
        obs = ObstacleSet(BOUND, rects)
        for p in probes:
            try:
                hits = obs.rays(p)
            except GeometryError:
                continue
            for hit in hits:
                assert obs.segment_free(Segment(p, hit.reach)), (p, hit)

    @settings(max_examples=60, deadline=None)
    @given(extension_chains(tricky_rects()), probe_lists)
    def test_agree_along_an_extended_chain(self, chain, probes):
        base, batches = chain
        sets = grow(BOUND, base, batches)
        for obs in sets:
            assert_rays_match_brute_force(obs, probes)
        # Every set keeps answering for its own rects after its
        # successors were built and queried.
        for obs in sets:
            assert_rays_match_brute_force(obs, probes)


#: ``MAX_COORDINATE``, the largest coordinate a layout admits.
HUGE = 2**62

#: Coordinates out at ``±2**62``: neighbours there round to the same
#: float64, so a float compare or a wrapped sentinel would show.
HUGE_TRICKY = (-HUGE, -HUGE + 1, -HUGE + 2, -1, 0, 1, HUGE - 2, HUGE - 1, HUGE)

#: Bounds flush with ``±2**62`` and one inside, so rects reach past them.
HUGE_BOUNDS = (Rect(-HUGE, -HUGE, HUGE, HUGE), Rect(-HUGE + 1, -HUGE + 1, HUGE - 1, HUGE - 1))


@st.composite
def huge_rects(draw):
    x0, x1 = sorted(draw(st.lists(st.sampled_from(HUGE_TRICKY), min_size=2, max_size=2)))
    y0, y1 = sorted(draw(st.lists(st.sampled_from(HUGE_TRICKY), min_size=2, max_size=2)))
    return Rect(x0, y0, x1, y1)


huge_probes = st.lists(
    st.builds(Point, st.sampled_from(HUGE_TRICKY), st.sampled_from(HUGE_TRICKY)),
    min_size=1, max_size=12,
)


class TestRaysAtMaxCoordinate:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(HUGE_BOUNDS), st.lists(huge_rects(), max_size=8), huge_probes)
    def test_static_sets_agree(self, bound, rects, probes):
        assert_rays_match_brute_force(ObstacleSet(bound, rects), probes)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(HUGE_BOUNDS), extension_chains(huge_rects()), huge_probes)
    def test_agree_along_an_extended_chain(self, bound, chain, probes):
        base, batches = chain
        for obs in grow(bound, base, batches):
            assert_rays_match_brute_force(obs, probes)

    def test_neighbouring_edges_stay_apart(self):
        # 2**62 - 1 and 2**62 are one float64: the nearer edge must win.
        near = Rect(HUGE - 1, -1, HUGE, 1)
        obs = ObstacleSet(HUGE_BOUNDS[0], [Rect(HUGE, -1, HUGE, 1), near])
        east, west, north, south = obs.rays(Point(HUGE - 2, 0))
        assert (east.reach, east.obstacle) == (Point(HUGE - 1, 0), near)
        assert (west.reach, north.reach, south.reach) == (
            Point(-HUGE, 0), Point(HUGE - 2, HUGE), Point(HUGE - 2, -HUGE)
        )


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
            # Query before growing: the old set must not leak into the new.
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
            east, west, north, south = obs.rays(p)
        except GeometryError:
            continue
        for reach in (east.reach.x, west.reach.x):
            assert reach in xs or reach == p.x, (p, reach, sorted(xs))
        for reach in (north.reach.y, south.reach.y):
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
