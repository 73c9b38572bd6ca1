"""Property tests for the epoch-cached, incrementally-indexed obstacle set.

The ``ObstacleSet`` rewrite (epoch counter + incremental numpy column
maintenance + per-track blocker index + ray-query memo cache) must be
observationally identical to a freshly-built, cache-disabled set after
*any* interleaving of ``add``/``add_many``/``remove`` mutations.  These
tests drive randomized mutation sequences and compare every query
surface between:

* the mutated set with the ray cache ON (the shipping configuration),
* the mutated set with the ray cache OFF,
* a set whose rays run the plain numpy scan (the reference that
  ``reference_search()`` selects),
* a pure-Python loop over ``obs.rects`` (no numpy, no index), and
* a pristine set rebuilt from scratch with the surviving rects
  (no incremental state at all).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry.point import ALL_DIRECTIONS, Direction, Point
from repro.geometry.raytrace import _COMPACT_SLACK, ObstacleSet
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment

BOUND = Rect(0, 0, 60, 60)

coords = st.integers(min_value=0, max_value=60)


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
def mutation_scripts(draw, rects=small_rects()):
    """A list of ('add'|'add_many'|'remove', payload) operations.

    Removals pick from the rects added so far, so every script is
    replayable; a fraction of scripts also remove everything they
    added to exercise the empty-again state.
    """
    script = []
    pool = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        op = draw(st.sampled_from(["add", "add", "add_many", "remove"]))
        if op == "add":
            rect = draw(rects)
            pool.append(rect)
            script.append(("add", rect))
        elif op == "add_many":
            batch = draw(st.lists(rects, min_size=1, max_size=4))
            pool.extend(batch)
            script.append(("add_many", tuple(batch)))
        elif pool:
            victim = pool.pop(draw(st.integers(0, len(pool) - 1)))
            script.append(("remove", victim))
    return script


def apply_script(obs: ObstacleSet, script, survivors=None) -> list[Rect]:
    """Replay *script* onto *obs*; returns the surviving rects in order.

    Stepwise callers pass their own *survivors* list so the shadow
    state persists across calls.
    """
    if survivors is None:
        survivors = []
    for op, payload in script:
        if op == "add":
            obs.add(payload)
            survivors.append(payload)
        elif op == "add_many":
            obs.add_many(payload)
            survivors.extend(payload)
        else:
            obs.remove(payload)
            # Mirror ObstacleSet.remove, which drops the most recently
            # added occurrence among equal rects — keeping the shadow
            # list's relative order identical to the set's slot order.
            index = len(survivors) - 1 - survivors[::-1].index(payload)
            survivors.pop(index)
    return survivors


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
    """A memo-less set whose rays run the reference numpy scan."""
    obs = ObstacleSet(bound, rects, ray_cache=False)
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
        assert_index_matches_references(ObstacleSet(BOUND, rects, ray_cache=False), probes)

    @settings(max_examples=60, deadline=None)
    @given(tricky_sets(), probe_lists)
    def test_memoized_answers_agree(self, rects, probes):
        obs = ObstacleSet(BOUND, rects)
        # Twice: the second pass is served by both memos.
        assert_index_matches_references(obs, probes)
        assert_index_matches_references(obs, probes)

    @settings(max_examples=60, deadline=None)
    @given(mutation_scripts(tricky_rects()), probe_lists)
    def test_agree_after_every_mutation(self, script, probes):
        obs = ObstacleSet(BOUND)
        shadow: list[Rect] = []
        assert_index_matches_references(obs, probes)
        for step in script:
            apply_script(obs, [step], shadow)
            assert list(obs.rects) == shadow
            assert_index_matches_references(obs, probes)


class TestCachedVsUncached:
    @settings(max_examples=60, deadline=None)
    @given(mutation_scripts(), st.integers(0, 2**31))
    def test_ray_queries_agree_under_mutation(self, script, seed):
        cached = ObstacleSet(BOUND, ray_cache=True)
        uncached = ObstacleSet(BOUND, ray_cache=False)
        rng = random.Random(seed)
        shadow_cached: list[Rect] = []
        shadow_uncached: list[Rect] = []
        for step in range(len(script)):
            apply_script(cached, script[step : step + 1], shadow_cached)
            apply_script(uncached, script[step : step + 1], shadow_uncached)
            probes = probe_points(rng, count=6)
            assert ray_answers(cached, probes) == ray_answers(uncached, probes)
            # Query twice: the second pass is served from the memo and
            # must not drift from the first.
            assert ray_answers(cached, probes) == ray_answers(uncached, probes)

    @settings(max_examples=60, deadline=None)
    @given(mutation_scripts(), st.integers(0, 2**31))
    def test_mutated_set_matches_pristine_rebuild(self, script, seed):
        mutated = ObstacleSet(BOUND)
        survivors = apply_script(mutated, script)
        pristine = ObstacleSet(BOUND, survivors, ray_cache=False)
        rng = random.Random(seed)
        probes = probe_points(rng)

        assert sorted(mutated.rects) == sorted(pristine.rects)
        assert list(mutated.edge_xs) == list(pristine.edge_xs)
        assert list(mutated.edge_ys) == list(pristine.edge_ys)
        assert ray_answers(mutated, probes) == ray_answers(pristine, probes)
        assert mutated.points_free(probes) == [pristine.point_free(p) for p in probes]
        for p in probes:
            assert mutated.point_free(p) == pristine.point_free(p)
            assert mutated.on_any_boundary(p) == pristine.on_any_boundary(p)
            assert sorted(mutated.rects_touching(p)) == sorted(pristine.rects_touching(p))
        for a in probes[:6]:
            for b in probes[6:]:
                if a.x == b.x or a.y == b.y:
                    seg = Segment(a, b)
                    assert mutated.segment_free(seg) == pristine.segment_free(seg)

    @settings(max_examples=40, deadline=None)
    @given(mutation_scripts())
    def test_epoch_strictly_increases_per_mutation(self, script):
        obs = ObstacleSet(BOUND)
        shadow: list[Rect] = []
        last = obs.epoch
        for step in script:
            apply_script(obs, [step], shadow)
            assert obs.epoch > last
            last = obs.epoch


def assert_reaches_on_edges(obs: ObstacleSet, probes) -> None:
    """Every reach is a registered edge coordinate or the origin itself.

    The batched search names states by their index on the grid of edge
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
    @given(mutation_scripts(tricky_rects()), tricky_sets(), probe_lists)
    def test_through_add_remove_and_compaction(self, script, churn, probes):
        obs = ObstacleSet(BOUND)
        shadow: list[Rect] = []
        assert_reaches_on_edges(obs, probes)
        for step in script:
            apply_script(obs, [step], shadow)
            assert_reaches_on_edges(obs, probes)
        # Churn past the compaction threshold: add enough copies of the
        # churn rects that removing them all leaves more dead columns
        # than _COMPACT_SLACK and than live ones.
        churn = churn or [Rect(20, 20, 30, 30)]
        copies = churn * (_COMPACT_SLACK // len(churn) + len(shadow) + 2)
        obs.add_many(copies)
        appended = obs._count
        assert_reaches_on_edges(obs, probes)
        for rect in copies:
            obs.remove(rect)
            assert_reaches_on_edges(obs, probes)
        assert obs._count < appended  # compaction ran
        assert sorted(obs.rects) == sorted(shadow)
