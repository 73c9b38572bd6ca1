"""Property tests: LayoutDelta serialization, composition, kept-soundness.

The incremental engine's correctness leans on three delta-layer
contracts, pinned here property-style over generated layouts:

* serialization is loss-free and *stable* — ``from_json(to_json())``
  yields an equal delta that re-serializes byte-identically;
* ``compose_deltas`` is faithful — applying the fused delta equals
  applying the chain sequentially — and associative;
* classification is sound — a net the dirty analyzer *keeps* has a
  route that never enters any changed footprint (checked with
  independent interval arithmetic, not the analyzer's own ray probe).
"""

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.router import GlobalRouter, RouterConfig
from repro.layout.generators import LayoutSpec
from repro.layout.io import layout_to_json
from repro.incremental.delta import LayoutDelta, apply_delta, changed_rects, compose_deltas
from repro.incremental.dirty import classify_nets
from repro.incremental.scripts import (
    disjoint_delta,
    geometry_delta,
    replace_nets_delta,
)
from tests.property.conftest import generate

COMMON = dict(
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

SPEC = LayoutSpec(
    n_cells=4,
    n_nets=4,
    cell_min=6,
    cell_max=10,
    separation=2,
    terminals_per_net=(2, 3),
    pins_per_terminal=(1, 2),
    density=0.25,
)


def scripted(layout, kind, step):
    """One valid-by-construction delta against *layout*."""
    if kind == "disjoint":
        return disjoint_delta(layout, tag=f"t{step}")
    if kind == "geometry":
        return geometry_delta(layout, tag=f"t{step}")
    count = min(2, len(layout.nets))
    return replace_nets_delta(layout, count)


KINDS = st.sampled_from(["disjoint", "geometry", "replace"])


def canonical(layout) -> str:
    """layout_to_json with cells and nets sorted by name.

    Composition fuses a chain into one delta, which loses the chain's
    *insertion order* (a remove-then-re-add lands the net at a
    different list position) while preserving every cell and net
    definition — so equivalence is asserted order-insensitively.
    """
    import json

    doc = json.loads(layout_to_json(layout))
    doc["cells"] = sorted(doc["cells"], key=lambda c: c["name"])
    doc["nets"] = sorted(doc["nets"], key=lambda n: n["name"])
    return json.dumps(doc, sort_keys=True)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=10_000), kind=KINDS)
@settings(**COMMON)
def test_json_round_trip_is_stable(seed, kind):
    layout = generate(SPEC, seed)
    delta = scripted(layout, kind, 0)
    text = delta.to_json()
    again = LayoutDelta.from_json(text)
    assert again == delta
    assert again.to_json() == text
    # And the round-tripped delta is interchangeable in application.
    assert layout_to_json(apply_delta(layout, again)) == layout_to_json(
        apply_delta(layout, delta)
    )


# ----------------------------------------------------------------------
# Composition
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    kinds=st.lists(KINDS, min_size=2, max_size=3),
)
@settings(**COMMON)
def test_compose_matches_sequential_application(seed, kinds):
    layout = generate(SPEC, seed)
    deltas, current = [], layout
    for step, kind in enumerate(kinds):
        delta = scripted(current, kind, step)
        deltas.append(delta)
        current = apply_delta(current, delta)

    fused = deltas[0]
    for delta in deltas[1:]:
        fused = compose_deltas(fused, delta)
    assert canonical(apply_delta(layout, fused)) == canonical(current)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    kinds=st.lists(KINDS, min_size=3, max_size=3),
)
@settings(**COMMON)
def test_compose_is_associative(seed, kinds):
    layout = generate(SPEC, seed)
    deltas, current = [], layout
    for step, kind in enumerate(kinds):
        delta = scripted(current, kind, step)
        deltas.append(delta)
        current = apply_delta(current, delta)
    a, b, c = deltas
    left = compose_deltas(compose_deltas(a, b), c)
    right = compose_deltas(a, compose_deltas(b, c))
    assert left == right


# ----------------------------------------------------------------------
# Kept-soundness
# ----------------------------------------------------------------------
def _segment_enters(rect, p, q) -> bool:
    """Does the axis-aligned segment p-q cross *rect*'s open interior?"""
    x_lo, x_hi = min(p.x, q.x), max(p.x, q.x)
    y_lo, y_hi = min(p.y, q.y), max(p.y, q.y)
    return (
        x_hi > rect.x0 and x_lo < rect.x1 and y_hi > rect.y0 and y_lo < rect.y1
    )


@given(seed=st.integers(min_value=0, max_value=10_000), kind=KINDS)
@settings(**COMMON)
def test_kept_routes_never_enter_changed_footprints(seed, kind):
    layout = generate(SPEC, seed)
    assume(layout.nets)
    route = GlobalRouter(layout, RouterConfig()).route_all(on_unroutable="skip")
    delta = scripted(layout, kind, 0)
    mutated = apply_delta(layout, delta)
    dirty = classify_nets(route, layout, mutated, delta)
    rects = changed_rects(layout, delta)
    for name in dirty.kept:
        tree = route.trees[name]
        for path in tree.paths:
            points = path.points
            for p, q in zip(points, points[1:]):
                for rect in rects:
                    assert not _segment_enters(rect, p, q), (
                        f"kept net {name} crosses changed rect {rect}"
                    )
