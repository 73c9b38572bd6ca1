"""Dirty-set analysis: which prior routes survive a layout delta.

Given a previous :class:`~repro.core.route.GlobalRoute`, the base
layout it was routed on, and a :class:`~repro.incremental.delta.LayoutDelta`,
:func:`classify_nets` sorts every net of the mutated layout into

*kept*
    present in both layouts with identical pins, and its prior route
    stays clear of every piece of changed geometry — the route is
    reused verbatim;
*ripped*
    present in both layouts but its prior route cannot be trusted
    (pins moved, the route crosses changed geometry, the outline
    changed, or there simply is no prior route for it);
*new*
    absent from the base layout (including nets the delta replaces).

The geometry test reuses the PR-3 machinery: the changed footprints
(:func:`~repro.incremental.delta.changed_rects`), inflated by one
unit, become an :class:`~repro.geometry.raytrace.ObstacleSet` (with
its per-track blocker index and ``CoordIndex`` edge tables), and each
candidate tree is probed with the same vectorized
``segment_free``/``point_free`` queries the router itself uses.  The
one-unit inflation makes the test *conservative*: a route that merely
hugs a changed cell's old or new wall crosses the inflated interior
and is ripped, so a kept route can never intersect — or even touch —
changed geometry (the soundness invariant pinned by
``tests/property/test_delta_props.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.geometry.raytrace import ObstacleSet
from repro.geometry.rect import Rect
from repro.core.route import GlobalRoute, RouteTree
from repro.layout.io import net_to_dict
from repro.layout.layout import Layout
from repro.incremental.delta import LayoutDelta, changed_rects

#: Inflation (in layout units) applied to changed footprints before the
#: intersection test, so that hugging counts as intersecting.
CLEARANCE = 1


@dataclass(frozen=True)
class DirtySet:
    """The classification of every net of the mutated layout.

    ``removed`` lists base-layout nets that no longer exist (their
    routes are simply dropped); ``reasons`` maps each ripped net to a
    human-readable cause for reports and telemetry.
    """

    kept: tuple[str, ...]
    ripped: tuple[str, ...]
    new: tuple[str, ...]
    removed: tuple[str, ...]
    reasons: tuple[tuple[str, str], ...] = ()

    @property
    def dirty(self) -> tuple[str, ...]:
        """The nets the re-router must actually route (sorted)."""
        return tuple(sorted(set(self.ripped) | set(self.new)))

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "kept": list(self.kept),
            "ripped": list(self.ripped),
            "new": list(self.new),
            "removed": list(self.removed),
            "reasons": dict(self.reasons),
        }


def _probe_bound(base: Layout, mutated: Layout, rects: list[Rect]) -> Rect:
    """A bound enclosing both outlines and every inflated changed rect.

    The probe set needs every prior-route segment *inside* its bound
    (``segment_free`` reports out-of-bound segments as blocked, which
    would spuriously rip nets near the surface edge), and inflated
    rects may stick past either outline.
    """
    xs = [base.outline.x0, base.outline.x1, mutated.outline.x0, mutated.outline.x1]
    ys = [base.outline.y0, base.outline.y1, mutated.outline.y0, mutated.outline.y1]
    for rect in rects:
        xs.extend((rect.x0, rect.x1))
        ys.extend((rect.y0, rect.y1))
    return Rect(min(xs) - 1, min(ys) - 1, max(xs) + 1, max(ys) + 1)


def _tree_clear(probe: ObstacleSet, tree: RouteTree) -> bool:
    """Whether every point and segment of *tree* avoids the probe rects."""
    for path in tree.paths:
        for point in path.points:
            if not probe.point_free(point):
                return False
        for segment in path.segments:
            if not probe.segment_free(segment):
                return False
    return True


def classify_nets(
    prev_route: GlobalRoute,
    base_layout: Layout,
    mutated_layout: Layout,
    delta: LayoutDelta,
) -> DirtySet:
    """Classify every net of *mutated_layout* as kept, ripped, or new.

    *prev_route* is the routing of *base_layout* that a reroute wants
    to reuse; *mutated_layout* must be ``apply_delta(base_layout,
    delta)`` (the caller usually has it already, so it is passed in
    rather than recomputed).
    """
    base_names = {net.name for net in base_layout.nets}
    mutated_names = {net.name for net in mutated_layout.nets}
    replaced = set(delta.replaced_nets)
    new = sorted((mutated_names - base_names) | (replaced & mutated_names))
    removed = sorted(base_names - mutated_names)

    outline_changed = (
        delta.outline is not None and delta.outline != base_layout.outline
    )
    inflated = [r.inflated(CLEARANCE) for r in changed_rects(base_layout, delta)]
    probe: Optional[ObstacleSet] = None
    if inflated and not outline_changed:
        probe = ObstacleSet(
            _probe_bound(base_layout, mutated_layout, inflated), inflated
        )

    kept: list[str] = []
    ripped: list[str] = []
    reasons: list[tuple[str, str]] = []

    def rip(name: str, reason: str) -> None:
        ripped.append(name)
        reasons.append((name, reason))

    for name in sorted(mutated_names - set(new)):
        if outline_changed:
            # A resized surface changes the boundary obstacles and the
            # escape coordinates globally; no prior route is trusted.
            rip(name, "outline changed")
            continue
        tree = prev_route.trees.get(name)
        if tree is None:
            rip(name, "no prior route")
            continue
        before, after = base_layout.net(name), mutated_layout.net(name)
        if before is not after and net_to_dict(before) != net_to_dict(after):
            rip(name, "pins changed")
            continue
        if probe is not None and not _tree_clear(probe, tree):
            rip(name, "route intersects changed geometry")
            continue
        kept.append(name)

    return DirtySet(
        kept=tuple(kept),
        ripped=tuple(ripped),
        new=tuple(new),
        removed=tuple(removed),
        reasons=tuple(reasons),
    )
