"""Steiner tree refinement: rip-up-and-reconnect.

The greedy tree builder commits each connection against the tree *as
it existed at that step*.  Once the whole tree exists, a connection
may have a shorter attachment available.  Refinement removes one
connection path at a time and looks at what is left — computed
*geometrically*, exactly like the independent verifier, so no
bookkeeping can drift:

* the remainder is still one connected component → the path was
  redundant; it is deleted outright;
* the remainder falls into exactly two components → the path was a
  bridge; it is re-routed as a multi-source search from one component
  to the other.  The old path touched both components, so it remains
  feasible and the re-route is never costlier;
* three or more components (possible only for paths with several
  mid-path taps) → left alone.

Tree length is therefore monotonically non-increasing, and electrical
connectivity is preserved by construction; both are asserted by the
property tests.
"""

from __future__ import annotations

from typing import Optional

from repro.core.costs import CostModel, WirelengthCost
from repro.core.escape import EscapeMode
from repro.core.pathfinder import PathRequest, find_path
from repro.core.route import RoutePath, RouteTree, TargetSet
from repro.errors import UnroutableError
from repro.geometry.segment import Segment
from repro.layout.net import Net
from repro.layout.terminal import Terminal
from repro.search.engine import Order


def refine_tree(
    net: Net,
    tree: RouteTree,
    obstacles,
    *,
    cost_model: Optional[CostModel] = None,
    mode: EscapeMode = EscapeMode.FULL,
    order: Order = Order.A_STAR,
    max_rounds: int = 2,
) -> RouteTree:
    """Return a refined copy of *tree* (never longer, still connected).

    Parameters
    ----------
    max_rounds:
        Full sweeps over the connection paths; stops early once a sweep
        makes no improvement.
    """
    model = cost_model if cost_model is not None else WirelengthCost()
    refined = RouteTree(
        net_name=tree.net_name,
        paths=list(tree.paths),
        connected_terminals=list(tree.connected_terminals),
        stats=tree.stats,
        traces=list(tree.traces),
    )

    for _round in range(max_rounds):
        improved = False
        for index in range(len(refined.paths) - 1, -1, -1):
            if refined.paths[index].cost == 0 and refined.paths[index].length == 0:
                continue
            components = _components_without(net, refined, index)
            if len(components) == 1:
                # Redundant path: the tree stays connected without it.
                anchor = refined.paths[index].start
                refined.paths[index] = RoutePath((anchor,), cost=0.0)
                improved = True
                continue
            if len(components) != 2:
                continue
            side_a, side_b = components
            sources = _component_points(side_a)
            targets = _component_targets(side_b)
            if not sources or targets is None:
                continue
            request = PathRequest(
                obstacles=obstacles,
                sources=[(p, 0.0) for p in sources],
                targets=targets,
                cost_model=model,
                mode=mode,
                order=order,
            )
            try:
                outcome = find_path(request)
            except UnroutableError:  # pragma: no cover - old bridge feasible
                continue
            if outcome.path.cost < refined.paths[index].cost:
                refined.paths[index] = outcome.path
                refined.stats = refined.stats.merged_with(outcome.stats)
                improved = True
        if not improved:
            break
    return refined


# ----------------------------------------------------------------------
# Geometric contact components
# ----------------------------------------------------------------------
_Element = tuple[str, object]  # ("path", RoutePath) or ("terminal", Terminal)


def _components_without(net: Net, tree: RouteTree, index: int) -> list[list[_Element]]:
    """Connected components of the tree with path *index* removed.

    Elements are whole paths and whole terminals (a terminal's pins are
    electrically one node through its cell).  Contact is geometric:
    shared points between path geometries, or a pin lying on a path.
    """
    elements: list[_Element] = []
    for j, path in enumerate(tree.paths):
        if j != index:
            elements.append(("path", path))
    for terminal in net.terminals:
        elements.append(("terminal", terminal))

    parent = list(range(len(elements)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            if _touch(elements[i], elements[j]):
                union(i, j)

    by_root: dict[int, list[_Element]] = {}
    for i, element in enumerate(elements):
        by_root.setdefault(find(i), []).append(element)
    return list(by_root.values())


def _geometry(element: _Element) -> list[Segment]:
    kind, payload = element
    if kind == "path":
        path = payload
        if len(path.points) == 1:
            return [Segment(path.points[0], path.points[0])]
        return list(path.segments)
    terminal = payload
    return [Segment(pin.location, pin.location) for pin in terminal.pins]


def _touch(a: _Element, b: _Element) -> bool:
    if a[0] == "terminal" and b[0] == "terminal":
        return False  # distinct terminals never touch electrically
    for seg_a in _geometry(a):
        for seg_b in _geometry(b):
            if seg_a.intersects(seg_b):
                return True
    return False


def _component_points(component: list[_Element]):
    """Candidate bridge start points: pins and path bend points."""
    points = []
    seen = set()
    for kind, payload in component:
        if kind == "terminal":
            candidates = payload.locations
        else:
            candidates = payload.points
        for p in candidates:
            if p not in seen:
                seen.add(p)
                points.append(p)
    return points


def _component_targets(component: list[_Element]) -> Optional[TargetSet]:
    points = []
    segments = []
    for kind, payload in component:
        if kind == "terminal":
            points.extend(payload.locations)
        else:
            if len(payload.points) == 1:
                points.append(payload.points[0])
            else:
                segments.extend(payload.segments)
    if not points and not segments:
        return None
    return TargetSet(points=points, segments=segments)
