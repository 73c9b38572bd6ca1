"""Delay analysis and the timing-driven negotiation policy.

The negotiated loop (:mod:`repro.core.negotiate`) optimizes overflow
then wirelength, which happily trades a long detour on a chip-spanning
net for a short one on a local net.  For timing that trade is exactly
backwards: the chip-spanning net is the critical path.  This module
adds the standard fix (cgra_pnr's timing-driven router is the direct
reference): a cheap delay model over the routed trees, a per-net
*criticality* in ``[0, 1]``, and a policy for the shared wave loop
(:class:`TimingDrivenRouter`) that re-prices and re-orders every wave
so critical nets stay short while non-critical nets absorb the
detours.

The delay model is deliberately simple — Elmore-flavoured, not Elmore:
a net's delay is its longest source→sink path length *along the routed
tree*, plus ``load_factor`` times the total tree wirelength (the
driver sees the whole tree as load).  That is enough to make "which
net may detour" a principled choice without modelling RC at all.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.errors import RoutingError
from repro.core.congestion import CongestionMap
from repro.core.costs import CostModel, NegotiatedCongestionCost, TimingDrivenCost
from repro.core.negotiate import NegotiatedRouter, NegotiationConfig
from repro.core.route import GlobalRoute, RouteTree
from repro.core.router import GlobalRouter, RouterConfig
from repro.layout.layout import Layout
from repro.layout.net import Net


@dataclass(frozen=True)
class TimingConfig(NegotiationConfig):
    """Knobs of the timing-driven negotiation loop.

    The congestion knobs (``max_iterations`` .. ``max_gap``) are
    inherited from :class:`~repro.core.negotiate.NegotiationConfig`
    and mean exactly what they mean there; the last three are
    timing-specific.

    Attributes
    ----------
    delay_weight:
        Per-unit-length delay surcharge a fully critical net pays
        (:class:`~repro.core.costs.TimingDrivenCost`); 0 reduces the
        blend to criticality-scaled congestion only.
    load_factor:
        Extra delay per unit of *total tree* wirelength added to every
        sink (the driver loading term).  0 makes delay the pure longest
        source→sink path length.
    target_delay:
        Delay target that per-net slack is measured against.  ``None``
        uses the worst observed delay, so the most critical net has
        exactly zero slack.
    """

    delay_weight: float = 0.5
    load_factor: float = 0.0
    target_delay: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        for knob in ("delay_weight", "load_factor"):
            value = getattr(self, knob)
            if value < 0:
                raise RoutingError(f"timing {knob} must be >= 0, got {value}")
        if self.target_delay is not None and self.target_delay < 0:
            raise RoutingError(
                f"timing target_delay must be >= 0, got {self.target_delay}"
            )


@dataclass(frozen=True)
class NetTiming:
    """One net's delay picture under the current routing."""

    net_name: str
    delay: float
    criticality: float
    slack: float

    def as_dict(self) -> dict:
        """JSON-ready representation (used by :mod:`repro.api.result`)."""
        return {
            "delay": self.delay,
            "criticality": self.criticality,
            "slack": self.slack,
        }

    @classmethod
    def from_dict(cls, net_name: str, data: dict) -> "NetTiming":
        """Inverse of :meth:`as_dict`."""
        return cls(
            net_name=net_name,
            delay=float(data["delay"]),
            criticality=float(data["criticality"]),
            slack=float(data["slack"]),
        )


@dataclass
class TimingAnalysis:
    """Per-net delays, criticalities, and slacks for one routing."""

    nets: dict[str, NetTiming] = field(default_factory=dict)
    worst_delay: float = 0.0
    target: float = 0.0

    @property
    def worst_net(self) -> Optional[str]:
        """Name of the net carrying the worst delay (``None`` if empty)."""
        if not self.nets:
            return None
        return min(
            self.nets, key=lambda name: (-self.nets[name].delay, name)
        )

    def criticality(self, net_name: str) -> float:
        """Criticality of *net_name* (0 for unrouted/unknown nets)."""
        timing = self.nets.get(net_name)
        return timing.criticality if timing is not None else 0.0

    def order_by_criticality(self, net_names: Iterable[str]) -> list[str]:
        """*net_names* sorted most-critical-first (name breaks ties).

        A permutation of the input: the rip-up loop routes critical
        nets before the congestion map fills with everyone else's
        detours.
        """
        return sorted(net_names, key=lambda name: (-self.criticality(name), name))

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "worst_delay": self.worst_delay,
            "target": self.target,
            "nets": {name: timing.as_dict() for name, timing in sorted(self.nets.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TimingAnalysis":
        """Inverse of :meth:`as_dict`."""
        return cls(
            nets={
                name: NetTiming.from_dict(name, timing)
                for name, timing in data.get("nets", {}).items()
            },
            worst_delay=float(data["worst_delay"]),
            target=float(data["target"]),
        )


def _tree_distances(tree: RouteTree, sources: Sequence) -> Optional[dict]:
    """Shortest along-tree distance from any *source* pin location.

    Builds the tree's connectivity graph — every segment split at every
    path point and pin location lying on it — and runs a multi-source
    Dijkstra.  Returns ``{(x, y): distance}`` for every graph node, or
    ``None`` when no source lies on the tree (degenerate geometry).
    """
    key_points = {(p.x, p.y) for p in tree.points}
    key_points.update((p.x, p.y) for p in sources)
    segments = tree.segments
    if not segments:
        # Every connection was zero-length: all terminals coincide.
        on_tree = [(p.x, p.y) for p in sources if (p.x, p.y) in key_points]
        return {xy: 0 for xy in key_points} if on_tree else None

    adjacency: dict[tuple, list] = {}

    def link(a: tuple, b: tuple, dist: int) -> None:
        adjacency.setdefault(a, []).append((b, dist))
        adjacency.setdefault(b, []).append((a, dist))

    for seg in segments:
        a, b = seg.a, seg.b  # normalized: a <= b
        if seg.is_horizontal:
            stops = sorted(
                {x for x, y in key_points if y == a.y and a.x <= x <= b.x}
                | {a.x, b.x}
            )
            for lo, hi in zip(stops, stops[1:]):
                link((lo, a.y), (hi, a.y), hi - lo)
        else:
            stops = sorted(
                {y for x, y in key_points if x == a.x and a.y <= y <= b.y}
                | {a.y, b.y}
            )
            for lo, hi in zip(stops, stops[1:]):
                link((a.x, lo), (a.x, hi), hi - lo)

    starts = [(p.x, p.y) for p in sources if (p.x, p.y) in adjacency]
    if not starts:
        return None
    distances: dict[tuple, int] = {}
    frontier = [(0, xy) for xy in sorted(set(starts))]
    heapq.heapify(frontier)
    while frontier:
        dist, xy = heapq.heappop(frontier)
        if xy in distances:
            continue
        distances[xy] = dist
        for neighbor, step in adjacency[xy]:
            if neighbor not in distances:
                heapq.heappush(frontier, (dist + step, neighbor))
    return distances


def net_delay(tree: RouteTree, net: Net, *, load_factor: float = 0.0) -> float:
    """Delay of one routed net under the path-length model.

    Longest source→sink distance measured *along the routed tree* (the
    source is the net's first terminal, matching the router's seed),
    plus ``load_factor`` times the total tree wirelength.  Unreachable
    geometry (a tree the source does not touch — should not happen for
    router output) falls back to the total wirelength bound.
    """
    sources = [pin.location for pin in net.terminals[0].pins]
    total = tree.total_length
    distances = _tree_distances(tree, sources)
    if distances is None:
        return float(total) + load_factor * total
    longest = 0
    for terminal in net.terminals[1:]:
        reached = [
            distances[(pin.location.x, pin.location.y)]
            for pin in terminal.pins
            if (pin.location.x, pin.location.y) in distances
        ]
        # An unconnected sink pin set (not router output) costs the
        # conservative whole-tree bound.
        arrival = min(reached) if reached else total
        if arrival > longest:
            longest = arrival
    return float(longest) + load_factor * total


def analyze_route_timing(
    route: GlobalRoute,
    layout: Layout,
    *,
    load_factor: float = 0.0,
    target_delay: Optional[float] = None,
) -> TimingAnalysis:
    """Delay, criticality, and slack for every routed net.

    Criticality is ``delay / worst_delay`` clamped to ``[0, 1]`` (all
    zero when nothing has any delay); slack is measured against
    *target_delay*, defaulting to the worst observed delay.
    """
    delays: dict[str, float] = {}
    for net in layout.nets:
        tree = route.trees.get(net.name)
        if tree is None:
            continue
        delays[net.name] = net_delay(tree, net, load_factor=load_factor)
    worst = max(delays.values(), default=0.0)
    target = float(target_delay) if target_delay is not None else worst
    nets = {
        name: NetTiming(
            net_name=name,
            delay=delay,
            criticality=min(1.0, max(0.0, delay / worst)) if worst > 0 else 0.0,
            slack=target - delay,
        )
        for name, delay in delays.items()
    }
    return TimingAnalysis(nets=nets, worst_delay=worst, target=target)


class TimingDrivenRouter(NegotiatedRouter):
    """Criticality-aware negotiated routing of one layout.

    A :class:`~repro.core.negotiate.NegotiatedRouter` policy with
    three timing hooks, all recomputed per wave:

    1. After every pass the routed trees are re-analyzed
       (:func:`analyze_route_timing`) — criticalities always reflect
       the *current* geometry.
    2. Each wave routes its affected nets most-critical-first, every
       net under its own frozen
       :class:`~repro.core.costs.TimingDrivenCost` carrying that net's
       criticality.  (Congestion terms stay frozen for the wave, so
       the ordering only matters across waves, like the negotiated
       loop.)
    3. The best route is the lexicographically least
       ``(total_overflow, worst_delay, wirelength)`` — delay outranks
       wirelength, which is the whole point.
    """

    def __init__(
        self,
        layout: Optional[Layout] = None,
        config: RouterConfig = RouterConfig(),
        *,
        cost_model: Optional[CostModel] = None,
        timing: Optional[TimingConfig] = None,
        router: Optional[GlobalRouter] = None,
    ):
        super().__init__(
            layout,
            config,
            cost_model=cost_model,
            negotiation=timing if timing is not None else TimingConfig(),
            router=router,
        )

    @property
    def timing(self) -> TimingConfig:
        """The loop's knobs."""
        return self.negotiation

    def analyze(self, route: GlobalRoute) -> TimingAnalysis:
        """:func:`analyze_route_timing` under this loop's knobs."""
        return analyze_route_timing(
            route,
            self.layout,
            load_factor=self.timing.load_factor,
            target_delay=self.timing.target_delay,
        )

    def wave_plan(
        self, nets: list[str], cost: NegotiatedCongestionCost, analysis: TimingAnalysis
    ) -> tuple[list[str], dict[str, TimingDrivenCost]]:
        """Most-critical-first, each net priced under its own criticality."""
        knobs = self.timing
        order = analysis.order_by_criticality(nets)
        return order, {
            name: TimingDrivenCost(
                cost.terms,
                criticality=analysis.criticality(name),
                delay_weight=knobs.delay_weight,
                present_weight=knobs.present_weight,
                history_weight=knobs.history_weight,
                base=self.router.cost_model,
            )
            for name in order
        }

    def key(
        self, route: GlobalRoute, congestion: CongestionMap, analysis: TimingAnalysis
    ) -> tuple:
        """Overflow, then worst delay, then wirelength."""
        return (congestion.total_overflow, analysis.worst_delay, route.total_length)
