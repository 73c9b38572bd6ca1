"""The unified routing result — one shape for every strategy.

Every pipeline run, whatever its strategy, produces a
:class:`RouteResult`: the final :class:`~repro.core.route.GlobalRoute`,
congestion before/after as JSON-friendly summaries, per-iteration
convergence stats, phase timings, verification violations, a routing
summary, and (when requested) the detailed-routing outcome.

Results round-trip through JSON.  Two runtime-only conveniences ride
along without being serialized: the live
:class:`~repro.detail.detailed.DetailedResult` object (its summary is
what travels) and nothing else — everything the wave loop's
``NegotiationResult`` reports is representable here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.errors import RoutingError
from repro.analysis.metrics import RoutingSummary
from repro.core.congestion import CongestionMap
from repro.core.negotiate import IterationStats
from repro.core.route import GlobalRoute
from repro.core.route_io import route_from_dict, route_to_dict
from repro.core.timing import TimingAnalysis
from repro.detail.detailed import DetailedResult

FORMAT_VERSION = 1


@dataclass(frozen=True)
class CongestionSummary:
    """JSON-friendly aggregate of one congestion measurement."""

    passages: int
    overflowed_passages: int
    total_overflow: int
    max_overflow: int
    max_utilization: float

    @classmethod
    def from_map(cls, congestion: CongestionMap) -> "CongestionSummary":
        """Summarize a measured :class:`~repro.core.congestion.CongestionMap`."""
        return cls(
            passages=len(congestion.entries),
            overflowed_passages=congestion.overflow_count,
            total_overflow=congestion.total_overflow,
            max_overflow=congestion.max_overflow,
            max_utilization=congestion.max_utilization,
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "passages": self.passages,
            "overflowed_passages": self.overflowed_passages,
            "total_overflow": self.total_overflow,
            "max_overflow": self.max_overflow,
            "max_utilization": self.max_utilization,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CongestionSummary":
        """Inverse of :meth:`as_dict`."""
        return cls(
            passages=int(data["passages"]),
            overflowed_passages=int(data["overflowed_passages"]),
            total_overflow=int(data["total_overflow"]),
            max_overflow=int(data["max_overflow"]),
            max_utilization=float(data["max_utilization"]),
        )


@dataclass(frozen=True)
class DetailSummary:
    """JSON-friendly aggregate of one detailed-routing outcome."""

    channels: int
    tracks: int
    vias: int
    wirelength: int
    conflicts: int
    over_capacity_channels: int

    @classmethod
    def from_detailed(cls, detailed: DetailedResult) -> "DetailSummary":
        """Summarize a live :class:`~repro.detail.detailed.DetailedResult`."""
        return cls(
            channels=detailed.channel_count,
            tracks=detailed.track_total,
            vias=detailed.via_count,
            wirelength=detailed.total_wirelength,
            conflicts=detailed.conflict_count,
            over_capacity_channels=detailed.over_capacity_channels,
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "channels": self.channels,
            "tracks": self.tracks,
            "vias": self.vias,
            "wirelength": self.wirelength,
            "conflicts": self.conflicts,
            "over_capacity_channels": self.over_capacity_channels,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DetailSummary":
        """Inverse of :meth:`as_dict`."""
        return cls(
            channels=int(data["channels"]),
            tracks=int(data["tracks"]),
            vias=int(data["vias"]),
            wirelength=int(data["wirelength"]),
            conflicts=int(data["conflicts"]),
            over_capacity_channels=int(data["over_capacity_channels"]),
        )


@dataclass
class RouteResult:
    """Everything one pipeline run produced.

    Attributes
    ----------
    strategy:
        Name of the strategy that produced the route.
    route:
        The final :class:`~repro.core.route.GlobalRoute`.
    summary:
        Aggregate routing metrics (nets, wirelength, effort).
    congestion_before / congestion_after:
        Passage congestion after the first pass and after the strategy
        finished (equal for the single-pass strategy).
    iterations:
        Per-iteration convergence stats (empty for single-pass;
        iteration 0 is the unpenalized first pass).
    rerouted_nets:
        Nets moved by congestion repasses, sorted.
    converged:
        Whether the strategy reached zero overflow (``None`` when the
        strategy has no convergence notion).
    timing:
        Per-net delay/criticality/slack analysis of the final route
        (:class:`~repro.core.timing.TimingAnalysis`; ``None`` unless
        the strategy computed one — ``timing-driven`` always does).
    timings:
        Wall-clock seconds per pipeline phase (``route``, ``verify``,
        ``detail``, ``total``).
    warnings:
        Structured non-fatal findings about the run.  Each entry is a
        dict with at least ``kind`` and ``message``; the only built-in
        kind today is ``"non-convergence"`` (an iterative strategy
        stopped at its iteration cap with overflow remaining), which
        additionally carries ``iterations`` and ``total_overflow``.
        Results used to report this only through ``converged`` — easy
        to miss, so capped runs shipped silently overflowing routes.
    violations:
        Independent verification report per net name (empty when clean
        or when ``verify`` was off).
    verified:
        Whether verification actually ran.
    detail_summary:
        Aggregate of the detailed phase (``None`` when not requested).
    detailed:
        The live detailed-routing object — runtime only, not
        serialized; reloaded results carry just the summary.
    """

    strategy: str
    route: GlobalRoute
    summary: RoutingSummary
    congestion_before: Optional[CongestionSummary] = None
    congestion_after: Optional[CongestionSummary] = None
    iterations: tuple[IterationStats, ...] = ()
    rerouted_nets: tuple[str, ...] = ()
    converged: Optional[bool] = None
    timing: Optional[TimingAnalysis] = None
    timings: dict[str, float] = field(default_factory=dict)
    warnings: list[dict[str, Any]] = field(default_factory=list)
    violations: dict[str, list[str]] = field(default_factory=dict)
    verified: bool = False
    detail_summary: Optional[DetailSummary] = None
    detailed: Optional[DetailedResult] = None

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """No failed nets and no verification violations."""
        return not self.route.failed_nets and not self.violations

    @property
    def total_length(self) -> int:
        """Final total wirelength."""
        return self.route.total_length

    @property
    def failed_nets(self) -> list[str]:
        """Nets that could not be routed (skip mode)."""
        return list(self.route.failed_nets)

    @property
    def iteration_count(self) -> int:
        """Congestion repasses actually run (excludes the first pass)."""
        return max(0, len(self.iterations) - 1)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Convert to a JSON-ready dict (live objects become summaries)."""
        return {
            "version": FORMAT_VERSION,
            "strategy": self.strategy,
            "route": route_to_dict(self.route),
            "summary": self.summary.as_dict(),
            "congestion_before": (
                None if self.congestion_before is None else self.congestion_before.as_dict()
            ),
            "congestion_after": (
                None if self.congestion_after is None else self.congestion_after.as_dict()
            ),
            "iterations": [it.as_dict() for it in self.iterations],
            "rerouted_nets": list(self.rerouted_nets),
            "converged": self.converged,
            "timing": None if self.timing is None else self.timing.as_dict(),
            "timings": dict(self.timings),
            "warnings": [dict(w) for w in self.warnings],
            "violations": {name: list(v) for name, v in self.violations.items()},
            "verified": self.verified,
            "detail_summary": (
                None if self.detail_summary is None else self.detail_summary.as_dict()
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RouteResult":
        """Rebuild a result from :meth:`to_dict` output."""
        try:
            version = data["version"]
            if version != FORMAT_VERSION:
                raise RoutingError(f"unsupported result format version {version!r}")
            before = data.get("congestion_before")
            after = data.get("congestion_after")
            detail = data.get("detail_summary")
            timing = data.get("timing")
            return cls(
                strategy=data["strategy"],
                route=route_from_dict(data["route"]),
                summary=RoutingSummary.from_dict(data["summary"]),
                congestion_before=(
                    None if before is None else CongestionSummary.from_dict(before)
                ),
                congestion_after=(
                    None if after is None else CongestionSummary.from_dict(after)
                ),
                iterations=tuple(
                    IterationStats.from_dict(it) for it in data.get("iterations", ())
                ),
                rerouted_nets=tuple(data.get("rerouted_nets", ())),
                converged=data.get("converged"),
                timing=None if timing is None else TimingAnalysis.from_dict(timing),
                timings=dict(data.get("timings", {})),
                warnings=[dict(w) for w in data.get("warnings", ())],
                violations={
                    name: list(v) for name, v in data.get("violations", {}).items()
                },
                verified=bool(data.get("verified", False)),
                detail_summary=(
                    None if detail is None else DetailSummary.from_dict(detail)
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RoutingError(f"malformed route result: {exc}") from exc

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RouteResult":
        """Parse a result from a JSON string."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RoutingError(f"invalid result JSON: {exc}") from exc
        return cls.from_dict(data)
