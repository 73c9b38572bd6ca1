"""Built-in routing strategies: single, two-pass, negotiated, timing-driven.

Importing this module installs the four built-ins on
:data:`~repro.api.registry.DEFAULT_REGISTRY`:

``"single"``
    The paper's base algorithm — every net routed independently, one
    frozen cost model.  Congestion is still measured once so callers
    can see where a congestion strategy would have helped.
``"two-pass"``
    The Conclusions' sketch — route, measure, penalize the overflowed
    passages, reroute the affected nets (``passes`` generalizes to
    accumulated repasses).
``"negotiated"``
    The PathFinder-style generalization — iterated rip-up-and-reroute
    under present × history congestion costs
    (:mod:`repro.core.negotiate`).
``"timing-driven"``
    The negotiated loop with a delay model on top — per-net
    criticality blends a delay term into the congestion cost and
    orders each wave most-critical-first (:mod:`repro.core.timing`).

Every built-in declares a typed params schema (a frozen dataclass —
see :mod:`repro.api.params`): ``single`` and ``two-pass`` use the
:class:`SingleParams`/:class:`TwoPassParams` mirrors defined here,
the two negotiation strategies reuse their loop configs directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.congestion import check_max_gap, find_passages, measure_congestion
from repro.core.negotiate import (
    NegotiatedRouter,
    NegotiationConfig,
    NegotiationResult,
    two_pass,
)
from repro.core.timing import TimingConfig, TimingDrivenRouter
from repro.incremental.engine import (
    IncrementalOutcome,
    incremental_negotiated,
    incremental_single,
)
from repro.api.registry import StrategyOutcome, register_strategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.request import RouteRequest
    from repro.core.router import GlobalRouter
    from repro.incremental.engine import WarmStart


def _adapt_incremental(outcome: IncrementalOutcome) -> StrategyOutcome:
    """Convert an engine-level outcome to the pipeline's shape.

    The :class:`~repro.incremental.dirty.DirtySet` is dropped here —
    the pipeline already holds it from :func:`plan_reroute` and folds
    the counts into the result timings.
    """
    return StrategyOutcome(
        route=outcome.route,
        first=outcome.first,
        congestion_before=outcome.congestion_before,
        congestion_after=outcome.congestion_after,
        iterations=tuple(outcome.iterations),
        rerouted_nets=outcome.rerouted_nets,
        converged=outcome.converged,
        search_stats=outcome.search_stats,
    )


def _adapt_waves(result: NegotiationResult) -> StrategyOutcome:
    """Convert a wave-loop result to the pipeline's shape."""
    return StrategyOutcome(
        route=result.final,
        first=result.first,
        congestion_before=result.congestion_before,
        congestion_after=result.congestion_after,
        iterations=tuple(result.iterations),
        rerouted_nets=tuple(result.rerouted_nets),
        converged=result.converged,
        search_stats=result.search_stats,
        timing=result.timing,
    )


@dataclass(frozen=True)
class SingleParams:
    """Typed params schema of the ``single`` strategy."""

    max_gap: Optional[int] = None
    measure_congestion: bool = True

    def __post_init__(self) -> None:
        check_max_gap(self.max_gap)


@dataclass(frozen=True)
class TwoPassParams:
    """Typed params schema of the ``two-pass`` strategy."""

    penalty_weight: float = 2.0
    passes: int = 2
    max_gap: Optional[int] = None

    def __post_init__(self) -> None:
        check_max_gap(self.max_gap)


@register_strategy("single", params=SingleParams)
class SingleStrategy:
    """One independent pass of every net.

    Parameters
    ----------
    max_gap:
        Passage width cutoff for the diagnostic congestion measurement
        (``None`` considers all passages).
    measure_congestion:
        Skip the measurement entirely when ``False`` (large batch runs
        that only want wirelength).
    """

    def __init__(self, *, max_gap: Optional[int] = None, measure_congestion: bool = True):
        self.max_gap = max_gap
        self.measure = measure_congestion

    def run(self, router: "GlobalRouter", request: "RouteRequest") -> StrategyOutcome:
        """One independent pass, plus a diagnostic congestion measurement."""
        # A single pass never re-queries a ray often enough to pay the
        # memo back — the committed bench showed cache-on *losing* to
        # cache-off on single_pass_dense — so skip populating it.
        # Memoization never changes answers, only wall clock, and the
        # bench's identity gate pins that.  Restore the caller's
        # setting afterwards: the router object may outlive this run.
        was_enabled = router.obstacles.ray_cache_enabled
        router.obstacles.ray_cache_enabled = False
        try:
            route = router.route_all(on_unroutable=request.on_unroutable)
        finally:
            router.obstacles.ray_cache_enabled = was_enabled
        if not self.measure:
            return StrategyOutcome(route=route, first=route)
        congestion = measure_congestion(
            find_passages(router.layout, max_gap=self.max_gap), route
        )
        return StrategyOutcome(
            route=route,
            first=route,
            congestion_before=congestion,
            congestion_after=congestion,
            converged=congestion.total_overflow == 0,
        )

    def run_incremental(
        self, router: "GlobalRouter", request: "RouteRequest", warm: "WarmStart"
    ) -> StrategyOutcome:
        """Route only the dirty nets; kept trees survive verbatim."""
        return _adapt_incremental(
            incremental_single(
                router,
                warm,
                on_unroutable=request.on_unroutable,
                max_gap=self.max_gap,
                measure=self.measure,
            )
        )


@register_strategy("two-pass", params=TwoPassParams)
class TwoPassStrategy:
    """The paper's congestion-penalized repass scheme.

    Parameters: ``penalty_weight``, ``passes`` (>= 2), ``max_gap``
    (see :class:`TwoPassParams`).

    Deliberately *not* incremental: the scheme's penalty regions
    accumulate from its own first pass, so there is no meaningful
    warm-start seed — ``RoutingPipeline.reroute`` rejects it up front.
    """

    def __init__(
        self,
        *,
        penalty_weight: float = 2.0,
        passes: int = 2,
        max_gap: Optional[int] = None,
    ):
        self.penalty_weight = penalty_weight
        self.passes = passes
        self.max_gap = max_gap

    def run(self, router: "GlobalRouter", request: "RouteRequest") -> StrategyOutcome:
        """Route, measure, penalize, reroute the affected nets."""
        return _adapt_waves(
            two_pass(
                router,
                penalty_weight=self.penalty_weight,
                passes=self.passes,
                max_gap=self.max_gap,
                on_unroutable=request.on_unroutable,
            )
        )


@register_strategy("negotiated", params=NegotiationConfig)
class NegotiatedStrategy:
    """PathFinder-style iterated negotiation.

    Parameters are the :class:`~repro.core.negotiate.NegotiationConfig`
    knobs (``max_iterations``, ``present_weight``, ``history_weight``,
    ``history_gain``, ``max_gap``); the registry rejects unknown names.
    """

    def __init__(self, **params):
        self.negotiation = NegotiationConfig(**params)

    def run(self, router: "GlobalRouter", request: "RouteRequest") -> StrategyOutcome:
        """Iterate rip-up-and-reroute until legal or out of budget."""
        return _adapt_waves(
            NegotiatedRouter.from_router(router, negotiation=self.negotiation).run(
                on_unroutable=request.on_unroutable
            )
        )

    def run_incremental(
        self, router: "GlobalRouter", request: "RouteRequest", warm: "WarmStart"
    ) -> StrategyOutcome:
        """Warm-start the negotiation from the kept routes' congestion."""
        return _adapt_incremental(
            incremental_negotiated(
                router,
                warm,
                self.negotiation,
                on_unroutable=request.on_unroutable,
            )
        )


@register_strategy("timing-driven", params=TimingConfig)
class TimingDrivenStrategy:
    """Criticality-aware negotiation (delay-blended congestion costs).

    Parameters are the :class:`~repro.core.timing.TimingConfig` knobs
    — the negotiated set plus ``delay_weight``, ``load_factor``, and
    ``target_delay``; the registry rejects unknown names.

    Deliberately *not* incremental (like ``two-pass``): criticalities
    derive from whole-netlist delays, which a warm start would carry
    over stale — ``RoutingPipeline.reroute`` rejects it up front.
    """

    def __init__(self, **params):
        self.timing = TimingConfig(**params)

    def run(self, router: "GlobalRouter", request: "RouteRequest") -> StrategyOutcome:
        """Iterate criticality-ordered rip-up-and-reroute."""
        return _adapt_waves(
            TimingDrivenRouter.from_router(router, timing=self.timing).run(
                on_unroutable=request.on_unroutable
            )
        )


#: The names guaranteed to be available out of the box.
BUILTIN_STRATEGIES = ("single", "two-pass", "negotiated", "timing-driven")
