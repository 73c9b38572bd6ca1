"""Built-in routing strategies: single, two-pass, negotiated, timing-driven.

Importing this module installs the four built-ins on
:data:`~repro.api.registry.DEFAULT_REGISTRY`:

``"single"``
    The paper's base algorithm — every net routed independently, one
    frozen cost model.  Congestion is still measured once so callers
    can see where a congestion strategy would have helped.  A reroute
    routes only the dirty nets into the kept routes
    (:meth:`~repro.core.router.GlobalRouter.route_into`).
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

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.congestion import check_max_gap, find_passages, measure_congestion
from repro.core.negotiate import NegotiatedRouter, NegotiationConfig, negotiate, two_pass
from repro.core.route import GlobalRoute
from repro.core.timing import TimingConfig, TimingDrivenRouter
from repro.errors import RoutingError
from repro.api.registry import StrategyOutcome, register_strategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.request import RouteRequest
    from repro.core.router import GlobalRouter
    from repro.incremental.engine import WarmStart


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
        if self.passes < 2:
            raise RoutingError(f"two-pass routing needs passes >= 2, got {self.passes}")
        if self.penalty_weight < 0:
            raise RoutingError(
                f"two-pass penalty_weight must be >= 0, got {self.penalty_weight}"
            )
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

    def __init__(self, **params):
        self.params = SingleParams(**params)

    def run(self, router: "GlobalRouter", request: "RouteRequest") -> StrategyOutcome:
        """One independent pass, plus a diagnostic congestion measurement."""
        return self._measured(router, router.route_all(on_unroutable=request.on_unroutable))

    def run_incremental(
        self, router: "GlobalRouter", request: "RouteRequest", warm: "WarmStart"
    ) -> StrategyOutcome:
        """Route only the dirty nets; kept trees survive verbatim."""
        started = time.perf_counter()
        route = warm.kept.copy()
        rerouted = router.route_into(route, warm.dirty, on_unroutable=request.on_unroutable)
        route.stats.elapsed_seconds = time.perf_counter() - started
        return self._measured(router, route, rerouted_nets=tuple(sorted(rerouted)))

    def _measured(
        self, router: "GlobalRouter", route: GlobalRoute, rerouted_nets: tuple[str, ...] = ()
    ) -> StrategyOutcome:
        """*route* as the outcome, with its congestion unless measuring is off."""
        outcome = StrategyOutcome(route=route, first=route, rerouted_nets=rerouted_nets)
        if self.params.measure_congestion:
            passages = find_passages(router.layout, max_gap=self.params.max_gap)
            congestion = measure_congestion(passages, route)
            outcome.congestion_before = outcome.congestion_after = congestion
            outcome.converged = congestion.total_overflow == 0
        return outcome


@register_strategy("two-pass", params=TwoPassParams)
class TwoPassStrategy:
    """The paper's congestion-penalized repass scheme.

    Parameters: ``penalty_weight``, ``passes`` (>= 2), ``max_gap``
    (see :class:`TwoPassParams`).

    Deliberately *not* incremental: the scheme's penalty regions
    accumulate from its own first pass, so there is no meaningful
    warm-start seed — ``RoutingPipeline.reroute`` rejects it up front.
    """

    def __init__(self, **params):
        self.params = TwoPassParams(**params)

    def run(self, router: "GlobalRouter", request: "RouteRequest") -> StrategyOutcome:
        """Route, measure, penalize, reroute the affected nets."""
        return two_pass(
            router,
            penalty_weight=self.params.penalty_weight,
            passes=self.params.passes,
            max_gap=self.params.max_gap,
            on_unroutable=request.on_unroutable,
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
        return NegotiatedRouter(router=router, negotiation=self.negotiation).run(
            on_unroutable=request.on_unroutable
        )

    def run_incremental(
        self, router: "GlobalRouter", request: "RouteRequest", warm: "WarmStart"
    ) -> StrategyOutcome:
        """Warm-start the negotiation from the kept routes' congestion."""
        return negotiate(
            NegotiatedRouter(router=router, negotiation=self.negotiation),
            on_unroutable=request.on_unroutable,
            seed=warm,
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
        return TimingDrivenRouter(router=router, timing=self.timing).run(
            on_unroutable=request.on_unroutable
        )


#: The names guaranteed to be available out of the box.
BUILTIN_STRATEGIES = ("single", "two-pass", "negotiated", "timing-driven")
