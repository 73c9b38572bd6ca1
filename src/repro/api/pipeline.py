"""The routing pipeline: RouteRequest in, RouteResult out.

:class:`RoutingPipeline` is the one execution path behind every public
frontend — the CLI, the batch facade, library callers, and any future
service.  It resolves the layout, validates it, builds the router,
resolves the strategy from the registry, runs it, and folds
verification and detailed routing into one :class:`RouteResult` with
per-phase timings.

:meth:`RoutingPipeline.reroute` is the incremental sibling: it applies
a :class:`~repro.incremental.delta.LayoutDelta` to a previously routed
base request, classifies the prior routes (kept / ripped / new — see
:mod:`repro.incremental.dirty`), and hands the warm start to the
strategy's ``run_incremental`` so only the dirty nets are routed.  The
back half — verification, detail, result assembly — is shared, so an
incremental :class:`RouteResult` is indistinguishable in shape from a
from-scratch one.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

from repro.analysis.metrics import summarize_route
from repro.analysis.verify import detailed_violations, verify_global_route
from repro.errors import RoutingError
from repro.core.router import GlobalRouter
from repro.layout.layout import Layout
from repro.layout.validate import validate_layout
from repro.incremental.engine import plan_reroute
from repro.api.registry import DEFAULT_REGISTRY, StrategyOutcome, StrategyRegistry
from repro.api.request import RouteRequest
from repro.api.result import CongestionSummary, DetailSummary, RouteResult

# Installing the built-in strategies is a side effect of importing the
# strategies module; the pipeline must never see an empty registry.
import repro.api.strategies  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.rerouting import RerouteRequest


class RoutingPipeline:
    """Executes :class:`~repro.api.request.RouteRequest` objects.

    Parameters
    ----------
    registry:
        Strategy registry to resolve names from; defaults to the
        process-wide :data:`~repro.api.registry.DEFAULT_REGISTRY` with
        the built-ins installed.
    """

    def __init__(self, registry: Optional[StrategyRegistry] = None):
        self.registry = registry if registry is not None else DEFAULT_REGISTRY

    def run(self, request: RouteRequest, *, layout: Optional[Layout] = None) -> RouteResult:
        """Execute *request* and return the unified result.

        *layout* short-circuits :meth:`RouteRequest.resolve_layout` for
        callers that already hold the parsed layout (the CLI resolves
        once and reuses it for rendering).
        """
        total_started = time.perf_counter()
        timings: dict[str, float] = {}

        if layout is None:
            layout = request.resolve_layout()
        validate_layout(layout)
        # Resolve the strategy before routing so an unknown name or bad
        # params fail fast, not after minutes of first-pass work.
        strategy = self.registry.create(request.strategy, request.strategy_params)
        router = GlobalRouter(layout, request.config)

        route_started = time.perf_counter()
        outcome = strategy.run(router, request)
        timings["route"] = time.perf_counter() - route_started
        return self._finish(request, layout, outcome, timings, total_started)

    def reroute(
        self,
        request: "RerouteRequest",
        *,
        prev_result: RouteResult,
        base_layout: Optional[Layout] = None,
    ) -> RouteResult:
        """Incrementally re-route *request*'s base after its delta.

        *prev_result* must be the base request's result (the service
        resolves it from the content-addressed cache; library callers
        pass whatever they kept).  *base_layout* short-circuits
        :meth:`RouteRequest.resolve_layout` on the base request.

        The returned result describes the *mutated* layout and carries
        extra timing keys: a ``plan`` phase (delta application +
        dirty-set classification) and the ``kept_nets`` /
        ``ripped_nets`` / ``new_nets`` / ``removed_nets`` counts.
        """
        total_started = time.perf_counter()
        timings: dict[str, float] = {}

        base = request.base
        if base_layout is None:
            base_layout = base.resolve_layout()
        # Resolve the strategy first: an unknown name — or one that
        # cannot warm-start at all — must fail before any routing work.
        strategy = self.registry.create(base.strategy, base.strategy_params)
        if not hasattr(strategy, "run_incremental"):
            raise RoutingError(
                f"strategy {base.strategy!r} does not support incremental "
                f"rerouting (no run_incremental); route the mutated layout "
                f"from scratch instead"
            )

        plan_started = time.perf_counter()
        mutated_layout, warm = plan_reroute(
            prev_result.route, base_layout, request.delta
        )
        validate_layout(mutated_layout)
        timings["plan"] = time.perf_counter() - plan_started
        # The classification counts ride in the timings block (floats,
        # like the ray-cache counters) so every reroute result reports
        # how much work the delta actually caused.
        classification = warm.classification
        timings["kept_nets"] = float(len(classification.kept))
        timings["ripped_nets"] = float(len(classification.ripped))
        timings["new_nets"] = float(len(classification.new))
        timings["removed_nets"] = float(len(classification.removed))

        mutated_request = base.with_layout(mutated_layout)
        router = GlobalRouter(mutated_layout, mutated_request.config)
        route_started = time.perf_counter()
        outcome = strategy.run_incremental(router, mutated_request, warm)
        timings["route"] = time.perf_counter() - route_started
        return self._finish(
            mutated_request, mutated_layout, outcome, timings, total_started
        )

    def _finish(
        self,
        request: RouteRequest,
        layout: Layout,
        outcome: StrategyOutcome,
        timings: dict[str, float],
        total_started: float,
    ) -> RouteResult:
        """The shared back half: verify, detail, assembly.

        With both ``verify`` and ``detail`` on, the detailed wires are
        checked too; their findings join the global ones under each
        wire's net name.
        """
        violations: dict[str, list[str]] = {}
        if request.verify:
            verify_started = time.perf_counter()
            violations = verify_global_route(outcome.route, layout)
            timings["verify"] = time.perf_counter() - verify_started

        detailed = None
        detail_summary = None
        if request.detail:
            from repro.detail.detailed import DetailedRouter

            detail_started = time.perf_counter()
            detailed = DetailedRouter(layout).run(outcome.route)
            timings["detail"] = time.perf_counter() - detail_started
            detail_summary = DetailSummary.from_detailed(detailed)
            if request.verify:
                verify_started = time.perf_counter()
                for net, message in detailed_violations(detailed, layout):
                    violations.setdefault(net, []).append(message)
                timings["verify"] += time.perf_counter() - verify_started

        # Non-convergence used to be reported only through the
        # `converged` flag, which callers routinely ignored — capped
        # negotiated runs shipped overflowing routes without a peep.
        # Surface it as a structured warning on the result instead.
        warnings: list[dict] = []
        if outcome.converged is False:
            overflow = (
                outcome.congestion_after.total_overflow
                if outcome.congestion_after is not None
                else None
            )
            warnings.append(
                {
                    "kind": "non-convergence",
                    "message": (
                        f"strategy {request.strategy!r} stopped after "
                        f"{outcome.iteration_count} iteration(s) with overflow remaining"
                    ),
                    "iterations": outcome.iteration_count,
                    "total_overflow": overflow,
                }
            )

        timings["total"] = time.perf_counter() - total_started
        return RouteResult(
            strategy=request.strategy,
            route=outcome.route,
            summary=summarize_route(outcome.route, layout),
            congestion_before=(
                None
                if outcome.congestion_before is None
                else CongestionSummary.from_map(outcome.congestion_before)
            ),
            congestion_after=(
                None
                if outcome.congestion_after is None
                else CongestionSummary.from_map(outcome.congestion_after)
            ),
            iterations=tuple(outcome.iterations),
            rerouted_nets=tuple(outcome.rerouted_nets),
            converged=outcome.converged,
            timing=outcome.timing,
            timings=timings,
            warnings=warnings,
            violations=violations,
            verified=request.verify,
            detail_summary=detail_summary,
            detailed=detailed,
        )


def route(request: RouteRequest) -> RouteResult:
    """One-shot convenience: run *request* through a default pipeline."""
    return RoutingPipeline().run(request)
