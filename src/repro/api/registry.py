"""The pluggable strategy registry.

A *strategy* is the policy that turns one configured
:class:`~repro.core.router.GlobalRouter` into a routed layout plus
congestion telemetry: the paper's plain independent pass, the
Conclusions' two-pass sketch, the PathFinder-style negotiation — or
anything a third party registers.

Strategies are looked up by name from a :class:`StrategyRegistry`;
:data:`DEFAULT_REGISTRY` ships with ``"single"``, ``"two-pass"``,
``"negotiated"``, and ``"timing-driven"`` installed (see
:mod:`repro.api.strategies`).  Third parties add their own::

    from repro.api import register_strategy

    @register_strategy("greedy-ripup", params=GreedyParams)
    class GreedyRipup:
        def __init__(self, **params): ...
        def run(self, router, request): ...  # -> StrategyOutcome

The factory is called with the request's ``strategy_params`` as
keywords; ``run`` receives the configured router and the originating
:class:`~repro.api.request.RouteRequest` and returns a
:class:`StrategyOutcome`.  ``params`` (optional) declares a frozen
dataclass as the strategy's typed parameter schema
(:mod:`repro.api.params`): requests validate against it up front, and
:meth:`StrategyRegistry.describe` publishes it to the introspection
surfaces (``repro strategies``, ``GET /strategies``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Protocol, runtime_checkable

from repro.errors import RoutingError
from repro.core.congestion import CongestionMap
from repro.core.negotiate import IterationStats
from repro.core.route import GlobalRoute
from repro.core.timing import TimingAnalysis
from repro.api.params import coerce_params, schema_dict
from repro.search.stats import SearchStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.request import RouteRequest
    from repro.core.router import GlobalRouter
    from repro.incremental.engine import WarmStart


@dataclass
class StrategyOutcome:
    """What a strategy hands back to the pipeline.

    ``route`` is mandatory; the congestion/iteration fields are
    telemetry that strategies fill in as far as they measure it.
    ``first`` carries the unpenalized first-pass route when the
    strategy runs repasses (strategy-level callers compare it against
    the final route without re-routing; it stays runtime-only and is
    not serialized into :class:`~repro.api.result.RouteResult`).
    ``search_stats``, when set, totals the search effort of the whole
    strategy run; iterating strategies fill it in because their
    returned route's stats stop accumulating at the best iteration,
    and the hot-path bench's counters must count all of the work.
    ``timing`` carries the final route's delay/criticality/slack
    analysis when the strategy computed one (``timing-driven`` does);
    the pipeline serializes it onto the result's ``timing`` block.
    """

    route: GlobalRoute
    first: Optional[GlobalRoute] = None
    congestion_before: Optional[CongestionMap] = None
    congestion_after: Optional[CongestionMap] = None
    iterations: tuple[IterationStats, ...] = ()
    rerouted_nets: tuple[str, ...] = ()
    converged: Optional[bool] = None
    search_stats: Optional[SearchStats] = None
    timing: Optional[TimingAnalysis] = None


@runtime_checkable
class RoutingStrategy(Protocol):
    """Structural interface every registered strategy must satisfy."""

    def run(self, router: "GlobalRouter", request: "RouteRequest") -> StrategyOutcome:
        """Route the layout behind *router* per *request*."""
        ...


@runtime_checkable
class IncrementalRoutingStrategy(RoutingStrategy, Protocol):
    """A strategy that can also warm-start from a prior result.

    ``RoutingPipeline.reroute`` resolves the base request's strategy
    and dispatches here; strategies without this method (``two-pass``:
    its penalty accumulation has no meaningful warm-start seed) make
    the reroute fail fast with a :class:`~repro.errors.RoutingError`
    instead of silently routing from scratch.
    """

    def run_incremental(
        self, router: "GlobalRouter", request: "RouteRequest", warm: "WarmStart"
    ) -> StrategyOutcome:
        """Finish routing *warm*'s dirty nets on the mutated layout."""
        ...


#: A factory builds a strategy instance from the request's params.
StrategyFactory = Callable[..., RoutingStrategy]


@dataclass
class StrategyRegistry:
    """Name → strategy-factory mapping with decorator registration."""

    _factories: dict[str, StrategyFactory] = field(default_factory=dict)
    _schemas: dict[str, Optional[type]] = field(default_factory=dict)

    def register(
        self,
        name: str,
        factory: Optional[StrategyFactory] = None,
        *,
        params: Optional[type] = None,
        replace: bool = False,
    ):
        """Register *factory* under *name*.

        Usable directly (``registry.register("x", Factory)``) or as a
        decorator (``@registry.register("x")``).  Duplicate names raise
        :class:`RoutingError` unless ``replace=True``.  *params*, when
        given, is a frozen dataclass declaring the strategy's typed
        parameter schema (see :mod:`repro.api.params`).
        """
        if not name or not isinstance(name, str):
            raise RoutingError(f"strategy name must be a non-empty string, got {name!r}")
        if params is not None:
            schema_dict(params)  # fail at registration, not first use

        def _install(f: StrategyFactory) -> StrategyFactory:
            if not callable(f):
                raise RoutingError(f"strategy factory for {name!r} is not callable")
            if name in self._factories and not replace:
                raise RoutingError(
                    f"strategy {name!r} is already registered "
                    f"(pass replace=True to override)"
                )
            self._factories[name] = f
            self._schemas[name] = params
            return f

        if factory is None:
            return _install
        return _install(factory)

    def unregister(self, name: str) -> None:
        """Remove *name*; unknown names raise :class:`RoutingError`."""
        if name not in self._factories:
            raise RoutingError(f"strategy {name!r} is not registered")
        del self._factories[name]
        del self._schemas[name]

    def params_schema(self, name: str) -> Optional[type]:
        """The params dataclass declared for *name* (``None`` if none)."""
        if name not in self._factories:
            raise RoutingError(f"strategy {name!r} is not registered")
        return self._schemas.get(name)

    def validate_params(
        self, name: str, params: Mapping[str, Any], *, strict: bool = True
    ) -> dict[str, Any]:
        """Check *params* against *name*'s schema; returns the coerced dict.

        Strategies registered without a schema — and names this
        registry does not know, which a later custom registry might —
        pass through unchecked; their factory remains the arbiter.
        Unknown keys raise :class:`~repro.api.params.StrategyParamError`
        when *strict*, warn and drop otherwise; ill-typed values raise
        in both modes.
        """
        schema = self._schemas.get(name)
        if schema is None:
            return dict(params)
        return coerce_params(schema, params, strategy=name, strict=strict)

    def create(self, name: str, params: Mapping[str, Any] = ()) -> RoutingStrategy:
        """Instantiate the strategy registered under *name*.

        Schema'd strategies validate ``params`` first (so a bad knob
        fails with the structured error even when the request skipped
        validation); a factory rejecting them anyway (bad arity in an
        unschema'd strategy) surfaces as :class:`RoutingError` naming
        the strategy.
        """
        try:
            factory = self._factories[name]
        except KeyError:
            raise RoutingError(
                f"unknown strategy {name!r}; registered: {self.names()}"
            ) from None
        checked = self.validate_params(name, dict(params))
        try:
            return factory(**checked)
        except TypeError as exc:
            raise RoutingError(f"bad parameters for strategy {name!r}: {exc}") from exc

    def names(self) -> list[str]:
        """Registered strategy names, sorted."""
        return sorted(self._factories)

    def describe(self) -> dict[str, Any]:
        """Every strategy's params schema, JSON-ready.

        Name → ``{"description", "params"}``; ``params`` maps each
        knob to ``{"type", "optional", "default"}`` rows, or is
        ``None`` for strategies registered without a schema.  This is
        the payload behind ``repro strategies --json`` and the
        service's ``GET /strategies``.
        """
        described: dict[str, Any] = {}
        for name in self.names():
            factory = self._factories[name]
            doc = (factory.__doc__ or "").strip().splitlines()
            schema = self._schemas.get(name)
            described[name] = {
                "description": doc[0] if doc else "",
                "params": schema_dict(schema) if schema is not None else None,
            }
        return described

    def __contains__(self, name: str) -> bool:
        return name in self._factories


#: The process-wide default registry (built-ins are installed by
#: :mod:`repro.api.strategies` at import time).
DEFAULT_REGISTRY = StrategyRegistry()


def register_strategy(
    name: str,
    factory: Optional[StrategyFactory] = None,
    *,
    params: Optional[type] = None,
    replace: bool = False,
):
    """Register on the :data:`DEFAULT_REGISTRY` (module-level decorator)."""
    return DEFAULT_REGISTRY.register(name, factory, params=params, replace=replace)
