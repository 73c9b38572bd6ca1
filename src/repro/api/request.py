"""The declarative routing request — one contract for every caller.

:class:`RouteRequest` is the single entry ticket of the public API: it
names the layout (inline or by file reference), the router knobs
(:class:`~repro.core.router.RouterConfig`), the strategy to drive the
congestion loop with, and the post-routing toggles (independent
verification, detailed routing, report rendering).  Because a strategy
is one *name*, conflicting strategy selections are structurally
unrepresentable, and the strategy's typed params schema (see
:mod:`repro.api.params`) is enforced at construction time.

Requests are frozen and JSON round-trippable (:meth:`RouteRequest.to_json`
/ :meth:`RouteRequest.from_json`), so the CLI, tests, services, and
batch files all speak the same format.
"""

from __future__ import annotations

import contextvars
import copy
import json
import warnings
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.errors import RoutingError
from repro.api.params import _coerce_value, param_specs
from repro.core.escape import EscapeMode
from repro.core.router import UNROUTABLE_POLICIES, RouterConfig
from repro.layout.io import layout_from_dict, layout_from_json, layout_to_dict
from repro.layout.layout import Layout
from repro.search.engine import Order

FORMAT_VERSION = 1

#: Deserialization runs with lenient params validation (unknown keys
#: warn and drop instead of raising) so old request/corpus JSON keeps
#: round-tripping across schema growth.  A context var, not a flag
#: argument: ``__post_init__`` has no way to receive one.
_LENIENT_PARAMS = contextvars.ContextVar("repro_lenient_params", default=False)

#: Router config keys that older releases wrote and this one ignores:
#: the search-engine choice, the ray-memo toggle and the net-level
#: fan-out (``workers``, ``executor``), none of which could change a
#: route.
RETIRED_CONFIG_KEYS = frozenset({"engine", "ray_cache", "workers", "executor"})

#: Accepted type, nullability and default of every :class:`RouterConfig`
#: field, read off its annotations as for strategy params.
_CONFIG_SPECS = param_specs(RouterConfig)

#: The :class:`RouterConfig` fields that must arrive as JSON booleans.
_CONFIG_FLAGS = tuple(name for name, spec in _CONFIG_SPECS.items() if spec.kind == "bool")

#: The :class:`RouterConfig` fields that must arrive as JSON numbers.
_CONFIG_NUMBERS = tuple(
    name for name, spec in _CONFIG_SPECS.items() if spec.kind in ("int", "float")
)


def _strategy_registry():
    """The default registry with the built-ins guaranteed installed."""
    from repro.api import strategies  # noqa: F401  (installs built-ins)
    from repro.api.registry import DEFAULT_REGISTRY

    return DEFAULT_REGISTRY


def _object(value: Any, what: str) -> Mapping[str, Any]:
    """*value* if it is a JSON object, else a :class:`RoutingError`."""
    if not isinstance(value, Mapping):
        raise RoutingError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _flag(data: Mapping[str, Any], key: str, default: bool) -> bool:
    """``data[key]`` (or *default*) if it is a JSON boolean, else a :class:`RoutingError`.

    No truthiness: ``"no"`` or ``0`` would otherwise flip a toggle.
    """
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise RoutingError(f"{key} must be a JSON boolean, got {value!r}")
    return value


def _number(data: Mapping[str, Any], key: str) -> Any:
    """``data[key]`` (or the default) if it is a finite JSON number of the
    field's kind, else a :class:`RoutingError`.

    No strings, booleans or truncation: an ``int`` field takes an
    integer, an integral float (``3.0``) or, when optional, ``null``.
    """
    spec = _CONFIG_SPECS[key]
    value, error = _coerce_value(spec, data.get(key, spec.default))
    if error is not None:
        raise RoutingError(f"malformed router config: {key}: {error}")
    return value


def config_to_dict(config: RouterConfig) -> dict[str, Any]:
    """Convert a :class:`RouterConfig` to a JSON-ready dict."""
    return {
        "mode": config.mode.value,
        "order": config.order.value,
        "inverted_corner": config.inverted_corner,
        "corner_epsilon": config.corner_epsilon,
        "bend_penalty": config.bend_penalty,
        "exact_steiner_order": config.exact_steiner_order,
        "refine": config.refine,
        "node_limit": config.node_limit,
        "trace": config.trace,
        "prune_clean_nets": config.prune_clean_nets,
    }


def config_from_dict(data: Mapping[str, Any]) -> RouterConfig:
    """Rebuild a :class:`RouterConfig` from :func:`config_to_dict` output.

    Missing keys fall back to the config defaults, so old request files
    keep working when new knobs are added.  Retired keys
    (:data:`RETIRED_CONFIG_KEYS`) are dropped with a warning, whatever
    their value, so old requests and persisted jobs keep loading; any
    other unknown key raises, as does a non-object *data*, a
    non-boolean flag or a number of the wrong kind.
    """
    _object(data, "router config")
    defaults = RouterConfig()
    known = set(config_to_dict(defaults))
    retired = sorted(RETIRED_CONFIG_KEYS.intersection(data))
    if retired:
        warnings.warn(f"ignoring retired router config key(s) {retired}", stacklevel=2)
    unknown = sorted(set(data) - known - RETIRED_CONFIG_KEYS)
    if unknown:
        raise RoutingError(f"unknown router config key(s) {unknown}")
    flags = {key: _flag(data, key, getattr(defaults, key)) for key in _CONFIG_FLAGS}
    numbers = {key: _number(data, key) for key in _CONFIG_NUMBERS}
    try:
        return RouterConfig(
            mode=EscapeMode(data.get("mode", defaults.mode.value)),
            order=Order(data.get("order", defaults.order.value)),
            **numbers,
            **flags,
        )
    except ValueError as exc:
        raise RoutingError(f"malformed router config: {exc}") from exc


@dataclass(frozen=True)
class RouteRequest:
    """A complete, declarative description of one routing run.

    Attributes
    ----------
    layout:
        The placed design, inline.  Exactly one of ``layout`` and
        ``layout_path`` must be set.
    layout_path:
        File reference to a layout JSON (resolved lazily by
        :meth:`resolve_layout`); this is the form that travels well in
        request files.
    config:
        Router knobs (validated at construction by
        :class:`~repro.core.router.RouterConfig` itself).
    strategy:
        Name of the congestion strategy to resolve from the
        :class:`~repro.api.registry.StrategyRegistry` — ``"single"``,
        ``"two-pass"``, ``"negotiated"``, and ``"timing-driven"`` ship
        built in.
    strategy_params:
        Keyword parameters for the strategy factory (e.g.
        ``{"passes": 3}`` for two-pass, ``{"delay_weight": 1.0}`` for
        timing-driven).  Strategies with a declared params schema
        validate here, at construction: unknown or ill-typed keys
        raise :class:`~repro.api.params.StrategyParamError` (the
        ``from_dict``/``from_json`` path relaxes *unknown* keys to a
        warning so old serialized requests keep loading).  Stored
        read-only.
    on_unroutable:
        ``"raise"`` propagates the first unroutable net; ``"skip"``
        records it and carries on.
    verify:
        Run the independent route checker and attach its violations to
        the result (default on).
    detail:
        Also run the detailed router on the final global route.
    report:
        Ask renderers for the full engineering report (a presentation
        hint carried on the request so batch runs can honor it).
    """

    layout: Optional[Layout] = None
    layout_path: Optional[str] = None
    config: RouterConfig = field(default_factory=RouterConfig)
    strategy: str = "single"
    strategy_params: Mapping[str, Any] = field(default_factory=dict)
    on_unroutable: str = "raise"
    verify: bool = True
    detail: bool = False
    report: bool = False

    def __post_init__(self) -> None:
        if (self.layout is None) == (self.layout_path is None):
            raise RoutingError(
                "provide exactly one of layout (inline) or layout_path (reference)"
            )
        if not self.strategy or not isinstance(self.strategy, str):
            raise RoutingError(f"strategy must be a non-empty name, got {self.strategy!r}")
        if self.on_unroutable not in UNROUTABLE_POLICIES:
            raise RoutingError(
                f"on_unroutable must be one of {UNROUTABLE_POLICIES}, "
                f"not {self.on_unroutable!r}"
            )
        # Defensively copy the params so later caller-side mutation
        # cannot reach into a frozen request.  A plain dict (not a
        # MappingProxyType) keeps requests picklable for process-pool
        # batches (repro.api.batch).
        params = dict(self.strategy_params)
        registry = _strategy_registry()
        if self.strategy in registry:
            # Strategies the default registry does not know (third
            # parties routed through a custom registry) are validated
            # by their factory at create() time instead.
            params = registry.validate_params(
                self.strategy, params, strict=not _LENIENT_PARAMS.get()
            )
        object.__setattr__(self, "strategy_params", params)

    # ------------------------------------------------------------------
    # Layout resolution
    # ------------------------------------------------------------------
    def resolve_layout(self) -> Layout:
        """The inline layout, or the referenced file loaded and parsed."""
        if self.layout is not None:
            return self.layout
        assert self.layout_path is not None
        with open(self.layout_path, "r", encoding="utf-8") as handle:
            return layout_from_json(handle.read())

    def with_layout(self, layout: Layout) -> "RouteRequest":
        """A copy of this request with *layout* inlined (reference dropped).

        Everything else was validated when this request was built, so
        the copy skips ``__post_init__``.
        """
        copied = copy.copy(self)
        object.__setattr__(copied, "layout", layout)
        object.__setattr__(copied, "layout_path", None)
        return copied

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Convert to a JSON-ready dict (inline layouts are embedded)."""
        return {
            "version": FORMAT_VERSION,
            "layout": None if self.layout is None else layout_to_dict(self.layout),
            "layout_path": self.layout_path,
            "config": config_to_dict(self.config),
            "strategy": self.strategy,
            "strategy_params": dict(self.strategy_params),
            "on_unroutable": self.on_unroutable,
            "verify": self.verify,
            "detail": self.detail,
            "report": self.report,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RouteRequest":
        """Rebuild a request from :meth:`to_dict` output.

        Unknown ``strategy_params`` keys are tolerated here (warned
        about and dropped) so serialized requests survive schema
        growth; ill-typed values still raise.  So does a ``config`` or
        ``strategy_params`` that is not a JSON object, and a
        ``verify``/``detail``/``report`` that is not a JSON boolean.
        """
        token = _LENIENT_PARAMS.set(True)
        try:
            version = data["version"]
            if version != FORMAT_VERSION:
                raise RoutingError(f"unsupported request format version {version!r}")
            layout_data = data.get("layout")
            return cls(
                layout=None if layout_data is None else layout_from_dict(layout_data),
                layout_path=data.get("layout_path"),
                config=config_from_dict(data.get("config", {})),
                strategy=data.get("strategy", "single"),
                strategy_params=_object(
                    data.get("strategy_params", {}), "strategy_params"
                ),
                on_unroutable=data.get("on_unroutable", "raise"),
                verify=_flag(data, "verify", True),
                detail=_flag(data, "detail", False),
                report=_flag(data, "report", False),
            )
        except (KeyError, TypeError) as exc:
            raise RoutingError(f"malformed route request: {exc}") from exc
        finally:
            _LENIENT_PARAMS.reset(token)

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RouteRequest":
        """Parse a request from a JSON string."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RoutingError(f"invalid request JSON: {exc}") from exc
        return cls.from_dict(data)
