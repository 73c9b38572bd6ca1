"""Typed strategy-parameter schemas.

Each registered strategy may declare a frozen dataclass as its
*params schema* (``@register_strategy("name", params=SchemaClass)``).
The schema drives three things:

- **Validation at request construction.**  A
  :class:`~repro.api.request.RouteRequest` naming a schema'd strategy
  checks its ``strategy_params`` immediately: unknown or ill-typed
  keys raise :class:`StrategyParamError` (a structured
  :class:`~repro.errors.RoutingError`) at the call site instead of
  deep inside the run.  Well-typed params then build the schema, so
  its own range checks (``__post_init__``, e.g. ``max_gap >= 1``)
  reject out-of-range values there too.
- **Lenient JSON intake.**  ``RouteRequest.from_dict`` coerces instead
  (``strict=False``): unknown keys warn and drop so old serialized
  requests keep round-tripping, while ill-typed values still raise —
  a wrong type never silently routes with defaults.
- **Introspection.**  ``StrategyRegistry.describe()`` renders every
  schema as name → type/default rows (the ``repro strategies`` CLI
  subcommand and the service's ``GET /strategies``).

Only scalar field types appear in the built-in schemas (``int``,
``float``, ``bool``, ``str``, each optionally ``Optional``); anything
else is passed through unchecked so third-party schemas degrade
gracefully rather than being rejected.
"""

from __future__ import annotations

import dataclasses
import math
import typing
import warnings
from typing import Any, Mapping, Optional, Sequence

from repro.errors import RoutingError

_ATOMS: dict[type, str] = {int: "int", float: "float", bool: "bool", str: "str"}


class StrategyParamError(RoutingError):
    """Bad ``strategy_params`` for a schema'd strategy.

    Carries the offending keys in structured form (``strategy``,
    ``unknown``, ``invalid``, ``known``) so API surfaces can report
    them as data, not just prose; :meth:`details` is the JSON shape.
    """

    def __init__(
        self,
        strategy: str,
        *,
        unknown: Sequence[str] = (),
        invalid: Sequence[tuple[str, str]] = (),
        known: Sequence[str] = (),
    ):
        self.strategy = strategy
        self.unknown = tuple(unknown)
        self.invalid = tuple(invalid)
        self.known = tuple(known)
        parts = []
        if self.unknown:
            parts.append(f"unknown parameter(s) {list(self.unknown)}")
        parts.extend(f"bad value for {key!r}: {message}" for key, message in self.invalid)
        detail = "; ".join(parts) if parts else "invalid parameters"
        super().__init__(
            f"strategy {strategy!r}: {detail}; known parameters: {list(self.known)}"
        )

    def details(self) -> dict:
        """Structured JSON-ready form of the failure."""
        return {
            "strategy": self.strategy,
            "unknown": list(self.unknown),
            "invalid": [
                {"param": key, "message": message} for key, message in self.invalid
            ],
            "known": list(self.known),
        }


@dataclasses.dataclass(frozen=True)
class ParamSpec:
    """One schema field: accepted type, nullability, default."""

    name: str
    kind: str  # "int" | "float" | "bool" | "str" | "any"
    allow_none: bool
    default: Any

    def as_dict(self) -> dict:
        """JSON-ready row for :func:`schema_dict`."""
        return {
            "type": self.kind,
            "optional": self.allow_none,
            "default": self.default,
        }


def _classify(annotation: Any) -> tuple[str, bool]:
    """Map a field annotation to ``(kind, allow_none)``."""
    allow_none = False
    origin = typing.get_origin(annotation)
    if origin is typing.Union:
        members = [a for a in typing.get_args(annotation) if a is not type(None)]
        allow_none = len(members) < len(typing.get_args(annotation))
        if len(members) == 1:
            annotation = members[0]
        else:
            return "any", allow_none
    return _ATOMS.get(annotation, "any"), allow_none


def param_specs(schema: type) -> dict[str, ParamSpec]:
    """Field specs of a params-schema dataclass, in declaration order."""
    if not dataclasses.is_dataclass(schema):
        raise RoutingError(
            f"params schema must be a dataclass, got {schema!r}"
        )
    hints = typing.get_type_hints(schema)
    specs: dict[str, ParamSpec] = {}
    for field in dataclasses.fields(schema):
        kind, allow_none = _classify(hints.get(field.name, Any))
        if field.default is not dataclasses.MISSING:
            default = field.default
        elif field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            default = field.default_factory()  # type: ignore[misc]
        else:
            default = None
        specs[field.name] = ParamSpec(
            name=field.name, kind=kind, allow_none=allow_none, default=default
        )
    return specs


def schema_dict(schema: type) -> dict:
    """The schema as JSON-ready name → ``{type, optional, default}`` rows."""
    return {name: spec.as_dict() for name, spec in param_specs(schema).items()}


def _coerce_value(spec: ParamSpec, value: Any) -> tuple[Any, Optional[str]]:
    """Coerce one value against *spec*; returns ``(value, error)``."""
    if value is None:
        if spec.allow_none:
            return None, None
        return value, f"expected {spec.kind}, got None"
    if spec.kind == "any":
        return value, None
    if spec.kind == "bool":
        if isinstance(value, bool):
            return value, None
        return value, f"expected bool, got {type(value).__name__}"
    if isinstance(value, bool):
        # bool is an int subclass; a bare True for an int knob is a bug.
        return value, f"expected {spec.kind}, got bool"
    if spec.kind == "int":
        if isinstance(value, int):
            return value, None
        if isinstance(value, float) and value.is_integer():
            # JSON writers are free to render 3 as 3.0.
            return int(value), None
        return value, f"expected int, got {type(value).__name__}"
    if spec.kind == "float":
        if not isinstance(value, (int, float)):
            return value, f"expected float, got {type(value).__name__}"
        try:
            number = float(value)
        except OverflowError:  # an integer too large for a float
            return value, "number out of range"
        if not math.isfinite(number):
            # NaN slips past every `< 0` range check downstream.
            return value, f"expected a finite number, got {number!r}"
        return number, None
    if spec.kind == "str":
        if isinstance(value, str):
            return value, None
        return value, f"expected str, got {type(value).__name__}"
    return value, None  # pragma: no cover - kinds are exhaustive


def coerce_params(
    schema: type,
    params: Mapping[str, Any],
    *,
    strategy: str,
    strict: bool = True,
) -> dict[str, Any]:
    """Validate *params* against *schema* and return the coerced dict.

    Unknown keys raise :class:`StrategyParamError` when *strict*, warn
    and drop otherwise (the lenient JSON-intake path).  Ill-typed
    values raise in both modes, and so do values the schema's own
    checks reject when it is built from them.  Keys absent from
    *params* stay absent — defaults belong to the strategy factory,
    not the request.
    """
    specs = param_specs(schema)
    unknown = sorted(set(params) - set(specs))
    if unknown and not strict:
        warnings.warn(
            f"ignoring unknown parameter(s) {unknown} for strategy {strategy!r}; "
            f"known: {sorted(specs)}",
            stacklevel=2,
        )
    invalid: list[tuple[str, str]] = []
    coerced: dict[str, Any] = {}
    for key, value in params.items():
        if key in unknown:
            continue
        new_value, error = _coerce_value(specs[key], value)
        if error is not None:
            invalid.append((key, error))
        else:
            coerced[key] = new_value
    if (unknown and strict) or invalid:
        raise StrategyParamError(
            strategy,
            unknown=unknown if strict else (),
            invalid=sorted(invalid),
            known=sorted(specs),
        )
    try:
        schema(**coerced)
    except TypeError:
        pass  # a required field absent here is left to the factory
    return coerced
