"""Canonical hashing: one content-addressed identity per routing run.

Two :class:`~repro.api.request.RouteRequest` objects that describe the
same work — same placed layout, same router knobs, same strategy and
parameters — must map to the same key, however they were built (inline
layout vs. file reference, dict-ordering of parameters, separate
processes).  That key is what the service's result cache, the batch
facade's duplicate-collapse, and any future shard router all hang off.

The key is the SHA-256 of a *canonical JSON* rendering (sorted keys,
no whitespace) of::

    {layout fingerprint, router config, strategy, strategy_params,
     on_unroutable, verify, detail}

Covered fields and why:

* the **layout content** (not its path — two paths to byte-identical
  layouts share a key, and editing a referenced file changes it);
* the **router config** — every knob participates,
  ``prune_clean_nets`` included: it changes negotiated routes (see
  ``docs/scenarios.md``).  Retired keys an old request still carries
  (``workers``, ``executor``, ``engine``, ``ray_cache``) are dropped
  when it loads, so they never reach the key and stored results keep
  hitting;
* ``strategy`` + ``strategy_params`` (nested structures canonicalize
  recursively via sorted-key JSON);
* ``on_unroutable``, ``verify``, ``detail`` — they change what the
  :class:`~repro.api.result.RouteResult` contains.

Excluded: ``report`` (a presentation hint that never reaches the
result) and ``layout_path`` (superseded by the content fingerprint).

Requests whose ``strategy_params`` hold non-JSON values (live objects a
library caller slipped in) are not canonicalizable; callers that need
a best-effort answer catch :class:`~repro.errors.RoutingError` and
treat the request as unique.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import RoutingError
from repro.layout.io import layout_to_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.request import RouteRequest
    from repro.layout.layout import Layout


def canonical_json(value: Any) -> str:
    """Render *value* as order-independent, whitespace-free JSON.

    Dict keys are sorted at every nesting level, so two dicts equal as
    mappings render identically regardless of insertion order.  Values
    that JSON cannot express raise :class:`RoutingError`.
    """
    try:
        return json.dumps(
            value, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise RoutingError(f"value is not canonicalizable as JSON: {exc}") from exc


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def layout_fingerprint(layout: "Layout") -> str:
    """SHA-256 of the layout's canonical JSON serialization.

    Stable across processes and across save/load round-trips: the
    fingerprint of a layout equals the fingerprint of
    ``layout_from_json(layout_to_json(layout))``.
    """
    return _sha256(canonical_json(layout_to_dict(layout)))


def request_cache_key(
    request: "RouteRequest", *, layout: Optional["Layout"] = None
) -> str:
    """The content-addressed identity of *request*'s routing work.

    Two requests with equal keys produce interchangeable
    :class:`~repro.api.result.RouteResult` objects (see the module
    docstring for exactly which fields participate).  *layout*
    short-circuits :meth:`~repro.api.request.RouteRequest.resolve_layout`
    for callers that already hold the parsed layout; file references
    are otherwise read here, so a missing file raises.
    """
    from repro.api.request import config_to_dict

    if layout is None:
        layout = request.resolve_layout()
    payload = {
        "layout": layout_fingerprint(layout),
        "config": config_to_dict(request.config),
        "strategy": request.strategy,
        "strategy_params": dict(request.strategy_params),
        "on_unroutable": request.on_unroutable,
        "verify": request.verify,
        "detail": request.detail,
    }
    return _sha256(canonical_json(payload))
