"""Canonical hashing: the request identity everything else hangs off."""

import copy

import pytest

from repro.errors import RoutingError
from repro.api import (
    RouteRequest,
    canonical_json,
    layout_fingerprint,
    request_cache_key,
)
from repro.core.router import RouterConfig
from repro.layout.generators import LayoutSpec, random_layout
from repro.layout.io import layout_from_json, layout_to_json


def make_layout(seed=1):
    return random_layout(LayoutSpec(n_cells=5, n_nets=4), seed=seed)


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"b": 1, "a": {"d": 2, "c": 3}}) == canonical_json(
            {"a": {"c": 3, "d": 2}, "b": 1}
        )

    def test_compact_and_sorted(self):
        assert canonical_json({"b": [1, 2], "a": None}) == '{"a":null,"b":[1,2]}'

    def test_non_json_value_raises(self):
        with pytest.raises(RoutingError):
            canonical_json({"x": object()})


class TestLayoutFingerprint:
    def test_deterministic_across_instances(self):
        assert layout_fingerprint(make_layout(1)) == layout_fingerprint(make_layout(1))

    def test_survives_serialization_round_trip(self):
        layout = make_layout(2)
        reloaded = layout_from_json(layout_to_json(layout))
        assert layout_fingerprint(layout) == layout_fingerprint(reloaded)

    def test_different_layouts_differ(self):
        assert layout_fingerprint(make_layout(1)) != layout_fingerprint(make_layout(2))


#: A small request in the format releases with ``RouterConfig.workers``
#: and ``executor`` wrote, fan-out keys included.
PINNED_REQUEST = {
    "version": 1,
    "layout": {
        "version": 1,
        "outline": [0, 0, 60, 40],
        "cells": [
            {"name": "a", "rect": [10, 10, 25, 30]},
            {"name": "b", "rect": [35, 10, 50, 30]},
        ],
        "nets": [
            {
                "name": "n1",
                "terminals": [
                    {"name": "n1.s", "pins": [{"name": "n1.s", "at": [5, 5], "cell": None}]},
                    {"name": "n1.d", "pins": [{"name": "n1.d", "at": [55, 35], "cell": None}]},
                ],
            }
        ],
    },
    "layout_path": None,
    "config": {
        "mode": "full",
        "order": "a-star",
        "inverted_corner": False,
        "corner_epsilon": 0.0625,
        "bend_penalty": 0.0,
        "exact_steiner_order": False,
        "refine": False,
        "node_limit": None,
        "trace": False,
        "prune_clean_nets": True,
        "workers": 4,
        "executor": "thread",
    },
    "strategy": "negotiated",
    "strategy_params": {"max_iterations": 3},
    "on_unroutable": "raise",
    "verify": True,
    "detail": False,
    "report": False,
}

#: The key releases before the fan-out knobs were retired gave
#: :data:`PINNED_REQUEST`.  Stored results and persisted jobs are
#: addressed by it, so it must never move.
PINNED_KEY = "31e0de56452a1a431b340d6f27e33481bdbe53d5d4965250bd8f15c8d33b881f"


class TestRequestCacheKey:
    def test_equal_requests_equal_keys(self):
        layout = make_layout(1)
        a = RouteRequest(layout=layout, strategy="negotiated",
                         strategy_params={"max_iterations": 5})
        b = RouteRequest(layout=layout, strategy="negotiated",
                         strategy_params={"max_iterations": 5})
        assert request_cache_key(a) == request_cache_key(b)

    def test_inline_and_path_reference_share_key(self, tmp_path):
        layout = make_layout(1)
        path = tmp_path / "chip.json"
        path.write_text(layout_to_json(layout), encoding="utf-8")
        inline = RouteRequest(layout=layout)
        referenced = RouteRequest(layout_path=str(path))
        assert request_cache_key(inline) == request_cache_key(referenced)

    def test_nested_param_difference_changes_key(self):
        # An unregistered (third-party) strategy name: the built-ins'
        # typed schemas reject free-form nested params up front, but
        # the canonical key must still hash them faithfully.
        layout = make_layout(1)
        a = RouteRequest(layout=layout, strategy="custom",
                         strategy_params={"opts": {"depth": 1}})
        b = RouteRequest(layout=layout, strategy="custom",
                         strategy_params={"opts": {"depth": 2}})
        assert request_cache_key(a) != request_cache_key(b)

    def test_param_order_does_not_change_key(self):
        layout = make_layout(1)
        a = RouteRequest(layout=layout, strategy="custom",
                         strategy_params={"x": 1, "y": {"b": 2, "a": 3}})
        b = RouteRequest(layout=layout, strategy="custom",
                         strategy_params={"y": {"a": 3, "b": 2}, "x": 1})
        assert request_cache_key(a) == request_cache_key(b)

    @pytest.mark.parametrize(
        "variant",
        [
            {"strategy": "two-pass"},
            {"config": RouterConfig(bend_penalty=1.0)},
            {"verify": False},
            {"detail": True},
            {"on_unroutable": "skip"},
        ],
    )
    def test_routing_relevant_fields_participate(self, variant):
        layout = make_layout(1)
        assert request_cache_key(RouteRequest(layout=layout)) != request_cache_key(
            RouteRequest(layout=layout, **variant)
        )

    def test_fan_out_knobs_excluded_but_pruning_participates(self):
        # an old-format request still carrying the retired fan-out knobs
        # loads with a warning and keeps the key it was stored under
        with pytest.warns(UserWarning, match="retired router config key"):
            request = RouteRequest.from_dict(copy.deepcopy(PINNED_REQUEST))
        assert request.config == RouterConfig()
        assert request_cache_key(request) == PINNED_KEY
        assert request_cache_key(
            RouteRequest(
                layout=request.layout, config=RouterConfig(prune_clean_nets=False)
            )
        ) != PINNED_KEY

    def test_report_hint_is_excluded(self):
        layout = make_layout(1)
        assert request_cache_key(RouteRequest(layout=layout)) == request_cache_key(
            RouteRequest(layout=layout, report=True)
        )

    def test_layout_short_circuit_matches_resolution(self, tmp_path):
        layout = make_layout(3)
        path = tmp_path / "chip.json"
        path.write_text(layout_to_json(layout), encoding="utf-8")
        referenced = RouteRequest(layout_path=str(path))
        assert request_cache_key(referenced) == request_cache_key(
            referenced, layout=layout
        )

    def test_non_canonicalizable_params_raise(self):
        request = RouteRequest(layout=make_layout(1), strategy="custom",
                               strategy_params={"fn": object()})
        with pytest.raises(RoutingError):
            request_cache_key(request)


class TestKeyStability:
    """Cache keys survive releases: old stores and job records still hit."""

    def test_fresh_request_matches_the_pinned_key(self):
        data = copy.deepcopy(PINNED_REQUEST)
        del data["config"]["workers"], data["config"]["executor"]
        assert request_cache_key(RouteRequest.from_dict(data)) == PINNED_KEY
