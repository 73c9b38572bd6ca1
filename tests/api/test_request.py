"""Unit tests for RouteRequest construction, validation, and JSON I/O."""

import dataclasses
import json

import pytest

from repro.errors import RoutingError
from repro.api import request as request_module
from repro.api import RouteRequest, StrategyParamError, config_from_dict, config_to_dict
from repro.api.params import MAX_ITERATIONS, param_specs
from repro.api.registry import DEFAULT_REGISTRY
from repro.api.strategies import BUILTIN_STRATEGIES
from repro.core.escape import EscapeMode
from repro.core.negotiate import NegotiationConfig
from repro.core.router import RouterConfig
from repro.layout.io import layout_to_json
from repro.search.engine import Order

#: Every ``(strategy, param)`` pair whose schema type is float.
FLOAT_STRATEGY_PARAMS = [
    (strategy, spec.name)
    for strategy in BUILTIN_STRATEGIES
    for spec in param_specs(DEFAULT_REGISTRY.params_schema(strategy)).values()
    if spec.kind == "float"
]


class TestValidation:
    def test_needs_exactly_one_layout_source(self, small_layout):
        with pytest.raises(RoutingError):
            RouteRequest()
        with pytest.raises(RoutingError):
            RouteRequest(layout=small_layout, layout_path="chip.json")

    def test_rejects_bad_on_unroutable(self, small_layout):
        with pytest.raises(RoutingError):
            RouteRequest(layout=small_layout, on_unroutable="explode")

    def test_rejects_empty_strategy(self, small_layout):
        with pytest.raises(RoutingError):
            RouteRequest(layout=small_layout, strategy="")

    def test_params_are_copied(self, small_layout):
        params = {"passes": 3}
        request = RouteRequest(
            layout=small_layout, strategy="two-pass", strategy_params=params
        )
        params["passes"] = 99
        assert request.strategy_params["passes"] == 3


class TestConfigValidation:
    """RouterConfig rejects bad values at construction (satellite task)."""

    def test_rejects_negative_bend_penalty(self):
        with pytest.raises(RoutingError):
            RouterConfig(bend_penalty=-0.5)

    def test_rejects_negative_corner_epsilon(self):
        with pytest.raises(RoutingError):
            RouterConfig(corner_epsilon=-0.01)

    def test_rejects_nonpositive_node_limit(self):
        with pytest.raises(RoutingError):
            RouterConfig(node_limit=0)

    def test_defaults_still_fine(self):
        RouterConfig()  # must not raise


class TestConfigSerialization:
    def test_round_trip_defaults(self):
        config = RouterConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_round_trip_non_defaults(self):
        config = RouterConfig(
            mode=EscapeMode.AGGRESSIVE,
            order=Order.BEST_FIRST,
            inverted_corner=True,
            bend_penalty=0.5,
            refine=True,
            node_limit=5000,
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_missing_keys_fall_back_to_defaults(self):
        assert config_from_dict({}) == RouterConfig()
        assert config_from_dict({"refine": True}) == RouterConfig(refine=True)

    def test_unknown_keys_rejected(self):
        with pytest.raises(RoutingError):
            config_from_dict({"wrokers": 3})

    def test_bad_enum_value_rejected(self):
        with pytest.raises(RoutingError):
            config_from_dict({"mode": "reckless"})


class TestRequestSerialization:
    def test_inline_layout_round_trip(self, small_layout):
        request = RouteRequest(
            layout=small_layout,
            config=RouterConfig(inverted_corner=True, prune_clean_nets=False),
            strategy="negotiated",
            strategy_params={"max_iterations": 7},
            on_unroutable="skip",
            verify=False,
            detail=True,
            report=True,
        )
        rebuilt = RouteRequest.from_json(request.to_json())
        assert rebuilt.to_dict() == request.to_dict()
        assert rebuilt.config == request.config
        assert rebuilt.strategy == "negotiated"
        assert dict(rebuilt.strategy_params) == {"max_iterations": 7}
        assert rebuilt.on_unroutable == "skip"
        assert (rebuilt.verify, rebuilt.detail, rebuilt.report) == (False, True, True)
        # the embedded layout is a real, routable layout again
        assert len(rebuilt.resolve_layout().nets) == len(small_layout.nets)

    def test_path_reference_round_trip(self, tmp_path, small_layout):
        path = tmp_path / "chip.json"
        path.write_text(layout_to_json(small_layout), encoding="utf-8")
        request = RouteRequest(layout_path=str(path))
        rebuilt = RouteRequest.from_json(request.to_json())
        assert rebuilt.layout_path == str(path)
        assert rebuilt.layout is None
        assert len(rebuilt.resolve_layout().nets) == len(small_layout.nets)

    def test_with_layout_inlines_reference(self, tmp_path, small_layout):
        path = tmp_path / "chip.json"
        path.write_text(layout_to_json(small_layout), encoding="utf-8")
        request = RouteRequest(layout_path=str(path))
        inlined = request.with_layout(request.resolve_layout())
        assert inlined.layout is not None
        assert inlined.layout_path is None

    def test_bad_version_rejected(self, small_layout):
        data = RouteRequest(layout=small_layout).to_dict()
        data["version"] = 99
        with pytest.raises(RoutingError):
            RouteRequest.from_dict(data)

    def test_invalid_json_rejected(self):
        with pytest.raises(RoutingError):
            RouteRequest.from_json("not json{")


class TestToggleFieldsFromDisk:
    """The prune_clean_nets knob survives a disk round-trip."""

    def test_non_default_toggles_round_trip_via_file(self, tmp_path, small_layout):
        request = RouteRequest(
            layout=small_layout,
            config=RouterConfig(prune_clean_nets=False),
            strategy="negotiated",
            strategy_params={"max_iterations": 4},
        )
        path = tmp_path / "request.json"
        path.write_text(request.to_json(), encoding="utf-8")
        reloaded = RouteRequest.from_json(path.read_text(encoding="utf-8"))
        assert reloaded.config.prune_clean_nets is False
        assert reloaded.config == request.config
        assert reloaded.strategy == "negotiated"

    def test_toggle_defaults_survive_sparse_file(self, tmp_path, small_layout):
        # A request file written before PR 3 carries no toggle keys;
        # loading it must fall back to the defaults (pruning on), not
        # crash.
        request = RouteRequest(layout=small_layout)
        data = request.to_dict()
        del data["config"]["prune_clean_nets"]
        path = tmp_path / "request.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        reloaded = RouteRequest.from_json(path.read_text(encoding="utf-8"))
        assert reloaded.config.prune_clean_nets is True

    def test_toggles_reach_the_routed_result(self, tmp_path, small_layout):
        # A file written while the search engine and the ray memo were
        # still config knobs loads and routes exactly like a fresh one.
        from repro.api import RoutingPipeline
        from repro.scenarios import route_fingerprint

        request = RouteRequest(layout=small_layout)
        data = request.to_dict()
        data["config"].update({"engine": "native", "ray_cache": False})
        path = tmp_path / "request.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.warns(UserWarning, match="retired"):
            reloaded = RouteRequest.from_json(path.read_text(encoding="utf-8"))
        assert reloaded.config == RouterConfig()
        pipeline = RoutingPipeline()
        assert route_fingerprint(pipeline.run(reloaded).route) == route_fingerprint(
            pipeline.run(request).route
        )


class TestRetiredConfigKeys:
    """``engine``, ``ray_cache``, ``workers`` and ``executor`` left the
    config; old JSON still loads."""

    @pytest.mark.parametrize(
        "retired",
        [
            {"engine": "native"},
            {"engine": "turbo"},
            {"ray_cache": False},
            {"workers": 4},
            {"executor": "thread"},
            {"workers": 4, "executor": "thread"},
        ],
    )
    def test_retired_keys_dropped_with_a_warning(self, retired):
        with pytest.warns(UserWarning, match="retired router config key"):
            assert config_from_dict(retired) == RouterConfig()

    def test_other_unknown_keys_still_raise(self):
        with pytest.warns(UserWarning):
            with pytest.raises(RoutingError, match="wrokers"):
                config_from_dict({"engine": "scalar", "wrokers": 3})

    def test_retired_keys_are_no_longer_written(self):
        written = set(config_to_dict(RouterConfig()))
        assert not {"engine", "ray_cache", "workers", "executor"} & written

    def test_router_config_has_ten_fields(self):
        assert len(dataclasses.fields(RouterConfig)) == 10


class TestMalformedFields:
    """Ill-typed request fields raise RoutingError (a 400 over HTTP), never
    an AttributeError/ValueError (a 500) or a silently flipped toggle."""

    @pytest.fixture
    def data(self, small_layout):
        return RouteRequest(layout=small_layout, strategy="negotiated").to_dict()

    @pytest.mark.parametrize("config", [[], "fast", 3, None])
    def test_config_must_be_an_object(self, data, config):
        data["config"] = config
        with pytest.raises(RoutingError, match="router config must be a JSON object"):
            RouteRequest.from_dict(data)

    @pytest.mark.parametrize("params", ["x", [], 7])
    def test_strategy_params_must_be_an_object(self, data, params):
        data["strategy_params"] = params
        with pytest.raises(RoutingError, match="strategy_params must be a JSON object"):
            RouteRequest.from_dict(data)

    @pytest.mark.parametrize("field", ["verify", "detail", "report"])
    @pytest.mark.parametrize("value", ["no", "false", 0, 1, None])
    def test_request_flags_must_be_booleans(self, data, field, value):
        data[field] = value
        with pytest.raises(RoutingError, match=f"{field} must be a JSON boolean"):
            RouteRequest.from_dict(data)

    @pytest.mark.parametrize("field", request_module._CONFIG_FLAGS)
    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_config_flags_must_be_booleans(self, data, field, value):
        data["config"][field] = value
        with pytest.raises(RoutingError, match=f"{field} must be a JSON boolean"):
            RouteRequest.from_dict(data)

    @pytest.mark.parametrize("field", ["bend_penalty", "corner_epsilon"])
    @pytest.mark.parametrize(
        "value",
        [True, "0.5", None, [], float("nan"), float("inf"), 10**400],
        ids=["true", "string", "null", "list", "nan", "inf", "huge-int"],
    )
    def test_config_reals_must_be_finite_numbers(self, data, field, value):
        data["config"][field] = value
        with pytest.raises(RoutingError, match=f"malformed router config: {field}"):
            RouteRequest.from_dict(data)

    @pytest.mark.parametrize("strategy, field", FLOAT_STRATEGY_PARAMS)
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "huge-int"]
    )
    def test_strategy_float_params_must_be_finite_numbers(self, data, strategy, field, value):
        # NaN passes every `< 0` range check and 10**400 overflows
        # float(): both must fail intake, not route or crash.
        data["strategy"] = strategy
        data["strategy_params"] = {field: value}
        with pytest.raises(StrategyParamError, match=field) as excinfo:
            RouteRequest.from_dict(data)
        assert [key for key, _error in excinfo.value.invalid] == [field]

    @pytest.mark.parametrize(
        "strategy, field, ceiling",
        [
            ("negotiated", "max_iterations", MAX_ITERATIONS),
            ("timing-driven", "max_iterations", MAX_ITERATIONS),
            ("two-pass", "passes", MAX_ITERATIONS + 1),
        ],
    )
    def test_round_counts_above_the_ceiling_rejected(self, data, strategy, field, ceiling):
        # 10**9 rounds would survive the round trip and pin a worker.
        data["strategy"] = strategy
        data["strategy_params"] = {field: 10**9}
        with pytest.raises(StrategyParamError, match=f"{field}.*<= {ceiling}") as excinfo:
            RouteRequest.from_dict(data)
        assert [key for key, _error in excinfo.value.invalid] == [field]
        data["strategy_params"] = {field: ceiling}
        assert RouteRequest.from_dict(data).strategy_params == {field: ceiling}

    def test_in_process_config_has_no_ceiling(self):
        assert NegotiationConfig(max_iterations=10**9).max_iterations == 10**9

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"passes": 1}, "passes >= 2"),
            ({"penalty_weight": -1.0}, "penalty_weight must be >= 0"),
        ],
    )
    def test_two_pass_params_out_of_range(self, data, params, message):
        data["strategy"] = "two-pass"
        data["strategy_params"] = params
        with pytest.raises(RoutingError, match=message):
            RouteRequest.from_dict(data)

    @pytest.mark.parametrize("value", [2.5, "5", True, False, float("inf"), [3]])
    def test_node_limit_must_be_an_integer_or_null(self, data, value):
        data["config"]["node_limit"] = value
        with pytest.raises(RoutingError, match="malformed router config: node_limit"):
            RouteRequest.from_dict(data)

    @pytest.mark.parametrize(
        "field, value, expected",
        [("node_limit", 5.0, 5), ("bend_penalty", 1, 1.0), ("corner_epsilon", 0, 0.0)],
    )
    def test_config_numbers_of_the_other_json_kind_load(self, data, field, value, expected):
        data["config"][field] = value
        loaded = getattr(RouteRequest.from_dict(data).config, field)
        assert loaded == expected and type(loaded) is type(expected)
