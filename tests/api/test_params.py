"""Typed strategy-parameter schemas: validation, coercion, round-trips.

Every built-in strategy declares a frozen-dataclass schema, so the
contract is testable uniformly: good params construct and round-trip
through JSON untouched, unknown keys fail at ``RouteRequest``
construction with the structured :class:`StrategyParamError`, and the
lenient ``from_dict`` path warns-and-drops instead (ill-typed values
raise on both paths — a wrong type must never silently route with
defaults).
"""

import warnings

import pytest

from repro.api import RouteRequest, StrategyParamError
from repro.api.params import ParamSpec, coerce_params, param_specs, schema_dict
from repro.api.registry import DEFAULT_REGISTRY, StrategyRegistry
from repro.api.strategies import BUILTIN_STRATEGIES
from repro.errors import RoutingError

#: One known-good non-default params dict per built-in strategy.
VALID_PARAMS = {
    "single": {"max_gap": 4, "measure_congestion": False},
    "two-pass": {"penalty_weight": 3.0, "passes": 3, "max_gap": 5},
    "negotiated": {"max_iterations": 5, "history_gain": 1.5},
    "timing-driven": {
        "max_iterations": 5,
        "delay_weight": 0.25,
        "target_delay": 40.0,
    },
}

#: One ill-typed value per strategy (right key, wrong type).
ILL_TYPED_PARAMS = {
    "single": {"measure_congestion": "yes"},
    "two-pass": {"passes": "three"},
    "negotiated": {"history_gain": "steep"},
    "timing-driven": {"delay_weight": "heavy"},
}


class TestSchemasDeclared:
    def test_every_builtin_has_a_schema(self):
        for name in BUILTIN_STRATEGIES:
            schema = DEFAULT_REGISTRY.params_schema(name)
            assert schema is not None, name
            assert param_specs(schema), name

    def test_valid_params_cover_every_builtin(self):
        assert set(VALID_PARAMS) == set(BUILTIN_STRATEGIES)
        assert set(ILL_TYPED_PARAMS) == set(BUILTIN_STRATEGIES)


@pytest.mark.parametrize("strategy", BUILTIN_STRATEGIES)
class TestPerStrategyContract:
    def test_valid_params_round_trip(self, small_layout, strategy):
        request = RouteRequest(
            layout=small_layout,
            strategy=strategy,
            strategy_params=dict(VALID_PARAMS[strategy]),
        )
        clone = RouteRequest.from_dict(request.to_dict())
        assert clone.strategy == strategy
        assert clone.strategy_params == VALID_PARAMS[strategy]

    def test_unknown_key_rejected_at_construction(self, small_layout, strategy):
        params = {**VALID_PARAMS[strategy], "warp_factor": 9}
        with pytest.raises(StrategyParamError) as excinfo:
            RouteRequest(
                layout=small_layout, strategy=strategy, strategy_params=params
            )
        error = excinfo.value
        assert error.strategy == strategy
        assert error.unknown == ("warp_factor",)
        details = error.details()
        assert details["unknown"] == ["warp_factor"]
        assert set(VALID_PARAMS[strategy]) <= set(details["known"])

    def test_ill_typed_value_rejected_at_construction(self, small_layout, strategy):
        with pytest.raises(StrategyParamError) as excinfo:
            RouteRequest(
                layout=small_layout,
                strategy=strategy,
                strategy_params=dict(ILL_TYPED_PARAMS[strategy]),
            )
        (key,) = ILL_TYPED_PARAMS[strategy]
        assert excinfo.value.invalid[0][0] == key

    @pytest.mark.parametrize("max_gap", [0, -5])
    def test_max_gap_below_one_rejected(self, small_layout, strategy, max_gap):
        # Every passage is at least 1 wide: such a cutoff would measure
        # nothing and report a congested route as converged.
        params = {"max_gap": max_gap}
        with pytest.raises(RoutingError, match="max_gap must be >= 1"):
            RouteRequest(layout=small_layout, strategy=strategy, strategy_params=params)
        document = RouteRequest(layout=small_layout, strategy=strategy).to_dict()
        document["strategy_params"] = params
        with pytest.raises(RoutingError, match="max_gap must be >= 1"):
            RouteRequest.from_dict(document)
        with pytest.raises(RoutingError, match="max_gap must be >= 1"):
            DEFAULT_REGISTRY.create(strategy, params)

    def test_from_dict_warns_and_drops_unknown_keys(self, small_layout, strategy):
        """Old serialized requests keep loading (lenient intake)."""
        document = RouteRequest(
            layout=small_layout,
            strategy=strategy,
            strategy_params=dict(VALID_PARAMS[strategy]),
        ).to_dict()
        document["strategy_params"]["retired_knob"] = 1
        with pytest.warns(UserWarning, match="retired_knob"):
            request = RouteRequest.from_dict(document)
        assert request.strategy_params == VALID_PARAMS[strategy]

    def test_from_dict_still_rejects_ill_typed_values(self, small_layout, strategy):
        document = RouteRequest(layout=small_layout, strategy=strategy).to_dict()
        document["strategy_params"] = dict(ILL_TYPED_PARAMS[strategy])
        with pytest.raises(StrategyParamError):
            RouteRequest.from_dict(document)

    def test_create_validates_even_without_a_request(self, strategy):
        with pytest.raises(StrategyParamError):
            DEFAULT_REGISTRY.create(strategy, {"warp_factor": 9})


class TestCoercion:
    def test_json_float_coerces_to_int_knob(self, small_layout):
        # JSON writers are free to render 3 as 3.0.
        request = RouteRequest(
            layout=small_layout,
            strategy="two-pass",
            strategy_params={"passes": 3.0},
        )
        assert request.strategy_params["passes"] == 3
        assert isinstance(request.strategy_params["passes"], int)

    def test_int_knob_rejects_fractional_float(self, small_layout):
        with pytest.raises(StrategyParamError):
            RouteRequest(
                layout=small_layout,
                strategy="two-pass",
                strategy_params={"passes": 2.5},
            )

    def test_bool_is_not_an_int(self, small_layout):
        with pytest.raises(StrategyParamError):
            RouteRequest(
                layout=small_layout,
                strategy="negotiated",
                strategy_params={"max_iterations": True},
            )

    def test_int_is_not_a_bool(self, small_layout):
        with pytest.raises(StrategyParamError):
            RouteRequest(
                layout=small_layout,
                strategy="single",
                strategy_params={"measure_congestion": 1},
            )

    def test_int_widens_to_float_knob(self, small_layout):
        request = RouteRequest(
            layout=small_layout,
            strategy="two-pass",
            strategy_params={"penalty_weight": 4},
        )
        assert request.strategy_params["penalty_weight"] == 4.0
        assert isinstance(request.strategy_params["penalty_weight"], float)

    def test_optional_knob_accepts_none(self, small_layout):
        request = RouteRequest(
            layout=small_layout,
            strategy="single",
            strategy_params={"max_gap": None},
        )
        assert request.strategy_params["max_gap"] is None

    def test_required_type_rejects_none(self, small_layout):
        with pytest.raises(StrategyParamError):
            RouteRequest(
                layout=small_layout,
                strategy="negotiated",
                strategy_params={"max_iterations": None},
            )

    def test_absent_keys_stay_absent(self, small_layout):
        # Defaults belong to the strategy factory, not the request.
        request = RouteRequest(layout=small_layout, strategy="negotiated")
        assert request.strategy_params == {}


class TestSchemaIntrospection:
    def test_schema_dict_rows(self):
        schema = DEFAULT_REGISTRY.params_schema("timing-driven")
        rows = schema_dict(schema)
        assert rows["delay_weight"] == {
            "type": "float",
            "optional": False,
            "default": 0.5,
        }
        assert rows["target_delay"]["optional"] is True
        assert rows["max_gap"] == {"type": "int", "optional": True, "default": None}

    def test_describe_publishes_every_builtin(self):
        described = DEFAULT_REGISTRY.describe()
        for name in BUILTIN_STRATEGIES:
            entry = described[name]
            assert entry["description"]
            assert entry["params"], name
            for row in entry["params"].values():
                assert set(row) == {"type", "optional", "default"}

    def test_non_dataclass_schema_rejected_at_registration(self):
        registry = StrategyRegistry()
        with pytest.raises(RoutingError):
            registry.register("bad", lambda **kw: None, params=dict)

    def test_unschemad_strategy_passes_params_through(self):
        registry = StrategyRegistry()
        registry.register("free-form", lambda **kw: None)
        params = {"anything": object()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert registry.validate_params("free-form", params) == params

    def test_unknown_name_passes_through(self):
        # A later custom registry might know it; the default one must
        # not reject the request at construction time.
        assert DEFAULT_REGISTRY.validate_params("not-installed", {"x": 1}) == {
            "x": 1
        }


class TestCoerceParamsDirect:
    SPEC = ParamSpec(name="n", kind="int", allow_none=False, default=0)

    def test_lenient_mode_warns_once_per_call(self):
        schema = DEFAULT_REGISTRY.params_schema("negotiated")
        with pytest.warns(UserWarning, match="ghost"):
            coerced = coerce_params(
                schema,
                {"max_iterations": 3, "ghost": 1},
                strategy="negotiated",
                strict=False,
            )
        assert coerced == {"max_iterations": 3}

    def test_strict_mode_collects_all_problems(self):
        schema = DEFAULT_REGISTRY.params_schema("negotiated")
        with pytest.raises(StrategyParamError) as excinfo:
            coerce_params(
                schema,
                {"ghost": 1, "max_iterations": "many"},
                strategy="negotiated",
            )
        assert excinfo.value.unknown == ("ghost",)
        assert [key for key, _ in excinfo.value.invalid] == ["max_iterations"]
