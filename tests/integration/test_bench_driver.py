"""The bench driver's baseline check, on synthetic suites and artifacts.

No routing happens here: a fake suite module stands in for the tracked
suites, so these tests pin the driver's plumbing — baseline loading,
the exact counter gate, the wall ratio gate, quick-vs-full matching by
name, and writing the artifact before gating.
"""

from __future__ import annotations

import importlib
import json
import sys
import types

import pytest

from benchmarks import run_suite


def _fake_suite(walls: dict[str, float], *, gate_failures=()) -> types.ModuleType:
    suite = types.ModuleType("fake_bench_suite")
    suite.WORKLOADS = {name: {"wall": wall} for name, wall in walls.items()}
    suite.QUICK = tuple(walls)[:1]
    suite.WALL_KEYS = ("wall_seconds",)
    suite.COUNTER_KEYS = ("nodes", "engines.fast.nodes")
    suite.run_workload = lambda spec: {
        "wall_seconds": spec["wall"],
        "nodes": 100,
        "engines": {"fast": {"nodes": 40}},
    }
    suite.gate = lambda results: list(gate_failures)
    return suite


@pytest.fixture
def driver(tmp_path, monkeypatch):
    """Point the driver at a fake ``fake`` suite with baselines in tmp."""
    baselines = tmp_path / "baselines"
    baselines.mkdir()
    out = tmp_path / "out"
    monkeypatch.setattr(run_suite, "REPO_ROOT", baselines)
    monkeypatch.setattr(run_suite, "SUITES", {"fake": "fake_bench_suite"})

    def install(suite):
        monkeypatch.setitem(sys.modules, "fake_bench_suite", suite)

    def write_baseline(workloads, **header):
        payload = {"schema": run_suite.SCHEMA, "suite": "fake", "workloads": workloads}
        payload.update(header)
        (baselines / "BENCH_fake.json").write_text(json.dumps(payload))

    def main(*flags):
        return run_suite.main(["--suite", "fake", "--out", str(out), *flags])

    return types.SimpleNamespace(
        install=install, write_baseline=write_baseline, main=main, out=out
    )


def _row(wall=1.0, nodes=100, fast=40):
    return {"wall_seconds": wall, "nodes": nodes, "engines": {"fast": {"nodes": fast}}}


def test_matching_baseline_passes(driver):
    driver.install(_fake_suite({"a": 1.0}))
    driver.write_baseline({"a": _row()})
    assert driver.main("--check") == 0


def test_missing_baseline_fails_before_running(driver):
    ran = []
    suite = _fake_suite({"a": 1.0})
    suite.run_workload = lambda spec: ran.append(spec) or _row()
    driver.install(suite)
    assert driver.main("--check") == 1
    assert ran == []
    assert not (driver.out / "BENCH_fake.json").exists()


def test_wrong_schema_baseline_fails(driver):
    driver.install(_fake_suite({"a": 1.0}))
    driver.write_baseline({"a": _row()}, schema=1)
    assert driver.main("--check") == 1


def test_unreadable_baseline_fails(driver, tmp_path):
    driver.install(_fake_suite({"a": 1.0}))
    (tmp_path / "baselines" / "BENCH_fake.json").write_text("{not json")
    assert driver.main("--check") == 1


def test_without_check_no_baseline_is_needed(driver):
    driver.install(_fake_suite({"a": 1.0}))
    assert driver.main() == 0


@pytest.mark.parametrize(
    "baseline_row",
    [_row(nodes=101), _row(nodes=99), _row(fast=41)],
    ids=["top-level-plus-one", "top-level-minus-one", "nested-plus-one"],
)
def test_counter_off_by_one_fails(driver, baseline_row):
    driver.install(_fake_suite({"a": 1.0}))
    driver.write_baseline({"a": baseline_row})
    assert driver.main("--check") == 1


def test_counter_missing_from_baseline_fails(driver):
    driver.install(_fake_suite({"a": 1.0}))
    driver.write_baseline({"a": {"wall_seconds": 1.0, "nodes": 100}})
    assert driver.main("--check") == 1


def test_wall_over_three_times_baseline_fails(driver):
    driver.install(_fake_suite({"a": 1.0}))
    driver.write_baseline({"a": _row(wall=0.25)})
    assert driver.main("--check") == 1


def test_wall_within_three_times_baseline_passes(driver):
    driver.install(_fake_suite({"a": 1.0}))
    driver.write_baseline({"a": _row(wall=0.34)})
    assert driver.main("--check") == 0


def test_quick_run_is_checked_by_name_against_a_full_baseline(driver):
    driver.install(_fake_suite({"a": 1.0, "b": 50.0}))
    # Only "a" runs; "b" would fail the wall gate if it were compared.
    driver.write_baseline({"a": _row(), "b": _row(wall=1.0)}, mode="full")
    assert driver.main("--quick", "--check") == 0
    artifact = json.loads((driver.out / "BENCH_fake.json").read_text())
    assert artifact["mode"] == "quick"
    assert list(artifact["workloads"]) == ["a"]


def test_workload_missing_from_baseline_fails(driver):
    driver.install(_fake_suite({"a": 1.0, "b": 1.0}))
    driver.write_baseline({"a": _row()})
    assert driver.main("--check") == 1


def test_gate_failure_still_writes_the_artifact(driver):
    driver.install(_fake_suite({"a": 1.0}, gate_failures=["a: identity broken"]))
    assert driver.main() == 1
    artifact = json.loads((driver.out / "BENCH_fake.json").read_text())
    assert artifact["schema"] == run_suite.SCHEMA
    assert {"suite", "mode", "python", "cpu_cores", "workloads"} <= set(artifact)
    assert artifact["suite"] == "fake"
    assert artifact["workloads"]["a"] == _row()


def test_every_suite_exposes_the_suite_interface():
    for name, module in run_suite.SUITES.items():
        suite = importlib.import_module(module)
        assert set(suite.QUICK) <= set(suite.WORKLOADS), name
        for attr in ("run_workload", "gate", "WALL_KEYS", "COUNTER_KEYS"):
            assert hasattr(suite, attr), (name, attr)
        for attr in ("main", "_load_baseline", "_check_regressions", "SCHEMA_VERSION"):
            assert not hasattr(suite, attr), (name, attr)


# -- the suites' own gates, on synthetic rows -------------------------------


def _hotpath_row(**changes):
    row = {
        "kind": "negotiated",
        "identical_cache_on_off": True,
        "ray_cache_hit_rate": 0.9,
        "engines": {
            "scalar": {"identical_to_scalar": True, "speedup_vs_scalar": 1.0},
            "vectorized": {"identical_to_scalar": True, "speedup_vs_scalar": 6.0},
        },
    }
    row.update(changes)
    return row


def test_hotpath_gate():
    from benchmarks import bench_x5_hotpath as hotpath

    scaled = hotpath.ENGINE_FLOOR_WORKLOAD
    assert hotpath.gate({scaled: _hotpath_row(), "n": _hotpath_row()}) == []
    slow = _hotpath_row()
    slow["engines"]["vectorized"]["speedup_vs_scalar"] = hotpath.ENGINE_SPEEDUP_FLOOR - 0.01
    diverged = _hotpath_row()
    diverged["engines"]["vectorized"]["identical_to_scalar"] = False
    for results in (
        {scaled: slow},
        {"n": diverged},
        {"n": _hotpath_row(identical_cache_on_off=False)},
        {"n": _hotpath_row(ray_cache_hit_rate=hotpath.HIT_RATE_FLOOR)},
        {"s": _hotpath_row(identical_strategy_skip=True, strategy_ray_lookups=1)},
        {"s": _hotpath_row(identical_strategy_skip=False, strategy_ray_lookups=0)},
    ):
        assert hotpath.gate(results), results


def test_incremental_gate():
    from benchmarks import bench_x6_incremental as incremental

    def row(**changes):
        base = {"strategy": "single", "gated": True, "speedup": 4.0,
                "dirty_fraction": 0.1, "identical_to_scratch": True}
        return {**base, **changes}

    assert incremental.gate({"w": row(), "u": row(gated=False, speedup=1.0)}) == []
    assert incremental.gate({"w": row(speedup=incremental.SPEEDUP_FLOOR - 0.01)})
    assert incremental.gate({"w": row(identical_to_scratch=False)})
    assert incremental.gate({"w": row(strategy="negotiated", identical_to_scratch=False)}) == []


def test_timing_gate():
    from benchmarks import bench_x7_timing as timing

    def row(**changes):
        base = {"gated": True, "validity_problems": [],
                "worst_critical_delay_negotiated": 90.0,
                "worst_critical_delay_timing": 80.0,
                "wirelength_ratio_vs_single": 1.1}
        return {**base, **changes}

    assert timing.gate({"w": row()}) == []
    assert timing.gate({"w": row(worst_critical_delay_timing=90.0)})
    assert timing.gate({"w": row(validity_problems=["timing-driven: 1 failed nets"])})
    assert timing.gate({"w": row(wirelength_ratio_vs_single=2.0)})


def test_service_gate(monkeypatch):
    from benchmarks import bench_service_load as service

    def row(rps=10.0, **changes):
        return {"identical_to_inprocess": True, "failed": 0, "throughput_rps": rps, **changes}

    assert service.gate({"thread+memory_small": row(), "process+memory_small": row(rps=1.0)}) == []
    assert service.gate({"thread+sqlite": row(identical_to_inprocess=False)})
    assert service.gate({"thread+sqlite": row(failed=1)})
    monkeypatch.setattr(service, "cpu_cores", lambda: 2)
    assert service.gate({"thread+memory": row(), "process+memory": row(rps=12.0)}) == []
    assert service.gate({"thread+memory": row(), "process+memory": row(rps=9.0)})
    monkeypatch.setattr(service, "cpu_cores", lambda: 1)
    assert service.gate({"thread+memory": row(), "process+memory": row(rps=6.0)}) == []
    assert service.gate({"thread+memory": row(), "process+memory": row(rps=4.0)})
