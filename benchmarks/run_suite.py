#!/usr/bin/env python
"""Perf-benchmark suite driver: runs the tracked workloads and emits
the committed baseline artifacts so every PR has a perf trajectory to
compare against.

Two suites are tracked (pick with ``--suite``):

* ``hotpath`` (default) — the single-process routing hot path; emits
  ``BENCH_hotpath.json``.
* ``service`` — N concurrent clients through the real HTTP service
  across the executor × store matrix
  (:mod:`benchmarks.bench_service_load`); emits ``BENCH_service.json``.
* ``all`` — both, each against its default artifact (``--check`` is
  per-suite and therefore rejected here; gate suites individually).

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/run_suite.py            # full hotpath
    PYTHONPATH=src python benchmarks/run_suite.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/run_suite.py --quick \\
        --check BENCH_hotpath.json                           # regression gate
    PYTHONPATH=src python benchmarks/run_suite.py --suite service --quick \\
        --check BENCH_service.json                           # service gate

The hotpath artifact records, per workload: wall time with the ray
cache off and on, the cache speedup, nodes expanded, expansions per
second, cache hit rate, the byte-identity verdict (cache on vs off),
and an ``engines`` block comparing the reference oracle (row
``scalar``: the scalar search with the ray memo off) with the default
search (row ``vectorized``): wall, expansions per second, speedup vs
the reference, and a byte-identity verdict.  See
``docs/performance.md`` for how to read it.

With ``--check BASELINE``, workloads present in both the baseline and
the current run are compared; the driver exits non-zero when any
workload's wall time regresses more than ``--max-regression``
(default 3x — generous on purpose: CI boxes are slow and noisy, so the
gate only catches algorithmic blowups, not jitter).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
# Make `benchmarks.*` and `repro.*` importable no matter where the
# driver is launched from (CI runs it with only PYTHONPATH=src).
for entry in (str(_REPO_ROOT), str(_REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

SCHEMA_VERSION = 1

#: Expansion counts are deterministic per code+workload, so anything
#: beyond rounding-free growth is an algorithmic regression; 1.5x
#: leaves room for deliberate heuristic tweaks that a PR can absorb by
#: regenerating the baseline.
NODE_REGRESSION_LIMIT = 1.5


def _load_baseline(path: pathlib.Path) -> dict | None:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError) as exc:
        print(f"run_suite: unreadable baseline {path}: {exc}", file=sys.stderr)
        return None
    if data.get("schema") != SCHEMA_VERSION:
        print(
            f"run_suite: baseline {path} has schema {data.get('schema')!r}, "
            f"expected {SCHEMA_VERSION}; skipping regression check",
            file=sys.stderr,
        )
        return None
    return data


def _check_regressions(
    baseline: dict, current: dict[str, dict], max_regression: float
) -> list[str]:
    """Wall-time gate plus a machine-independent expansion-count gate.

    Wall clock varies across hardware (the committed baseline may come
    from a different box than CI), which is why the wall limit is a
    generous ratio.  Node expansions are deterministic for identical
    code+workload, so any drift there beyond noise-free tolerance is
    an algorithmic change and is gated much tighter.
    """
    failures: list[str] = []
    for name, entry in current.items():
        base_entry = baseline.get("workloads", {}).get(name)
        if base_entry is None:
            continue
        base_wall = base_entry.get("wall_seconds_cache_on")
        new_wall = entry.get("wall_seconds_cache_on")
        if base_wall and new_wall:
            ratio = new_wall / base_wall
            verdict = "REGRESSED" if ratio > max_regression else "ok"
            print(
                f"  {name}: wall {base_wall:.3f}s -> {new_wall:.3f}s "
                f"({ratio:.2f}x, limit {max_regression:.1f}x) {verdict}"
            )
            if ratio > max_regression:
                failures.append(
                    f"{name}: wall {ratio:.2f}x over baseline (limit {max_regression:.1f}x)"
                )
        base_nodes = base_entry.get("nodes_expanded")
        new_nodes = entry.get("nodes_expanded")
        if base_nodes and new_nodes:
            node_ratio = new_nodes / base_nodes
            verdict = "REGRESSED" if node_ratio > NODE_REGRESSION_LIMIT else "ok"
            print(
                f"  {name}: expansions {base_nodes} -> {new_nodes} "
                f"({node_ratio:.2f}x, limit {NODE_REGRESSION_LIMIT:.1f}x) {verdict}"
            )
            if node_ratio > NODE_REGRESSION_LIMIT:
                failures.append(
                    f"{name}: {node_ratio:.2f}x node expansions over baseline "
                    f"(limit {NODE_REGRESSION_LIMIT:.1f}x)"
                )
        # Per-engine wall gate, same generous ratio: catches one engine
        # regressing while the headline cache-on number stays healthy.
        for engine, stats in entry.get("engines", {}).items():
            base_engine = base_entry.get("engines", {}).get(engine, {})
            base_wall = base_engine.get("wall_seconds")
            new_wall = stats.get("wall_seconds")
            if not (base_wall and new_wall):
                continue
            ratio = new_wall / base_wall
            verdict = "REGRESSED" if ratio > max_regression else "ok"
            print(
                f"  {name}[{engine}]: wall {base_wall:.3f}s -> {new_wall:.3f}s "
                f"({ratio:.2f}x, limit {max_regression:.1f}x) {verdict}"
            )
            if ratio > max_regression:
                failures.append(
                    f"{name}[{engine}]: wall {ratio:.2f}x over baseline "
                    f"(limit {max_regression:.1f}x)"
                )
    return failures


def _run_service_suite(args: argparse.Namespace) -> int:
    """Delegate to :mod:`benchmarks.bench_service_load`'s own driver."""
    from benchmarks.bench_service_load import main as service_main

    forwarded: list[str] = []
    if args.quick:
        forwarded.append("--quick")
    forwarded += ["--out", str(args.out or _REPO_ROOT / "BENCH_service.json")]
    if args.check is not None:
        forwarded += [
            "--check", str(args.check),
            "--max-regression", str(args.max_regression),
        ]
    return service_main(forwarded)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite", choices=("hotpath", "service", "all"), default="hotpath",
        help="which tracked suite to run (default hotpath)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="run only the quick workload subset (CI smoke)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="where to write the JSON artifact (default: the suite's "
             "committed baseline name in the repo root)",
    )
    parser.add_argument(
        "--check", type=pathlib.Path, default=None, metavar="BASELINE",
        help="compare against a recorded baseline JSON; exit 1 on regression",
    )
    parser.add_argument(
        "--max-regression", type=float, default=3.0,
        help="allowed wall-time ratio over the baseline before failing (default 3.0)",
    )
    args = parser.parse_args(argv)

    if args.suite == "all" and args.check is not None:
        parser.error("--check is per-suite; gate hotpath and service separately")
    if args.suite == "service":
        return _run_service_suite(args)
    if args.out is None:
        args.out = _REPO_ROOT / "BENCH_hotpath.json"

    # Read the baseline before writing --out: the CI smoke run points
    # both at the committed BENCH_hotpath.json.
    baseline = _load_baseline(args.check) if args.check else None

    from benchmarks.bench_x5_hotpath import PRE_OVERHAUL_REFERENCE, run_suite

    mode = "quick" if args.quick else "full"
    print(f"run_suite: hotpath suite ({mode}) ...")
    results = run_suite(quick=args.quick)
    for name, entry in results.items():
        if "identical_cache_on_off" in entry:
            print(
                f"  {name}: {entry['wall_seconds_cache_off']:.3f}s -> "
                f"{entry['wall_seconds_cache_on']:.3f}s with cache "
                f"({entry['speedup_cache']:.2f}x, hit rate "
                f"{entry['ray_cache_hit_rate'] * 100:.1f}%, "
                f"{entry['expansions_per_second']:.0f} expand/s, "
                f"identical={entry['identical_cache_on_off']})"
            )
        for engine, stats in entry.get("engines", {}).items():
            print(
                f"  {name}[{engine}]: {stats['wall_seconds']:.3f}s "
                f"({stats['expansions_per_second']:.0f} expand/s, "
                f"{stats['speedup_vs_scalar']:.2f}x vs scalar, "
                f"identical={stats['identical_to_scalar']})"
            )

    broken = [
        n for n, e in results.items() if not e.get("identical_cache_on_off", True)
    ]
    if broken:
        print(f"run_suite: cache changed routed results on: {broken}", file=sys.stderr)
        return 1
    engine_broken = [
        f"{name}[{engine}]"
        for name, entry in results.items()
        for engine, stats in entry.get("engines", {}).items()
        if not stats["identical_to_scalar"]
    ]
    if engine_broken:
        print(
            f"run_suite: engine changed routed results on: {engine_broken}",
            file=sys.stderr,
        )
        return 1
    skip_broken = [
        n
        for n, e in results.items()
        if "identical_strategy_skip" in e
        and not (e["identical_strategy_skip"] and e["strategy_ray_lookups"] == 0)
    ]
    if skip_broken:
        print(
            "run_suite: single-pass memo skip not byte-identical / not skipped "
            f"on: {skip_broken}",
            file=sys.stderr,
        )
        return 1

    payload = {
        "schema": SCHEMA_VERSION,
        "suite": "hotpath",
        "mode": mode,
        "python": platform.python_version(),
        "workloads": results,
        "reference_pre_overhaul": PRE_OVERHAUL_REFERENCE,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"run_suite: wrote {args.out}")

    if baseline is not None:
        print(f"run_suite: regression check against {args.check}")
        failures = _check_regressions(baseline, results, args.max_regression)
        if failures:
            for failure in failures:
                print(f"run_suite: REGRESSION {failure}", file=sys.stderr)
            return 1
        print("run_suite: no regressions")
    elif args.check:
        print("run_suite: no usable baseline; skipping regression check")

    if args.suite == "all":
        return _run_service_suite(
            argparse.Namespace(
                quick=args.quick,
                out=None,
                check=None,
                max_regression=args.max_regression,
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
