#!/usr/bin/env python
"""The one driver for the tracked bench suites.

Four suites are tracked, each in its own module, and each writes one
artifact ``BENCH_<suite>.json``; the committed copies in the
repository root are the baselines:

* ``hotpath`` (:mod:`benchmarks.bench_x5_hotpath`) — ray memo on vs
  off and the reference oracle vs the default search;
* ``incremental`` (:mod:`benchmarks.bench_x6_incremental`) — warm
  reroute vs routing from scratch;
* ``timing`` (:mod:`benchmarks.bench_x7_timing`) — timing-driven vs
  negotiated critical-net delay;
* ``service`` (:mod:`benchmarks.bench_service_load`) — concurrent
  clients over real HTTP across the executor x store matrix.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/run_suite.py                  # re-record all
    PYTHONPATH=src python benchmarks/run_suite.py --suite timing   # one suite
    PYTHONPATH=src python benchmarks/run_suite.py --quick --check --out bench

A suite module holds only what differs between suites: ``WORKLOADS``,
its ``QUICK`` subset (names of ``WORKLOADS``), ``run_workload(spec)``,
``gate(results)`` with the suite's machine-independent gates, and the
dotted names of its ``WALL_KEYS`` and ``COUNTER_KEYS``.

The driver runs the selected workloads, always writes the artifact,
then gates.  With ``--check`` every result row is also compared, by
workload name, against the committed ``BENCH_<suite>.json``: wall keys
may not exceed :data:`WALL_LIMIT` times the baseline (loose on purpose:
the baseline may come from another machine, so the ratio only catches
algorithmic blowups), and deterministic counters must match exactly.
A missing, unreadable or other-schema baseline fails ``--check``, and
every baseline is loaded before any artifact is written, so ``--out .``
can overwrite the files it checks against.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
# Make `benchmarks.*` and `repro.*` importable no matter where the
# driver is launched from (CI runs it with only PYTHONPATH=src).
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

SCHEMA = 2

#: Allowed ratio of a wall key over its baseline.
WALL_LIMIT = 3.0

#: Suite name -> module.
SUITES = {
    "hotpath": "benchmarks.bench_x5_hotpath",
    "incremental": "benchmarks.bench_x6_incremental",
    "timing": "benchmarks.bench_x7_timing",
    "service": "benchmarks.bench_service_load",
}


class BaselineError(Exception):
    """A baseline that ``--check`` cannot compare against."""


def best_wall(fn, repeats: int) -> tuple[float, object]:
    """Minimum wall over *repeats* calls of *fn*, plus the last result.

    The tracked workloads are deterministic, so the minimum is the
    honest estimate of the work itself.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def cpu_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def baseline_path(suite: str) -> pathlib.Path:
    return REPO_ROOT / f"BENCH_{suite}.json"


def load_baseline(suite: str) -> dict:
    """The committed artifact of *suite*; raises :class:`BaselineError`."""
    path = baseline_path(suite)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise BaselineError(f"missing baseline {path}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise BaselineError(f"unreadable baseline {path}: {exc}") from None
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        found = data.get("schema") if isinstance(data, dict) else None
        raise BaselineError(
            f"baseline {path} has schema {found!r}, expected {SCHEMA}"
        )
    if data.get("suite") != suite or not isinstance(data.get("workloads"), dict):
        raise BaselineError(f"baseline {path} is not a {suite} artifact")
    return data


def _flatten(entry: dict, prefix: str = "") -> dict:
    """Nested row -> ``{"a.b.c": value}``."""
    flat = {}
    for key, value in entry.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def check(suite, baseline: dict, results: dict[str, dict]) -> list[str]:
    """Compare *results* with *baseline* row by row, by workload name."""
    failures = []
    for name, entry in results.items():
        base_entry = baseline["workloads"].get(name)
        if base_entry is None:
            failures.append(f"{name}: no baseline row; re-record the baseline")
            continue
        base, new = _flatten(base_entry), _flatten(entry)
        for key in (*suite.WALL_KEYS, *suite.COUNTER_KEYS):
            if key not in base and key not in new:
                continue
            if key not in base or key not in new:
                failures.append(f"{name}: {key} present in only one of run and baseline")
            elif key in suite.COUNTER_KEYS:
                if new[key] != base[key]:
                    failures.append(f"{name}: {key} {base[key]} -> {new[key]}, must match")
            elif base[key]:
                ratio = new[key] / base[key]
                verdict = "REGRESSED" if ratio > WALL_LIMIT else "ok"
                print(
                    f"  {name}: {key} {base[key]:.3f}s -> {new[key]:.3f}s "
                    f"({ratio:.2f}x, limit {WALL_LIMIT:.0f}x) {verdict}"
                )
                if ratio > WALL_LIMIT:
                    failures.append(
                        f"{name}: {key} {ratio:.2f}x over baseline "
                        f"(limit {WALL_LIMIT:.0f}x)"
                    )
    return failures


def run(
    name: str,
    suite,
    *,
    quick: bool,
    out_dir: pathlib.Path,
    baseline: dict | None = None,
) -> list[str]:
    """Run one suite, write its artifact, then gate; returns failures."""
    mode = "quick" if quick else "full"
    print(f"run_suite: {name} suite ({mode}) ...")
    results = {}
    for workload in suite.QUICK if quick else suite.WORKLOADS:
        results[workload] = suite.run_workload(suite.WORKLOADS[workload])
        flat = _flatten(results[workload])
        row = ", ".join(
            f"{key}={flat[key]}"
            for key in (*suite.WALL_KEYS, *suite.COUNTER_KEYS)
            if key in flat
        )
        print(f"  {workload}: {row}")

    out = out_dir / f"BENCH_{name}.json"
    payload = {
        "schema": SCHEMA,
        "suite": name,
        "mode": mode,
        "python": platform.python_version(),
        "cpu_cores": cpu_cores(),
        "workloads": results,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"run_suite: wrote {out}")

    failures = suite.gate(results)
    if baseline is not None:
        print(f"run_suite: {name} check against {baseline_path(name)}")
        failures += check(suite, baseline, results)
    return [f"{name}: {failure}" for failure in failures]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite", choices=(*SUITES, "all"), default="all",
        help="which tracked suite to run (default all)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="run only each suite's QUICK workloads (CI smoke)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="also compare against the committed BENCH_<suite>.json; "
             "a missing or other-schema baseline fails",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=REPO_ROOT, metavar="DIR",
        help="directory for the BENCH_<suite>.json artifacts "
             "(default: the repository root)",
    )
    args = parser.parse_args(argv)
    names = tuple(SUITES) if args.suite == "all" else (args.suite,)

    baselines = {}
    if args.check:
        try:
            baselines = {name: load_baseline(name) for name in names}
        except BaselineError as exc:
            print(f"run_suite: {exc}", file=sys.stderr)
            return 1

    args.out.mkdir(parents=True, exist_ok=True)
    failures = []
    for name in names:
        failures += run(
            name,
            importlib.import_module(SUITES[name]),
            quick=args.quick,
            out_dir=args.out,
            baseline=baselines.get(name),
        )
    for failure in failures:
        print(f"run_suite: FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    print("run_suite: all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
