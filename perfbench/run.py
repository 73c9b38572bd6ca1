"""Benchmark entry point.

    python3 perfbench/run.py --workload negotiate --seed 1 --seconds 30 --trace 0

``--workload`` is ``negotiate``, ``first-pass`` or ``design-loop``
(see ``perfbench/README.md``), or ``all`` to run the three in turn,
each in its own process.  Paths are taken relative to this file, so the
command works from the repository root or anywhere else.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` routes the workload's fixed request set once with every
layer boundary wrapped (``perfbench/tracing.py``) and part of it
untraced, reports the per-layer metrics and the tracing overhead, and
writes the spans to ``perfbench/traces/``.

The report goes to standard output.  Its last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status: 0 when every check passed, 1 when a correctness check
failed, 2 when the ``repro`` source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
TRACES = os.path.join(HERE, "traces")

WORKLOADS = ("negotiate", "first-pass", "design-loop")

#: Set-up (input generation, service start) is repeated this many times
#: and the median reported.
SETUP_REPEATS = 3

#: Requests (library workloads) or iterations (design-loop) also run
#: untraced in a traced run, for the tracing-overhead figure.
OVERHEAD_REQUESTS = 20
OVERHEAD_ITERATIONS = 12

#: Calibration runs before and after set-up, which scale set-up time.
CALIBRATION_RUNS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("route_p50_s", "s"),
    ("route_p90_s", "s"),
    ("nets_per_s", "nets/s"),
    ("throughput_rps", "req/s"),
    ("overflow", "units"),
    ("wirelength", "units"),
    ("worst_delay", "units"),
    ("peak_rss_mb", "MB"),
)

_LIBRARY = {
    "api.pipeline", "layout.resolve", "core.router.first_pass", "core.steiner",
    "core.congestion", "search", "search.engine", "analysis.verify",
}

#: Boundary groups each workload must exercise.  A per-layer metric
#: whose source fired zero times on a workload that expects it is
#: reported as unmeasured (null), never as 0.
EXPECTED = {
    "negotiate": _LIBRARY | {"core.router.waves"},
    "first-pass": _LIBRARY | {"detail"},
    "design-loop": _LIBRARY | {
        "core.router.waves", "api.wire", "core.timing", "incremental", "service",
        "service.store",
    },
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import calibration

    before = [calibration.calibrate() for _ in range(CALIBRATION_RUNS)]
    imports_s = statistics.median(_import_seconds() for _ in range(SETUP_REPEATS))
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    def finish_setup(seconds: float) -> float:
        """Set-up time (imports plus *seconds*) at nominal machine speed."""
        measured = imports_s + seconds
        speed = before + [calibration.calibrate() for _ in range(CALIBRATION_RUNS)]
        print(f"setup {measured:.6f} s as measured; calibration median "
              f"{statistics.median(speed) * 1e3:.3f} ms "
              f"(nominal {calibration.NOMINAL_S * 1e3:g} ms)")
        return measured * calibration.speed_factor(speed)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"machine: {os.cpu_count()} cores, Python {platform.python_version()}, "
          f"{platform.system()} {platform.machine()}")
    if args.workload == "design-loop":
        ledger, setup_s, layers = design_loop(args, workloads, tracing, finish_setup)
    else:
        build = (
            workloads.negotiate_requests if args.workload == "negotiate"
            else workloads.first_pass_requests
        )
        ledger, setup_s, layers = library(args, build, workloads, tracing, finish_setup)

    print(f"operations attempted {ledger.attempted}, failed {ledger.failed} "
          f"(failed_ratio {ledger.failed / max(ledger.attempted, 1):.4f})")
    for message in ledger.messages:
        print(f"  FAILED: {message}")
    if layers is None:
        metrics = end_to_end(ledger, setup_s)
    else:
        metrics = per_layer(args, layers, tracing)
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Running the workloads
# ----------------------------------------------------------------------
def _timed(make):
    began = time.perf_counter()
    value = make()
    return value, time.perf_counter() - began


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing what the benchmark imports."""
    began = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path[:0] = [{HERE!r}, {SRC!r}]; import workloads"],
        check=True,
    )
    return time.perf_counter() - began


def library(args, build, workloads, tracing, finish_setup):
    """negotiate / first-pass: returns (ledger, set-up seconds, layers or None)."""
    builds = [_timed(lambda: build(args.seed)) for _ in range(SETUP_REPEATS)]
    requests = builds[-1][0]
    setup_s = finish_setup(statistics.median(seconds for _value, seconds in builds))
    print(f"request set: {len(requests)} layouts")
    ledger = workloads.Ledger()
    fingerprints = [None] * len(requests)
    if not args.trace:
        workloads.run_library(requests, ledger, seconds=args.seconds, fingerprints=fingerprints)
        return ledger, setup_s, None
    tracer = tracing.Tracer()
    tracing.install_boundaries(tracer)
    try:
        traced = workloads.run_library(
            requests, ledger, seconds=None, fingerprints=fingerprints,
            on_request=lambda index: tracer.set_request(f"request-{index}"),
        )
    finally:
        tracer.uninstall()
    # The overhead is measured on the first requests only, routed again untraced.
    count = OVERHEAD_REQUESTS
    plain = workloads.run_library(
        requests[:count], ledger, seconds=None, fingerprints=fingerprints[:count]
    )
    return ledger, setup_s, (tracer, {}, plain, traced[:count])


def design_loop(args, workloads, tracing, finish_setup):
    """design-loop: returns (ledger, set-up seconds, layers or None)."""
    builds = [_timed(lambda: workloads.design_fixed_set(args.seed)) for _ in range(SETUP_REPEATS)]
    fixed_set = builds[-1][0]
    starts = []
    for attempt in range(SETUP_REPEATS):
        service, seconds = _timed(workloads.Service)
        starts.append(seconds)
        if attempt < SETUP_REPEATS - 1:
            service.close()
    setup_s = finish_setup(statistics.median(s for _v, s in builds) + statistics.median(starts))
    print(f"one closed-loop client; fixed set {workloads.DESIGN_ITERATIONS} iterations")
    ledger = workloads.Ledger()
    try:
        # Traced runs time only a few iterations untraced, for the overhead.
        workloads.run_design_loop(
            service.url, ledger, args.seed, fixed_set,
            seconds=None if args.trace else args.seconds,
            iterations=OVERHEAD_ITERATIONS if args.trace else workloads.DESIGN_ITERATIONS,
        )
        if not args.trace:
            workloads.probe_wire_identity(service.url, args.seed, ledger)
            _print_service(ledger.service)
            return ledger, setup_s, None
    finally:
        service.close()
    plain = list(ledger.latencies)
    # A fresh service for the traced pass, so the plain pass left no store hits.
    ledger.service = {}
    service = workloads.Service()
    try:
        tracer = tracing.Tracer()
        tracing.install_boundaries(tracer)
        try:
            workloads.run_design_loop(service.url, ledger, args.seed, fixed_set, seconds=None)
            snapshot = service.service.snapshot()
        finally:
            tracer.uninstall()
        workloads.probe_wire_identity(service.url, args.seed, ledger)
    finally:
        service.close()
    traced = ledger.latencies[len(plain):]
    _print_service(ledger.service)
    return ledger, setup_s, (tracer, workloads.service_figures(ledger, snapshot), plain, traced)


def _print_service(service: dict) -> None:
    print(f"service: {int(service.get('jobs', 0))} jobs, "
          f"{int(service.get('warm_reroutes', 0))}/{int(service.get('reroutes', 0))} "
          f"reroutes warm-started, "
          f"{int(service.get('service.client_retries', 0))} client retries after 429")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(ledger, setup_s: float) -> dict:
    latencies = ledger.latencies
    rate_seconds = ledger.request_seconds
    values = {
        "setup_s": setup_s,
        "route_p50_s": statistics.median(latencies),
        "route_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "nets_per_s": ledger.routed_nets / rate_seconds,
        "throughput_rps": len(latencies) / rate_seconds,
        "overflow": ledger.overflow,
        "wirelength": ledger.wirelength,
        "worst_delay": ledger.worst_delay,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = len(latencies) - int(0.9 * len(latencies))
    print(f"latency samples {len(latencies)} ({beyond} beyond p90); as measured p50 "
          f"{statistics.median(ledger.raw_latencies):.6f} s; times below at nominal speed")
    for name, unit in END_TO_END:
        print(f"  {name:<16} {values[name]:>14.6g} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(args, layers, tracing) -> dict:
    tracer, service, plain, traced = layers
    values, activity = tracing.layer_values(tracer, service)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    print(f"route_p50_s untraced {statistics.median(plain):.6f} s over {len(plain)} requests, "
          f"traced {statistics.median(traced):.6f} s over {len(traced)}")
    print(f"{'boundary':<24} {'sites':>5} {'calls':>8} {'incl s':>10} {'self s':>10}")
    for group, (calls, inclusive, own) in sorted(tracer.totals().items()):
        print(f"{group:<24} {tracer.sites[group]:>5} {calls:>8} {inclusive:>10.4f} {own:>10.4f}")
    expected = EXPECTED[args.workload]
    metrics = {}
    for name, unit, source in tracing.LAYER_METRICS:
        value = values[name]
        if source in expected and not activity.get(source):
            value = None
        metrics[name] = {"value": value, "unit": unit}
        shown = "unmeasured" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown:>14} {unit}")
    os.makedirs(TRACES, exist_ok=True)
    path = os.path.join(TRACES, f"{args.workload}-s{args.seed}.json")
    tracer.dump(path)
    print(f"{len(tracer.spans)} spans written to {os.path.relpath(path)}")
    return metrics


def run_all(args) -> int:
    """Run every workload in its own process and print one summary line."""
    status = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        print(child.stdout, end="")
        status = max(status, child.returncode)
        lines = child.stdout.strip().splitlines()
        if child.returncode not in (0, 1) or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
