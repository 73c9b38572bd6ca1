"""X7 — timing-driven routing: critical-net delay, measured and gated.

The timing-driven strategy's pitch is that criticality-blended costs
and most-critical-first wave ordering protect the long nets that
dominate the delay profile.  This bench pins that claim on tracked
``long-critical-nets`` workloads and emits ``BENCH_timing.json`` so
the trajectory is auditable PR over PR:

* **delay** — worst critical-net (``crit*``) delay under
  ``timing-driven`` vs plain ``negotiated`` on the same scene, both
  judged by the same tree-walk delay model
  (:func:`repro.core.timing.analyze_route_timing`).  Workloads with
  ``gated: True`` must come out *strictly* lower — the same strict
  contract the conformance harness's ``timing-delay`` check enforces
  on the corpus.
* **validity / wirelength** — every routed result must verify clean
  with no failed nets, and the timing-driven wirelength must stay
  within the conformance :data:`~repro.scenarios.conformance.WIRELENGTH_BAND`
  of the single-pass baseline (delay protection must not buy its wins
  with unbounded detours elsewhere).

:func:`gate` holds all three on every run.  Run the suite through the
one bench driver::

    PYTHONPATH=src python benchmarks/run_suite.py --suite timing --quick
"""

from __future__ import annotations

from repro.api.pipeline import RoutingPipeline
from repro.api.request import RouteRequest
from repro.core.router import RouterConfig
from repro.core.timing import analyze_route_timing
from repro.scenarios import load_corpus
from repro.scenarios.conformance import WIRELENGTH_BAND
from repro.scenarios.families import FAMILIES

from benchmarks.run_suite import best_wall

#: Best-of-N wall measurements; the workloads are sub-second.
REPEATS = 3

#: Gated against the baseline: walls at the driver's fixed ratio,
#: deterministic counters for exact equality.
WALL_KEYS = ("wall_seconds_timing",)
COUNTER_KEYS = ("worst_critical_delay_negotiated", "worst_critical_delay_timing")

#: Workload definitions.  Corpus workloads route the checked-in
#: ``long-critical-nets`` scenes (the same ones the conformance
#: timing-delay gate covers); the generated workload scales the family
#: up beyond corpus size.  ``gated`` marks the workloads the strict
#: delay win applies to.
WORKLOADS: dict[str, dict] = {
    "corpus_long_critical_s79": {
        "kind": "corpus",
        "scenario": "long-critical-nets-s79",
        "max_iterations": 8,
        "gated": True,
    },
    "corpus_long_critical_s107": {
        "kind": "corpus",
        "scenario": "long-critical-nets-s107",
        "max_iterations": 8,
        "gated": True,
    },
    "generated_3x3_18f_5c": {
        "kind": "generated",
        "seed": 131,
        "overrides": {
            "rows": 3, "cols": 3, "cell_side": 14, "gap": 3,
            "n_filler": 18, "n_critical": 5,
        },
        "max_iterations": 10,
        "gated": True,
    },
}

QUICK = ("corpus_long_critical_s79", "corpus_long_critical_s107")


def _layout(spec: dict):
    if spec["kind"] == "corpus":
        for scenario in load_corpus():
            if scenario.name == spec["scenario"]:
                return scenario.layout
        raise RuntimeError(f"corpus scenario {spec['scenario']!r} not found")
    return FAMILIES["long-critical-nets"].build(spec["seed"], **spec["overrides"])


def _worst_critical_delay(result, layout) -> float:
    analysis = analyze_route_timing(result.route, layout)
    return max(
        t.delay for name, t in analysis.nets.items() if name.startswith("crit")
    )


def run_workload(spec: dict) -> dict:
    """Route one workload under both strategies; measure the delay gap."""
    layout = _layout(spec)
    pipeline = RoutingPipeline()

    def _request(strategy: str, params: dict) -> RouteRequest:
        return RouteRequest(
            layout=layout,
            config=RouterConfig(),
            strategy=strategy,
            strategy_params=params,
            on_unroutable="skip",
            verify=True,
        )

    single = pipeline.run(_request("single", {}))
    params = {"max_iterations": spec["max_iterations"]}
    wall_negotiated, negotiated = best_wall(
        lambda: pipeline.run(_request("negotiated", dict(params))), REPEATS
    )
    wall_timing, timing = best_wall(
        lambda: pipeline.run(_request("timing-driven", dict(params))), REPEATS
    )

    delay_negotiated = _worst_critical_delay(negotiated, layout)
    delay_timing = _worst_critical_delay(timing, layout)
    problems = []
    for name, result in (("negotiated", negotiated), ("timing-driven", timing)):
        if result.violations:
            problems.append(f"{name}: verification violations")
        if result.route.failed_nets:
            problems.append(f"{name}: {len(result.route.failed_nets)} failed nets")
    wirelength_ratio = (
        timing.total_length / single.total_length if single.total_length else 1.0
    )
    return {
        "nets": len(layout.nets),
        "critical_nets": sum(
            1 for net in layout.nets if net.name.startswith("crit")
        ),
        "gated": spec["gated"],
        "worst_critical_delay_negotiated": delay_negotiated,
        "worst_critical_delay_timing": delay_timing,
        "delay_improvement": round(
            (delay_negotiated - delay_timing) / delay_negotiated, 4
        ) if delay_negotiated else 0.0,
        "wirelength_ratio_vs_single": round(wirelength_ratio, 4),
        "overflow_after_timing": (
            None if timing.congestion_after is None
            else timing.congestion_after.total_overflow
        ),
        "wall_seconds_negotiated": round(wall_negotiated, 4),
        "wall_seconds_timing": round(wall_timing, 4),
        "validity_problems": problems,
    }


def gate(results: dict[str, dict]) -> list[str]:
    """Machine-independent gates: strict delay win, validity, wirelength."""
    failures = []
    lo, hi = WIRELENGTH_BAND
    for name, entry in results.items():
        if entry["validity_problems"]:
            failures.append(f"{name}: " + "; ".join(entry["validity_problems"]))
        if entry["gated"] and not (
            entry["worst_critical_delay_timing"]
            < entry["worst_critical_delay_negotiated"]
        ):
            failures.append(
                f"{name}: timing-driven worst critical delay "
                f"{entry['worst_critical_delay_timing']:g} is not strictly below "
                f"negotiated {entry['worst_critical_delay_negotiated']:g}"
            )
        if not lo <= entry["wirelength_ratio_vs_single"] <= hi:
            failures.append(
                f"{name}: wirelength ratio {entry['wirelength_ratio_vs_single']} "
                f"outside band [{lo}, {hi}]"
            )
    return failures

