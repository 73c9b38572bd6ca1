"""Differential conformance: every scenario × strategy × toggle combo.

The runner routes each corpus scenario through every registered
strategy under a config-toggle matrix (``prune_clean_nets`` on/off,
each also at a reference point that routes under
:func:`~repro.core.pathfinder.reference_search`) and checks these
promises:

1. **Oracle validity** — every routed result must come back clean from
   the independent checker (:func:`repro.analysis.verify.verify_global_route`)
   with no failed nets.
2. **Byte identity where guaranteed** — the search problem the
   pathfinder picks and the ray index are documented as
   result-preserving, so every config that differs only in those (a
   reference point runs the scalar oracle with scanned rays) must
   produce the identical route fingerprint.
   ``prune_clean_nets`` changes which nets the negotiation loop rips
   up, so for the ``negotiated`` strategy identity is asserted per
   pruning flag; for the others the flag is inert and all configs must
   agree.
3. **Cross-strategy tolerance** — the congestion strategies may trade
   wirelength for overflow, but only within recorded bands: final
   wirelength must stay within :data:`WIRELENGTH_BAND` of the
   single-pass baseline, and a congestion strategy must never end with
   more overflow than it started with.
4. **Timing separation** — on scenarios with designated critical nets
   (the ``long-critical-nets`` family names them ``crit*``), the
   ``timing-driven`` strategy must finish with a *strictly* lower
   worst critical-net delay than plain ``negotiated`` routing of the
   same scene: the criticality machinery has to buy something real, on
   every corpus entry of the family, forever.

With ``incremental=True`` a fourth axis replays scripted layout deltas
(:mod:`repro.incremental.scripts`) through
:meth:`~repro.api.pipeline.RoutingPipeline.reroute` at every matrix
point, for the strategies that implement warm starts, and checks the
incremental contract differentially against from-scratch routes of the
mutated layouts: ``incremental-identity`` (empty deltas reproduce the
base fingerprint; congestion-neutral deltas reproduce the scratch
fingerprint for order-independent strategies), ``incremental-validity``
(every reroute verifies clean), and ``incremental-band`` (reroute
wirelength within :data:`WIRELENGTH_BAND` of scratch, overflow never
worse than the warm start's opening measurement).

The report (:class:`ConformanceReport`) records every case and check
and serializes to JSON — CI uploads it as the ``conformance-smoke``
artifact, and ``python -m repro conformance`` renders it for humans.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.errors import ReproError
from repro.api.pipeline import RoutingPipeline
from repro.api.request import RouteRequest
from repro.api.rerouting import RerouteRequest
from repro.api.result import RouteResult
from repro.core.pathfinder import reference_search
from repro.core.route import GlobalRoute
from repro.core.router import RouterConfig
from repro.incremental.delta import LayoutDelta
from repro.core.timing import analyze_route_timing
from repro.incremental.scripts import disjoint_delta, empty_delta, geometry_delta
from repro.scenarios.families import Scenario

#: Strategies the conformance matrix covers by default, with bounded
#: parameters so the corpus stays fast enough for tier-1.
DEFAULT_STRATEGIES: dict[str, dict[str, Any]] = {
    "single": {},
    "two-pass": {"passes": 2},
    "negotiated": {"max_iterations": 8},
    "timing-driven": {"max_iterations": 8},
}

#: Strategies exercised by the incremental axis: the ones whose
#: pipeline strategies implement ``run_incremental`` (two-pass is
#: deliberately from-scratch-only; see ``repro.api.strategies``).
INCREMENTAL_STRATEGIES: tuple[str, ...] = ("single", "negotiated")

#: Final wirelength of any strategy, relative to the single-pass
#: baseline on the same scenario.  Congestion strategies buy overflow
#: relief with detours, so the band is asymmetric: they may not beat
#: the unpenalized shortest-path pass by much (floor guards against a
#: strategy silently dropping work), but may pay a bounded premium.
WIRELENGTH_BAND: tuple[float, float] = (0.90, 1.60)


@dataclass(frozen=True)
class MatrixPoint:
    """One config-toggle combination of the conformance matrix.

    A ``reference`` point routes its whole cell — the run and any
    incremental replays — under
    :func:`~repro.core.pathfinder.reference_search`: the scalar oracle,
    its rays traced in Python by ``ObstacleSet.rays``.
    """

    name: str
    prune_clean_nets: bool = True
    reference: bool = False

    def to_config(self) -> RouterConfig:
        """The :class:`RouterConfig` this point routes under."""
        return RouterConfig(prune_clean_nets=self.prune_clean_nets)

    def search(self) -> AbstractContextManager:
        """The search override this point's cell routes under."""
        return reference_search() if self.reference else nullcontext()


#: Every pruning × reference combination.  Reference points share
#: identity groups with the others (``_identity_key`` ignores them):
#: the compiled search and the ray index promise byte-identical routes,
#: and this matrix is where that promise is differentially pinned
#: across the whole corpus.
FULL_MATRIX: tuple[MatrixPoint, ...] = tuple(
    MatrixPoint(
        name=f"{'reference|' if reference else ''}prune={'on' if prune else 'off'}",
        prune_clean_nets=prune,
        reference=reference,
    )
    for reference in (False, True)
    for prune in (True, False)
)

#: Baseline plus one flip per toggle — every identity promise is still
#: exercised against the baseline, at a fraction of the matrix cost.
QUICK_MATRIX: tuple[MatrixPoint, ...] = (
    MatrixPoint(name="baseline"),
    MatrixPoint(name="prune=off", prune_clean_nets=False),
    MatrixPoint(name="reference", reference=True),
)


def route_fingerprint(route: GlobalRoute) -> str:
    """A deterministic digest of a route's exact geometry.

    Two routes fingerprint equal iff they hold the same trees with the
    same per-path point sequences and the same failed-net list.
    """
    doc = {
        "trees": {
            name: [[(p.x, p.y) for p in path.points] for path in tree.paths]
            for name, tree in sorted(route.trees.items())
        },
        "failed": sorted(route.failed_nets),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class CaseRecord:
    """One routed (scenario, strategy, matrix-point) cell."""

    scenario: str
    strategy: str
    config: str
    fingerprint: str
    wirelength: int
    routed_nets: int
    failed_nets: int
    violations: int
    overflow_before: Optional[int]
    overflow_after: Optional[int]
    elapsed_seconds: float
    #: max routed-tree delay over the scenario's designated ``crit*``
    #: nets; None when the scenario has none (or the cell is a reroute
    #: of a mutated layout, where the stored scene no longer applies).
    worst_critical_delay: Optional[float] = None

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return dict(self.__dict__)


@dataclass
class CheckRecord:
    """One conformance assertion's outcome (identity or tolerance)."""

    kind: str  # "validity" | "identity" | "warning-contract" | "wirelength-band" | "overflow" | "timing-delay"
    scenario: str
    strategy: str
    ok: bool
    detail: str

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return dict(self.__dict__)


@dataclass
class ConformanceReport:
    """Everything one conformance run measured and asserted."""

    cases: list[CaseRecord] = field(default_factory=list)
    checks: list[CheckRecord] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every check passed."""
        return all(check.ok for check in self.checks)

    def failures(self) -> list[CheckRecord]:
        """The checks that failed."""
        return [check for check in self.checks if not check.ok]

    def summary(self) -> str:
        """One human line: totals plus the first failure, if any."""
        failed = self.failures()
        head = (
            f"{len(self.cases)} routed cases, {len(self.checks)} checks, "
            f"{len(failed)} failed, {self.elapsed_seconds:.1f}s"
        )
        if failed:
            first = failed[0]
            head += f"; first failure [{first.kind}] {first.scenario}/{first.strategy}: {first.detail}"
        return head

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "ok": self.ok,
            "elapsed_seconds": self.elapsed_seconds,
            "wirelength_band": list(WIRELENGTH_BAND),
            "cases": [case.as_dict() for case in self.cases],
            "checks": [check.as_dict() for check in self.checks],
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)


def _identity_key(strategy: str, point: MatrixPoint) -> tuple:
    """Configs mapping to the same key must route byte-identically.

    Only the negotiation-style loops read ``prune_clean_nets``, so it
    splits identity groups for ``negotiated`` and ``timing-driven``
    alone; the reference override is result-preserving everywhere —
    reference points deliberately do *not* split groups,
    which is exactly what makes this matrix the oracle parity gate.
    """
    if strategy in ("negotiated", "timing-driven"):
        return (strategy, point.prune_clean_nets)
    return (strategy,)


def run_conformance(
    scenarios: Iterable[Scenario],
    *,
    strategies: Mapping[str, Mapping[str, Any]] | Sequence[str] | None = None,
    matrix: Sequence[MatrixPoint] = FULL_MATRIX,
    incremental: bool = False,
) -> ConformanceReport:
    """Route every scenario through every strategy × matrix point.

    ``strategies`` maps strategy name to its params; a bare sequence of
    names uses :data:`DEFAULT_STRATEGIES` params.  Results land in a
    :class:`ConformanceReport`; nothing raises on a failed check (the
    report carries the verdicts), though a crash inside the pipeline
    itself is recorded as a failed ``validity`` check rather than
    propagated, so one broken combination cannot hide the rest of the
    matrix.

    With ``incremental=True``, every cell of a strategy in
    :data:`INCREMENTAL_STRATEGIES` additionally replays the scripted
    deltas through :meth:`RoutingPipeline.reroute` against that cell's
    own result and appends the ``incremental-*`` checks.
    """
    if strategies is None:
        strategy_params = dict(DEFAULT_STRATEGIES)
    elif isinstance(strategies, Mapping):
        strategy_params = {name: dict(params) for name, params in strategies.items()}
    else:
        unknown = [name for name in strategies if name not in DEFAULT_STRATEGIES]
        if unknown:
            raise ReproError(
                f"no default params for strategies {unknown}; pass a mapping instead"
            )
        strategy_params = {name: dict(DEFAULT_STRATEGIES[name]) for name in strategies}

    report = ConformanceReport()
    started = time.perf_counter()
    pipeline = RoutingPipeline()
    for scenario in scenarios:
        baselines: dict[str, CaseRecord] = {}  # strategy -> first-point record
        for strategy, params in strategy_params.items():
            groups: dict[tuple, dict[str, str]] = {}  # identity key -> config -> digest
            for point in matrix:
                with point.search():
                    routed = _route_case(pipeline, scenario, strategy, params, point)
                    if isinstance(routed, CheckRecord):
                        report.checks.append(routed)
                        continue
                    case, result = routed
                    report.cases.append(case)
                    report.checks.append(_validity_check(case))
                    report.checks.append(_warning_contract_check(case, result))
                    groups.setdefault(_identity_key(strategy, point), {})[point.name] = (
                        case.fingerprint
                    )
                    baselines.setdefault(strategy, case)
                    if incremental and strategy in INCREMENTAL_STRATEGIES:
                        _incremental_checks(
                            pipeline, report, scenario, strategy, params, point,
                            base_case=case, base_result=result,
                        )
            for key, digests in groups.items():
                report.checks.append(_identity_check(scenario.name, strategy, key, digests))
        _cross_strategy_checks(report, scenario.name, baselines)
    report.elapsed_seconds = time.perf_counter() - started
    return report


def _route_case(
    pipeline: RoutingPipeline,
    scenario: Scenario,
    strategy: str,
    params: Mapping[str, Any],
    point: MatrixPoint,
) -> tuple[CaseRecord, RouteResult] | CheckRecord:
    """Route one matrix cell; a pipeline crash becomes a failed check.

    Request construction sits inside the try: the typed params schemas
    reject bad ``strategy_params`` at :class:`RouteRequest` creation
    now, and that rejection must land in the report like any other
    broken cell.
    """
    started = time.perf_counter()
    try:
        request = _cell_request(scenario, strategy, params, point)
        result = pipeline.run(request)
    except Exception as exc:  # noqa: BLE001 - any crash must stay in its cell
        # A crash becomes a failing validity check so the rest of the
        # matrix still runs and the report names the broken cell.  This
        # deliberately catches beyond ReproError: a router bug raising
        # IndexError under one toggle is exactly the regression class
        # this differential harness exists to surface.
        return CheckRecord(
            kind="validity",
            scenario=scenario.name,
            strategy=strategy,
            ok=False,
            detail=f"config {point.name}: pipeline raised {type(exc).__name__}: {exc}",
        )
    elapsed = time.perf_counter() - started
    case = _case_record(scenario.name, strategy, point.name, result, elapsed)
    case.worst_critical_delay = _worst_critical_delay(result, scenario)
    return case, result


def _worst_critical_delay(result: RouteResult, scenario: Scenario) -> Optional[float]:
    """Max routed-tree delay over the scenario's ``crit*`` nets, if any.

    Computed with the same tree-walk delay model every strategy is
    judged by (:func:`repro.core.timing.analyze_route_timing`), so the
    timing-blind strategies are measured on exactly the metric the
    timing-driven one optimizes.
    """
    names = [net.name for net in scenario.layout.nets if net.name.startswith("crit")]
    if not names:
        return None
    analysis = analyze_route_timing(result.route, scenario.layout)
    delays = [analysis.nets[name].delay for name in names if name in analysis.nets]
    return max(delays) if delays else None


def _cell_request(
    scenario: Scenario,
    strategy: str,
    params: Mapping[str, Any],
    point: MatrixPoint,
) -> RouteRequest:
    """The canonical request one matrix cell routes."""
    return RouteRequest(
        layout=scenario.layout,
        config=point.to_config(),
        strategy=strategy,
        strategy_params=dict(params),
        on_unroutable="skip",
        verify=True,
    )


def _case_record(
    scenario: str, strategy: str, config: str, result: RouteResult, elapsed: float
) -> CaseRecord:
    """Fold one :class:`RouteResult` into the report's case shape."""
    return CaseRecord(
        scenario=scenario,
        strategy=strategy,
        config=config,
        fingerprint=route_fingerprint(result.route),
        wirelength=result.total_length,
        routed_nets=result.route.routed_count,
        failed_nets=len(result.route.failed_nets),
        violations=sum(len(v) for v in result.violations.values()),
        overflow_before=(
            None
            if result.congestion_before is None
            else result.congestion_before.total_overflow
        ),
        overflow_after=(
            None
            if result.congestion_after is None
            else result.congestion_after.total_overflow
        ),
        elapsed_seconds=elapsed,
    )


def _validity_check(case: CaseRecord) -> CheckRecord:
    """Oracle validity: clean verification, nothing unrouted."""
    problems = []
    if case.violations:
        problems.append(f"{case.violations} verification violations")
    if case.failed_nets:
        problems.append(f"{case.failed_nets} unrouted nets")
    return CheckRecord(
        kind="validity",
        scenario=case.scenario,
        strategy=case.strategy,
        ok=not problems,
        detail=(
            f"config {case.config}: " + ("; ".join(problems) if problems else "clean")
        ),
    )


def _warning_contract_check(case: CaseRecord, result: RouteResult) -> CheckRecord:
    """Non-convergence must surface as a structured warning — and only then.

    A strategy that stops with ``converged=False`` must attach exactly
    one ``non-convergence`` warning (with its iteration count and
    remaining overflow); a converged or convergence-free run must attach
    none.  This pins the RouteResult warning contract across the whole
    corpus, not just the unit tests.
    """
    flagged = [w for w in result.warnings if w.get("kind") == "non-convergence"]
    problems = []
    if result.converged is False:
        if len(flagged) != 1:
            problems.append(
                f"converged=False but {len(flagged)} non-convergence warnings"
            )
        elif "message" not in flagged[0] or "total_overflow" not in flagged[0]:
            problems.append(f"warning missing fields: {sorted(flagged[0])}")
    elif flagged:
        problems.append(
            f"converged={result.converged} yet {len(flagged)} non-convergence warnings"
        )
    return CheckRecord(
        kind="warning-contract",
        scenario=case.scenario,
        strategy=case.strategy,
        ok=not problems,
        detail=(
            f"config {case.config}: "
            + ("; ".join(problems) if problems else
               f"converged={result.converged}, warnings={len(result.warnings)}")
        ),
    )


def _identity_check(
    scenario: str, strategy: str, key: tuple, digests: Mapping[str, str]
) -> CheckRecord:
    """Byte identity across every config sharing an identity key."""
    unique = sorted(set(digests.values()))
    ok = len(unique) <= 1
    if ok:
        detail = f"{len(digests)} configs agree on {unique[0] if unique else '-'}"
    else:
        by_digest: dict[str, list[str]] = {}
        for config, digest in sorted(digests.items()):
            by_digest.setdefault(digest, []).append(config)
        detail = "configs diverge: " + "; ".join(
            f"{digest} <- {', '.join(configs)}" for digest, configs in by_digest.items()
        )
    if len(key) > 1:
        detail = f"prune={'on' if key[-1] else 'off'}: {detail}"
    return CheckRecord(
        kind="identity", scenario=scenario, strategy=strategy, ok=ok, detail=detail
    )


def _cross_strategy_checks(
    report: ConformanceReport, scenario: str, baselines: Mapping[str, CaseRecord]
) -> None:
    """Wirelength band vs single-pass; overflow never worsens; timing wins.

    The ``timing-delay`` check fires only on scenarios carrying
    designated critical nets (``crit*``): there, timing-driven must
    beat plain negotiation on worst critical-net delay, strictly.
    """
    single = baselines.get("single")
    for strategy, case in baselines.items():
        if strategy != "single" and single is not None and single.wirelength > 0:
            ratio = case.wirelength / single.wirelength
            lo, hi = WIRELENGTH_BAND
            report.checks.append(
                CheckRecord(
                    kind="wirelength-band",
                    scenario=scenario,
                    strategy=strategy,
                    ok=lo <= ratio <= hi,
                    detail=(
                        f"wirelength {case.wirelength} is {ratio:.3f}x single "
                        f"({single.wirelength}); band [{lo}, {hi}]"
                    ),
                )
            )
        if (
            case.overflow_before is not None
            and case.overflow_after is not None
            and strategy != "single"
        ):
            report.checks.append(
                CheckRecord(
                    kind="overflow",
                    scenario=scenario,
                    strategy=strategy,
                    ok=case.overflow_after <= case.overflow_before,
                    detail=(
                        f"total overflow {case.overflow_before} -> {case.overflow_after}"
                    ),
                )
            )
    timing = baselines.get("timing-driven")
    negotiated = baselines.get("negotiated")
    if (
        timing is not None
        and negotiated is not None
        and timing.worst_critical_delay is not None
        and negotiated.worst_critical_delay is not None
    ):
        report.checks.append(
            CheckRecord(
                kind="timing-delay",
                scenario=scenario,
                strategy="timing-driven",
                ok=timing.worst_critical_delay < negotiated.worst_critical_delay,
                detail=(
                    f"worst critical-net delay {timing.worst_critical_delay:g} vs "
                    f"negotiated {negotiated.worst_critical_delay:g} "
                    f"(must be strictly lower)"
                ),
            )
        )


# ----------------------------------------------------------------------
# Incremental axis
# ----------------------------------------------------------------------
def _scripted_deltas(scenario: Scenario) -> dict[str, LayoutDelta]:
    """The per-scenario delta script the incremental axis replays.

    All three are deterministic functions of the scenario layout, so
    every matrix point reroutes the exact same mutations:

    ``empty``
        No change at all — the reroute must return the base result
        untouched, byte for byte, for every warm-startable strategy.
    ``disjoint``
        Net-list-only churn (remove one net, clone another) that leaves
        cell geometry alone, so an order-independent strategy must
        reproduce the from-scratch route of the mutated layout exactly.
    ``geometry``
        A unit cell move (falling back to ``disjoint`` when no legal
        move exists) that actually rips routes crossing the changed
        rectangles — the band checks carry the contract here.
    """
    return {
        "empty": empty_delta(),
        "disjoint": disjoint_delta(scenario.layout),
        "geometry": geometry_delta(scenario.layout),
    }


def _incremental_checks(
    pipeline: RoutingPipeline,
    report: ConformanceReport,
    scenario: Scenario,
    strategy: str,
    params: Mapping[str, Any],
    point: MatrixPoint,
    *,
    base_case: CaseRecord,
    base_result: RouteResult,
) -> None:
    """Replay the scripted deltas through ``reroute`` for one cell."""
    base_request = _cell_request(scenario, strategy, params, point)
    for delta_name, delta in _scripted_deltas(scenario).items():
        label = f"{point.name}+reroute[{delta_name}]"
        reroute_request = RerouteRequest(base=base_request, delta=delta)
        started = time.perf_counter()
        try:
            rerouted = pipeline.reroute(reroute_request, prev_result=base_result)
        except Exception as exc:  # noqa: BLE001 - keep the crash in its cell
            report.checks.append(
                CheckRecord(
                    kind="incremental-validity",
                    scenario=scenario.name,
                    strategy=strategy,
                    ok=False,
                    detail=(
                        f"config {label}: reroute raised "
                        f"{type(exc).__name__}: {exc}"
                    ),
                )
            )
            continue
        elapsed = time.perf_counter() - started
        case = _case_record(scenario.name, strategy, label, rerouted, elapsed)
        report.cases.append(case)
        report.checks.append(_incremental_validity(case, rerouted))

        if delta.is_empty:
            # An empty delta keeps every net: the engines return the
            # previous routing untouched, whatever the strategy.
            report.checks.append(
                _incremental_identity(
                    case, base_case.fingerprint,
                    f"config {label}: vs base {base_case.config}",
                )
            )
            continue

        scratch_label = f"{point.name}+scratch[{delta_name}]"
        started = time.perf_counter()
        try:
            scratch = pipeline.run(reroute_request.mutated_request())
        except Exception as exc:  # noqa: BLE001 - keep the crash in its cell
            report.checks.append(
                CheckRecord(
                    kind="incremental-validity",
                    scenario=scenario.name,
                    strategy=strategy,
                    ok=False,
                    detail=(
                        f"config {scratch_label}: pipeline raised "
                        f"{type(exc).__name__}: {exc}"
                    ),
                )
            )
            continue
        scratch_case = _case_record(
            scenario.name, strategy, scratch_label, scratch,
            time.perf_counter() - started,
        )
        report.cases.append(scratch_case)

        if delta_name == "disjoint" and strategy == "single":
            # Cell geometry is untouched, and ``single`` routes every
            # net independently of the others — so routing only the
            # dirty nets must land exactly where from scratch does.
            report.checks.append(
                _incremental_identity(
                    case, scratch_case.fingerprint,
                    f"config {label}: vs scratch {scratch_label}",
                )
            )
        report.checks.append(_incremental_band(case, scratch_case))


def _incremental_validity(case: CaseRecord, result: RouteResult) -> CheckRecord:
    """A reroute is always a valid routing: clean verify, nothing lost."""
    problems = []
    if case.violations:
        problems.append(f"{case.violations} verification violations")
    if case.failed_nets:
        problems.append(f"{case.failed_nets} unrouted nets")
    kept = result.timings.get("kept_nets")
    ripped = result.timings.get("ripped_nets")
    new = result.timings.get("new_nets")
    classified = (
        f" (kept={kept:.0f} ripped={ripped:.0f} new={new:.0f})"
        if None not in (kept, ripped, new)
        else ""
    )
    return CheckRecord(
        kind="incremental-validity",
        scenario=case.scenario,
        strategy=case.strategy,
        ok=not problems,
        detail=(
            f"config {case.config}: "
            + ("; ".join(problems) if problems else "clean")
            + classified
        ),
    )


def _incremental_identity(
    case: CaseRecord, expected: str, context: str
) -> CheckRecord:
    """Byte identity between a reroute and its oracle route."""
    ok = case.fingerprint == expected
    return CheckRecord(
        kind="incremental-identity",
        scenario=case.scenario,
        strategy=case.strategy,
        ok=ok,
        detail=(
            f"{context}: {case.fingerprint}"
            + ("" if ok else f" != {expected}")
        ),
    )


def _incremental_band(case: CaseRecord, scratch: CaseRecord) -> CheckRecord:
    """Reroute quality stays within the from-scratch bands."""
    problems = []
    lo, hi = WIRELENGTH_BAND
    if scratch.wirelength > 0:
        ratio = case.wirelength / scratch.wirelength
        if not lo <= ratio <= hi:
            problems.append(
                f"wirelength {case.wirelength} is {ratio:.3f}x scratch "
                f"({scratch.wirelength}); band [{lo}, {hi}]"
            )
    if (
        case.overflow_before is not None
        and case.overflow_after is not None
        and case.overflow_after > case.overflow_before
    ):
        problems.append(
            f"overflow worsened {case.overflow_before} -> {case.overflow_after}"
        )
    return CheckRecord(
        kind="incremental-band",
        scenario=case.scenario,
        strategy=case.strategy,
        ok=not problems,
        detail=(
            f"config {case.config}: "
            + ("; ".join(problems) if problems else
               f"wirelength {case.wirelength} vs scratch {scratch.wirelength}, "
               f"overflow {case.overflow_before} -> {case.overflow_after}")
        ),
    )
