"""Rip-up-and-reroute: the one wave loop behind every congestion strategy.

The paper's Conclusions sketch exactly one feedback round: "A first-pass
route of all nets would reveal congested areas. ... A second route of
the affected nets could penalize those paths which chose the congested
area."  The ``two-pass`` strategy reproduces that sketch; the
``negotiated`` strategy grows it into the scheme the field converged on
a few years later (McMurchie & Ebeling's PathFinder, used by both
cgra_pnr reference routers): iterate rip-up-and-reroute under a cost
that combines *present* passage utilization with a monotonically
*accumulating history* of overflow, until every passage fits or an
iteration budget runs out.

Why iterate, and why history?  One penalized repass can only push the
affected nets somewhere else — and with fixed penalties they often
push each other back, oscillating between two over-capacity
configurations.  The history term breaks the tie: each iteration a
passage spends over capacity makes it permanently more expensive, so
the set of nets willing to pay for it shrinks until the passage fits.
Dense, over-subscribed layouts that the two-pass mode leaves illegal
are legalized this way (see ``benchmarks/bench_x3_negotiation.py``).

One loop, four strategies.  :func:`negotiate` owns everything the
strategies share: the first pass (or a warm start in its place),
per-wave :class:`IterationStats`, the stop rule (no overflow left, or
the wave budget spent), the prune-aware choice of affected nets, the
passes themselves (:meth:`GlobalRouter.route_into` for a warm start's
wave 0, :meth:`GlobalRouter.reroute_pass` for every later wave), and
best-route tracking.  A *policy* — :class:`NegotiatedRouter` or a
subclass — supplies the rest: each wave's cost model, the net order and
any per-net model, the key that picks the best route, and an optional
analysis after each pass.  ``negotiated`` is the default policy,
:class:`~repro.core.timing.TimingDrivenRouter` overrides three hooks,
:func:`two_pass` is a private policy, and the incremental re-router
(``NegotiatedStrategy.run_incremental``) passes a warm-start *seed*.
Every run returns one :class:`StrategyOutcome`, the type the pipeline
reads, so the loop's answer needs no adapter on its way out.

Every pass routes its nets serially, in the order the policy gives.
Within one wave the cost model is frozen (or fixed per net before the
wave starts), so the paper's E7 order-invariance applies to every pass:
the order changes no route, only which nets a wave picks does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Optional, Union

from repro.errors import RoutingError
from repro.core.congestion import (
    CongestionHistory,
    CongestionLedger,
    CongestionMap,
    check_max_gap,
    find_passages,
)
from repro.core.costs import CongestionPenaltyCost, CostModel, NegotiatedCongestionCost
from repro.core.route import GlobalRoute
from repro.core.router import GlobalRouter, RouterConfig, check_on_unroutable
from repro.layout.layout import Layout
from repro.search.stats import SearchStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.timing import TimingAnalysis
    from repro.incremental.engine import WarmStart


@dataclass(frozen=True)
class NegotiationConfig:
    """Knobs of the negotiation loop.

    Attributes
    ----------
    max_iterations:
        Rip-up-and-reroute rounds after the first pass (the budget;
        convergence usually needs far fewer).
    present_weight:
        Scale of the present-utilization penalty term.
    history_weight:
        Scale of the accumulated-history multiplier.
    history_gain:
        How much history one unit of relative overflow deposits per
        iteration (:class:`~repro.core.congestion.CongestionHistory`).
    max_gap:
        Ignore passages wider than this when measuring congestion
        (``None`` considers all of them).
    """

    max_iterations: int = 20
    present_weight: float = 1.0
    history_weight: float = 2.0
    history_gain: float = 2.0
    max_gap: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise RoutingError(
                f"negotiation needs max_iterations >= 1, got {self.max_iterations}"
            )
        for knob in ("present_weight", "history_weight", "history_gain"):
            value = getattr(self, knob)
            if value < 0:
                raise RoutingError(f"negotiation {knob} must be >= 0, got {value}")
        check_max_gap(self.max_gap)


@dataclass(frozen=True)
class IterationStats:
    """Convergence telemetry for one negotiation iteration.

    Iteration 0 describes the first (unpenalized) pass; iterations
    1..N describe each reroute wave, measured after its nets moved.
    """

    iteration: int
    overflowed_passages: int
    total_overflow: int
    max_overflow: int
    wirelength: int
    wirelength_delta: int
    rerouted: int
    elapsed_seconds: float

    @classmethod
    def measure(
        cls,
        iteration: int,
        route: GlobalRoute,
        congestion: CongestionMap,
        *,
        started: float,
        rerouted: int = 0,
        previous_length: Optional[int] = None,
    ) -> "IterationStats":
        """Stats of the pass that produced *route*, begun at *started*.

        ``wirelength_delta`` is measured against *previous_length*, the
        previous pass's ``wirelength`` (0 for a first pass or warm
        start).
        """
        length = route.total_length
        return cls(
            iteration=iteration,
            overflowed_passages=congestion.overflow_count,
            total_overflow=congestion.total_overflow,
            max_overflow=congestion.max_overflow,
            wirelength=length,
            wirelength_delta=0 if previous_length is None else length - previous_length,
            rerouted=rerouted,
            elapsed_seconds=time.perf_counter() - started,
        )

    def as_dict(self) -> dict:
        """JSON-ready representation (used by :mod:`repro.api.result`)."""
        return {
            "iteration": self.iteration,
            "overflowed_passages": self.overflowed_passages,
            "total_overflow": self.total_overflow,
            "max_overflow": self.max_overflow,
            "wirelength": self.wirelength,
            "wirelength_delta": self.wirelength_delta,
            "rerouted": self.rerouted,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IterationStats":
        """Inverse of :meth:`as_dict`."""
        return cls(
            iteration=int(data["iteration"]),
            overflowed_passages=int(data["overflowed_passages"]),
            total_overflow=int(data["total_overflow"]),
            max_overflow=int(data["max_overflow"]),
            wirelength=int(data["wirelength"]),
            wirelength_delta=int(data["wirelength_delta"]),
            rerouted=int(data["rerouted"]),
            elapsed_seconds=float(data["elapsed_seconds"]),
        )


@dataclass
class StrategyOutcome:
    """What the wave loop, and every routing strategy, hands back.

    ``route`` is mandatory; the congestion/iteration fields are
    telemetry that a strategy fills in as far as it measures it.
    ``first`` carries the unpenalized first-pass route (or warm start)
    so callers can compare it against the returned route without
    re-routing; it stays runtime-only and is not serialized into
    :class:`~repro.api.result.RouteResult`.  ``iterations`` has one
    entry per pass, wave 0 first.

    ``search_stats``, when set, totals the search effort of the
    *whole* run — every pass of every iteration — unlike
    ``route.stats``, which only accumulates up to the best iteration.
    Perf telemetry (expansions/sec, probe counts) must read the
    run-wide numbers or it silently drops the waves after the best.
    ``timing`` is the returned route's delay analysis when the
    strategy computes one (timing-driven does).
    """

    route: GlobalRoute
    first: Optional[GlobalRoute] = None
    congestion_before: Optional[CongestionMap] = None
    congestion_after: Optional[CongestionMap] = None
    iterations: tuple[IterationStats, ...] = ()
    rerouted_nets: tuple[str, ...] = ()
    converged: Optional[bool] = None
    search_stats: Optional[SearchStats] = None
    timing: Optional["TimingAnalysis"] = None

    @property
    def iteration_count(self) -> int:
        """Reroute waves actually run (excludes the first pass)."""
        return max(0, len(self.iterations) - 1)


class NegotiatedRouter:
    """Iterated negotiated-congestion routing of one layout.

    Parameters mirror :class:`~repro.core.router.GlobalRouter`, plus a
    :class:`NegotiationConfig`.  :meth:`run` hands this object to
    :func:`negotiate` as the wave policy:

    1. Route all nets independently and measure passage congestion.
    2. While any passage is over capacity and budget remains: fold the
       overflow into the history, build a
       :class:`~repro.core.costs.NegotiatedCongestionCost` from the
       present utilizations and accumulated history, rip up every net
       through an overflowed passage, and reroute those nets under the
       frozen negotiated model.
    3. Return the best route seen — least total overflow, then least
       wirelength — with per-iteration convergence stats.

    Subclasses change the strategy by overriding the policy hooks
    (:meth:`wave_cost`, :meth:`wave_plan`, :meth:`key`,
    :meth:`analyze`, :attr:`prune`).
    """

    def __init__(
        self,
        layout: Optional[Layout] = None,
        config: RouterConfig = RouterConfig(),
        *,
        cost_model: Optional[CostModel] = None,
        negotiation: Optional[NegotiationConfig] = None,
        router: Optional[GlobalRouter] = None,
    ):
        if (layout is None) == (router is None):
            raise RoutingError("provide exactly one of layout or router")
        self.router = (
            router
            if router is not None
            else GlobalRouter(layout, config, cost_model=cost_model)
        )
        self.negotiation = negotiation if negotiation is not None else NegotiationConfig()

    @property
    def layout(self) -> Layout:
        """The layout being routed."""
        return self.router.layout

    def run(self, *, on_unroutable: str = "raise") -> StrategyOutcome:
        """Negotiate until congestion-free or out of budget.

        Parameters
        ----------
        on_unroutable:
            ``"raise"`` propagates the first unroutable net;
            ``"skip"`` records it in the route's ``failed_nets``.  A
            net that fails *during a reroute wave* keeps its previous
            tree, so the route never loses a net it once had.
        """
        return negotiate(self, on_unroutable=on_unroutable)

    # ------------------------------------------------------------------
    # Policy hooks (called by negotiate)
    # ------------------------------------------------------------------
    @property
    def prune(self) -> bool:
        """Reroute only nets through overflowed passages.

        Standard PathFinder pruning: nets whose current path has zero
        present-congestion overlap keep their trees untouched.
        ``RouterConfig.prune_clean_nets=False`` opts out, ripping up
        the whole netlist every wave (the original PathFinder
        formulation; useful as a quality baseline).
        """
        return self.router.config.prune_clean_nets

    def analyze(self, route: GlobalRoute) -> Any:
        """Analysis of a finished pass, handed to :meth:`wave_plan` and :meth:`key`."""
        return None

    def wave_cost(
        self, history: CongestionHistory, congestion: CongestionMap
    ) -> Optional[CostModel]:
        """The frozen cost model of the next wave, given *congestion* now.

        Folds the overflow into *history* first.  ``None`` (the plain
        base cost) when no passage is full or carries history — only
        a warm start can see that, since any overflow is a term.
        """
        history.update(congestion)
        terms = history.penalty_terms(congestion)
        if not terms:
            return None
        return NegotiatedCongestionCost(
            terms,
            present_weight=self.negotiation.present_weight,
            history_weight=self.negotiation.history_weight,
            base=self.router.cost_model,
        )

    def wave_plan(
        self, nets: list[str], cost: Optional[CostModel], analysis: Any
    ) -> tuple[list[str], Union[Optional[CostModel], Mapping[str, CostModel]]]:
        """The wave's net order and cost (one model, or one per net)."""
        return nets, cost

    def key(self, route: GlobalRoute, congestion: CongestionMap, analysis: Any) -> tuple:
        """Sort key of a pass's result; the least one is returned."""
        return (congestion.total_overflow, route.total_length)


class _TwoPass(NegotiatedRouter):
    """The Conclusions' scheme as a wave policy (one run per instance).

    Each wave adds the overflowed passages' fixed penalty regions to
    those of earlier waves; no history is kept and only affected nets
    are rerouted, whatever ``prune_clean_nets`` says.
    """

    prune = True

    def __init__(
        self,
        router: GlobalRouter,
        *,
        penalty_weight: float,
        passes: int,
        max_gap: Optional[int],
    ):
        super().__init__(
            router=router,
            negotiation=NegotiationConfig(max_iterations=passes - 1, max_gap=max_gap),
        )
        self.penalty_weight = penalty_weight
        self._regions: list[tuple] = []

    def wave_cost(
        self, history: CongestionHistory, congestion: CongestionMap
    ) -> CostModel:
        self._regions = self._regions + congestion.penalty_regions(
            weight=self.penalty_weight
        )
        return CongestionPenaltyCost(self._regions, base=self.router.cost_model)


def two_pass(
    router: GlobalRouter,
    *,
    penalty_weight: float = 2.0,
    max_gap: Optional[int] = None,
    on_unroutable: str = "raise",
    passes: int = 2,
) -> StrategyOutcome:
    """First pass, congestion measurement, penalized repasses.

    Only nets through overflowed passages are rerouted; everything
    else keeps its earlier tree (the paper: "a second route of the
    *affected* nets").  ``passes=2`` is the paper's scheme; larger
    values iterate with accumulated penalties (each round adds the
    currently-overflowed regions on top of the previous penalties)
    and the best route seen — by total overflow, then wirelength —
    is returned as ``route``.
    """
    if passes < 2:
        raise RoutingError(f"two-pass routing needs passes >= 2, got {passes}")
    policy = _TwoPass(router, penalty_weight=penalty_weight, passes=passes, max_gap=max_gap)
    return negotiate(policy, on_unroutable=on_unroutable)


def negotiate(
    policy: NegotiatedRouter,
    *,
    on_unroutable: str = "raise",
    seed: Optional["WarmStart"] = None,
) -> StrategyOutcome:
    """The wave loop: first pass, then penalized reroute waves.

    *policy* supplies the per-wave decisions (see
    :class:`NegotiatedRouter`).  Without a *seed* the loop begins with
    an independent pass of every net.  A *seed* (the incremental
    planner's :class:`~repro.incremental.engine.WarmStart`) replaces
    it: the kept routes pre-charge the history
    (:meth:`CongestionHistory.seed`) and wave 0 routes only the dirty
    nets under that cost.  Waves then run while any passage overflows
    and ``max_iterations`` allows.  A seed with no dirty nets runs no
    wave at all: its kept trees come back untouched, even over
    capacity, which makes an empty-delta reroute identical to the
    previous result.  A seed's fresh stats make ``search_stats``
    count the incremental work only.

    In skip mode a net whose reroute fails keeps its earlier tree
    (first-pass failures stay recorded in ``failed_nets``).
    """
    check_on_unroutable(on_unroutable)
    router = policy.router
    knobs = policy.negotiation
    ledger = CongestionLedger(find_passages(router.layout, max_gap=knobs.max_gap))
    history = CongestionHistory(gain=knobs.history_gain)
    rerouted: set[str] = set()
    started = time.perf_counter()
    waves = knobs.max_iterations
    first = router.route_all(on_unroutable=on_unroutable) if seed is None else seed.kept.copy()
    ledger.load(first)
    moved: list[str] = []
    if seed is not None and not seed.dirty:
        # Nothing to route: the kept trees are the answer, overflow and all.
        waves = 0
    elif seed is not None:
        kept_map = ledger.snapshot()
        history.seed(kept_map)
        moved = router.route_into(
            first,
            seed.dirty,
            policy.wave_cost(history, kept_map),
            on_unroutable=on_unroutable,
            ledger=ledger,
        )
        rerouted.update(moved)
    before = ledger.snapshot()
    current = best = (first, before, policy.analyze(first))
    iterations = [IterationStats.measure(0, first, before, started=started, rerouted=len(moved))]

    for iteration in range(1, waves + 1):
        route, congestion, analysis = current
        if congestion.total_overflow == 0:
            break
        wave_started = time.perf_counter()
        cost = policy.wave_cost(history, congestion)
        nets = sorted(congestion.affected_nets() if policy.prune else route.trees)
        order, cost = policy.wave_plan(nets, cost, analysis)
        candidate, candidate_map, moved = router.reroute_pass(
            route, order, cost, ledger=ledger, on_unroutable=on_unroutable
        )
        rerouted.update(moved)
        current = (candidate, candidate_map, policy.analyze(candidate))
        iterations.append(
            IterationStats.measure(
                iteration,
                candidate,
                candidate_map,
                started=wave_started,
                rerouted=len(moved),
                previous_length=iterations[-1].wirelength,
            )
        )
        if policy.key(*current) < policy.key(*best):
            best = current

    final, after, analysis = best
    return StrategyOutcome(
        route=final,
        first=first,
        congestion_before=before,
        congestion_after=after,
        iterations=tuple(iterations),
        rerouted_nets=tuple(sorted(rerouted)),
        converged=after.total_overflow == 0,
        # The last pass's stats accumulated through every wave — the
        # run-wide totals.
        search_stats=current[0].stats,
        timing=analysis,
    )
