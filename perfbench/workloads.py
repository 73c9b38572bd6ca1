"""The three workloads: seeded inputs, the loops that drive them, and the checks.

Every input is a pure function of the workload seed; the program only
ever sees the generated requests.  Every request uses the default
``RouterConfig`` and ``verify=True``.

``negotiate`` and ``first-pass`` call the library one request at a
time.  Their request set is a fixed list; a run routes it once, then
keeps cycling through it until the time is up, so the quality sums
(taken over the first pass) repeat exactly for a seed while the timing
gets more samples.  ``design-loop`` drives the HTTP service with a
closed-loop client repeating a seeded design iteration; its quality
sums cover a fixed number of iterations.

Every request is timed between two runs of the calibration job and
reported at nominal machine speed (see ``calibration.py``).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from calibration import calibrate, speed_factor
from repro.api.pipeline import RoutingPipeline
from repro.api.request import RouteRequest
from repro.api.rerouting import RerouteRequest
from repro.api.result import RouteResult
from repro.core.timing import analyze_route_timing
from repro.errors import LayoutError, QueueFullError
from repro.incremental.scripts import replace_nets_delta
from repro.layout.generators import LayoutSpec, grid_layout, random_layout, random_netlist
from repro.layout.layout import Layout
from repro.scenarios.conformance import route_fingerprint
from repro.scenarios.families import build_scenario
from repro.service.client import Client
from repro.service.jobs import RoutingService
from repro.service.server import make_server

# Sizes.  A run's metrics are sums and medians over its request set, so
# their spread across seeds shrinks with the number of distinct layouts
# in the set; the layouts are kept small enough that one pass over the
# set takes about half of a 30-second run on one core.

#: negotiate: scaled_congested_layout recipe (6x6 macro grid, 3-unit
#: passages, 3-6 terminal nets), negotiated with a fixed wave budget.
NEGOTIATE_LAYOUTS = 60
NEGOTIATE_NETS = 16
NEGOTIATE_WAVES = 1

#: first-pass: dense random general-cell layouts, single strategy, detail on.
#: Cells of similar size keep the passage structure, and so the
#: overflow, alike from layout to layout.
FIRST_PASS_LAYOUTS = 60
FIRST_PASS_CELLS = 12
FIRST_PASS_CELL_SIDES = (14, 18)
FIRST_PASS_NETS = 40
FIRST_PASS_DENSITY = 0.4

#: design-loop: small negotiated designs on a 3x3 macro grid.
DESIGN_ITERATIONS = 48  # the fixed set the quality sums cover
DESIGN_NETS = 14
DESIGN_WAVES = 1
DESIGN_REPLACED_NETS = 2


def scaled_congested_layout(
    n_nets: int, seed: int, *, rows: int = 6, cols: int = 6, gap: int = 3,
    terminals: tuple[int, int] = (3, 6),
) -> Layout:
    """A macro grid with narrow passages and fat multi-terminal nets."""
    layout = grid_layout(rows, cols, cell_width=20, cell_height=20, gap=gap, margin=8)
    rng = random.Random(seed)
    spec = LayoutSpec(terminals_per_net=terminals, pad_fraction=0.0)
    for net in random_netlist(layout, n_nets, rng=rng, spec=spec):
        layout.add_net(net)
    return layout


def negotiate_requests(seed: int) -> list[RouteRequest]:
    """Congested macro grids, routed by the negotiated strategy."""
    rng = random.Random(f"negotiate:{seed}")
    return [
        RouteRequest(
            layout=scaled_congested_layout(NEGOTIATE_NETS, rng.randrange(2**31)),
            strategy="negotiated",
            strategy_params={"max_iterations": NEGOTIATE_WAVES},
        )
        for _ in range(NEGOTIATE_LAYOUTS)
    ]


def first_pass_requests(seed: int) -> list[RouteRequest]:
    """Random general-cell layouts: one independent pass, verify and detail.

    At this density the random placer cannot fit every seed's cells; a
    layout seed whose placement fails is skipped for the next one.
    """
    spec = LayoutSpec(
        n_cells=FIRST_PASS_CELLS,
        n_nets=FIRST_PASS_NETS,
        cell_min=FIRST_PASS_CELL_SIDES[0],
        cell_max=FIRST_PASS_CELL_SIDES[1],
        terminals_per_net=(2, 4),
        density=FIRST_PASS_DENSITY,
    )
    rng = random.Random(f"first-pass:{seed}")
    requests = []
    while len(requests) < FIRST_PASS_LAYOUTS:
        try:
            layout = random_layout(spec, seed=rng.randrange(2**31))
        except LayoutError:
            continue
        requests.append(RouteRequest(layout=layout, strategy="single", detail=True))
    return requests


@dataclass(frozen=True)
class DesignIteration:
    """One design-loop iteration's new inputs."""

    fresh: RouteRequest
    reroute: RerouteRequest
    timing: RouteRequest


def design_iteration(seed: int, index: int) -> DesignIteration:
    """Iteration *index* of the design loop: a pure function of the seed.

    The timing-driven input is always a fresh ``long-critical-nets``
    seed, so it is never a store hit.
    """
    rng = random.Random(f"design-loop:{seed}:{index}")
    layout = scaled_congested_layout(DESIGN_NETS, rng.randrange(2**31), rows=3, cols=3)
    fresh = RouteRequest(
        layout=layout, strategy="negotiated", strategy_params={"max_iterations": DESIGN_WAVES}
    )
    scenario = build_scenario("long-critical-nets", seed=rng.randrange(2**31))
    return DesignIteration(
        fresh=fresh,
        reroute=RerouteRequest(
            base=fresh, delta=replace_nets_delta(layout, DESIGN_REPLACED_NETS)
        ),
        timing=RouteRequest(layout=scenario.layout, strategy="timing-driven"),
    )


# ----------------------------------------------------------------------
# Checks and bookkeeping
# ----------------------------------------------------------------------
def problems(result: RouteResult, layout: Layout) -> list[str]:
    """Why *result* is not a correct route of *layout* (empty when it is).

    The pipeline only reports verification violations; here any
    violation or unrouted net fails the operation.
    """
    found = []
    if not result.verified:
        found.append("verification did not run")
    if result.violations:
        found.append(f"{len(result.violations)} net(s) violate verification")
    if result.route.failed_nets:
        found.append(f"{len(result.route.failed_nets)} net(s) failed")
    missing = {net.name for net in layout.nets} - set(result.route.trees)
    if missing:
        found.append(f"{len(missing)} net(s) unrouted")
    return found


def worst_delay(result: RouteResult, layout: Layout) -> float:
    """Worst net delay of a route under the path-length delay model.

    Timing-driven results carry their own analysis; for them only the
    critical nets (``crit*``) count, as that is what the strategy
    optimises.  For other results the harness runs the analysis itself
    (with the original function, so it is never traced).
    """
    if result.timing is not None:
        return max(
            (t.delay for name, t in result.timing.nets.items() if name.startswith("crit")),
            default=0.0,
        )
    return analyze_route_timing(result.route, layout).worst_delay


@dataclass
class Ledger:
    """What one run observed."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    #: Per-request seconds as measured, and at nominal machine speed
    #: (see calibration.py); the nominal ones are reported.
    raw_latencies: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    request_seconds: float = 0.0
    routed_nets: int = 0
    overflow: int = 0
    wirelength: int = 0
    worst_delay: float = 0.0
    #: Service-side figures from job documents (design-loop only).
    service: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def add_service(self, **amounts: float) -> None:
        for key, value in amounts.items():
            self.service[key] = self.service.get(key, 0.0) + value

    def timed(self, elapsed: float, before: float, after: float) -> None:
        """Record one request's time, measured between two calibration runs."""
        nominal = elapsed * speed_factor([before, after])
        self.raw_latencies.append(elapsed)
        self.latencies.append(nominal)
        self.request_seconds += nominal

    def add_quality(self, result: RouteResult, layout: Layout) -> None:
        """Fold one result of the fixed request set into the quality sums."""
        if result.congestion_after is not None:
            self.overflow += result.congestion_after.total_overflow
        self.wirelength += result.total_length
        self.worst_delay += worst_delay(result, layout)


# ----------------------------------------------------------------------
# Library workloads
# ----------------------------------------------------------------------
def run_library(
    requests: list[RouteRequest],
    ledger: Ledger,
    *,
    seconds: Optional[float],
    fingerprints: list[Optional[str]],
    on_request: Callable[[int], None] = lambda index: None,
) -> list[float]:
    """Route *requests* in order, cycling until *seconds* have passed.

    With ``seconds=None`` the set is routed exactly once.  The first
    time a request is routed its fingerprint is recorded (and quality
    summed); every later routing of it must reproduce that fingerprint.
    Returns the nominal per-request times of this call.
    """
    pipeline = RoutingPipeline()
    first = len(ledger.latencies)
    started = time.perf_counter()
    index = passes = 0
    previous = calibrate()
    while True:
        request = requests[index]
        on_request(index)
        ledger.attempted += 1
        began = time.perf_counter()
        try:
            result = pipeline.run(request)
        except Exception as exc:  # noqa: BLE001 - any exception fails the operation
            ledger.fail(f"request {index}: {type(exc).__name__}: {exc}")
            result = None
        elapsed = time.perf_counter() - began
        following = calibrate()
        ledger.timed(elapsed, previous, following)
        previous = following
        if result is not None:
            _check_library(request, result, index, ledger, fingerprints)
            ledger.routed_nets += len(result.route.trees)
        index += 1
        if index == len(requests):
            index = 0
            passes += 1
        if passes and (seconds is None or time.perf_counter() - started >= seconds):
            break
    return ledger.latencies[first:]


def _check_library(
    request: RouteRequest, result: RouteResult, index: int, ledger: Ledger,
    fingerprints: list[Optional[str]],
) -> None:
    layout = request.layout
    found = problems(result, layout)
    fingerprint = route_fingerprint(result.route)
    if fingerprints[index] is None:
        fingerprints[index] = fingerprint
        ledger.add_quality(result, layout)
    elif fingerprints[index] != fingerprint:
        found.append("route differs from the first routing of the same request")
    if found:
        ledger.fail(f"request {index}: {'; '.join(found)}")


# ----------------------------------------------------------------------
# The design loop over the service
# ----------------------------------------------------------------------
class Service:
    """The service with ``repro serve`` defaults, in-process on an ephemeral port."""

    def __init__(self) -> None:
        self.service = RoutingService()
        self.server = make_server(self.service, port=0)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        Client(self.url).healthz()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)
        self.service.close()


#: A 429 is retried after the server's Retry-After; give up after this many.
RETRIES_429 = 5


class LoadClient:
    """The closed-loop client: sends a request only after the last one finished.

    With one client the service is idle between requests, so each
    request can be timed between two calibration runs like a library
    request.  (With two concurrent clients no calibration tracked the
    service's speed, and its time metrics spread by 0.23 to 0.35 of
    their median across runs.)
    """

    def __init__(self, url: str, ledger: Ledger, seed: int):
        # Retries happen here rather than inside Client, so they can be counted.
        self.client = Client(url, retry_429=0)
        self.ledger = ledger
        self.seed = seed
        self.fingerprints: dict[int, str] = {}

    def _job(self, submit: Callable[[], dict]) -> dict:
        for attempt in range(RETRIES_429 + 1):
            try:
                job = submit()
                break
            except QueueFullError:
                self.ledger.add_service(**{"service.client_retries": 1})
                if attempt == RETRIES_429:
                    raise
                time.sleep(1.0)
        if job["state"] not in ("done", "failed"):
            job = self.client.wait(job["id"])
        return job

    def send(
        self, label: str, submit: Callable[[], dict], layout: Layout, *,
        fixed: bool, expect: Optional[str] = None,
    ) -> Optional[RouteResult]:
        """Run one request; check it; record its latency and service timings."""
        ledger = self.ledger
        ledger.attempted += 1
        before = calibrate()
        began = time.perf_counter()
        try:
            job = self._job(submit)
            result = (
                RouteResult.from_dict(job["result"]) if job["state"] == "done" else None
            )
        except Exception as exc:  # noqa: BLE001 - any exception fails the operation
            ledger.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - began
        ledger.timed(elapsed, before, calibrate())
        timings = job["timings"]
        ledger.add_service(**{
            "jobs": 1,
            "service.queue_s": timings["queued"] or 0.0,
            "service.run_s": 0.0 if job["cache_hit"] else timings["route"] or 0.0,
            "service.http_s": elapsed - (timings["total"] or 0.0),
            "reroutes": 1 if job["incremental"] is not None else 0,
            "warm_reroutes": 1 if job["incremental"] else 0,
        })
        if result is None:
            ledger.fail(f"{label}: job {job['state']}: {job.get('error')}")
            return None
        found = problems(result, layout)
        if expect is not None and route_fingerprint(result.route) != expect:
            found.append("store returned a different route than the one routed")
        if found:
            ledger.fail(f"{label}: {'; '.join(found)}")
        if not job["cache_hit"]:
            ledger.routed_nets += len(result.route.trees)
        if fixed:
            ledger.add_quality(result, layout)
        return result

    def iterate(self, index: int, item: DesignIteration) -> None:
        """Route a design, reroute it, fetch the previous one, route a timing design."""
        fixed = index < DESIGN_ITERATIONS
        tag = f"iteration {index}"
        client = self.client
        fresh = self.send(
            f"{tag} route", lambda: client.submit(item.fresh, wait=True),
            item.fresh.layout, fixed=fixed,
        )
        if fresh is not None:
            self.fingerprints[index] = route_fingerprint(fresh.route)
        self.send(
            f"{tag} reroute", lambda: client.submit_reroute(item.reroute, wait=True),
            item.fresh.layout, fixed=fixed,
        )
        previous = max(index - 1, 0)
        earlier = design_iteration(self.seed, previous).fresh
        self.send(
            f"{tag} store hit", lambda: client.submit(earlier, wait=True),
            earlier.layout, fixed=fixed, expect=self.fingerprints.get(previous),
        )
        self.send(
            f"{tag} timing", lambda: client.submit(item.timing, wait=True),
            item.timing.layout, fixed=fixed,
        )


def run_design_loop(
    url: str,
    ledger: Ledger,
    seed: int,
    fixed_set: list[DesignIteration],
    *,
    seconds: Optional[float],
    iterations: int = DESIGN_ITERATIONS,
) -> None:
    """Drive the service with the closed-loop client.

    The client runs at least *iterations* of the fixed set, and with
    *seconds* set keeps going with new iterations until the time is up.
    """
    load = LoadClient(url, ledger, seed)
    started = time.perf_counter()
    index = 0
    while index < iterations or (
        seconds is not None and time.perf_counter() - started < seconds
    ):
        item = fixed_set[index] if index < DESIGN_ITERATIONS else design_iteration(seed, index)
        load.iterate(index, item)
        index += 1


def design_fixed_set(seed: int) -> list[DesignIteration]:
    """The iterations every run routes, whatever the machine's speed."""
    return [design_iteration(seed, index) for index in range(DESIGN_ITERATIONS)]


def probe_wire_identity(url: str, seed: int, ledger: Ledger) -> None:
    """Route one request over HTTP and in-process: the routes must match."""
    request = design_iteration(seed, -1).fresh
    ledger.attempted += 1
    try:
        job = Client(url).submit(request, wait=True, wait_timeout=120.0)
        over_wire = RouteResult.from_dict(job["result"])
        in_process = RoutingPipeline().run(request)
    except Exception as exc:  # noqa: BLE001 - any exception fails the operation
        ledger.fail(f"wire probe: {type(exc).__name__}: {exc}")
        return
    if route_fingerprint(over_wire.route) != route_fingerprint(in_process.route):
        ledger.fail("wire probe: HTTP and in-process routes differ")


def service_figures(ledger: Ledger, snapshot: dict) -> dict[str, float]:
    """The per-layer service figures: job-document sums plus ``/metrics``."""
    service = dict(ledger.service)
    lookups = snapshot["cache_hits"] + snapshot["cache_misses"]
    service["service.store_hit_ratio"] = snapshot["cache_hits"] / lookups if lookups else 0.0
    service["service.coalesced"] = snapshot["coalesced"]
    service["service.rejected"] = snapshot["rejected"]
    reroutes = service.get("reroutes", 0.0)
    service["incremental.warm_ratio"] = (
        service.get("warm_reroutes", 0.0) / reroutes if reroutes else 0.0
    )
    return service
