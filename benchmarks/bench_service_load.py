"""Service load bench: N concurrent clients through the real HTTP frontend.

The service's scaling pitch is the worker tier: routing is CPU-bound
pure Python, so thread workers serialize on the GIL while
``--executor process`` spreads concurrent jobs across cores.  This
bench pins that claim with real traffic — a live
:class:`~repro.service.server.RoutingServer` on an ephemeral TCP port,
N client threads each long-polling distinct requests (distinct cache
keys: every submission is a genuine routing run, no cache hits, no
coalescing) — across the executor × store matrix:

======================  =====================================================
configuration           what it isolates
======================  =====================================================
``thread+memory``       the GIL-bound baseline (PR 5 behavior)
``process+memory``      the worker-tier speedup, same in-memory store
``thread+sqlite``       the durable store's overhead on the serial tier
``process+sqlite``      the production pairing: multi-core and restart-safe
======================  =====================================================

Per configuration it records wall time, throughput (requests/s), p50
and p95 request latency (submit → terminal, client-observed), and a
byte-identity verdict: one probe request is routed in-process through
:class:`RoutingPipeline` and its
:func:`~repro.scenarios.conformance.route_fingerprint` must match what
came over the wire.  The matrix runs at two sizes: the full size
(4 clients x 5 requests of 16-net layouts, plain configuration names)
and a small size (2 clients x 2 requests of 6-net layouts, names
ending in ``_small``) that is the ``--quick`` subset.  :func:`gate`
applies on every run:

* **identity** — every configuration must match the in-process
  fingerprint (a worker tier that changes results is wrong, not fast),
  and no job may fail;
* **throughput** — on a multi-core box, full-size ``process+memory``
  must beat ``thread+memory``; on a single-core box the comparison is
  physically meaningless (same serial CPU plus IPC), so the gate
  degrades to an overhead bound — the process tier may not cost more
  than :data:`SINGLE_CORE_OVERHEAD_FLOOR` of thread throughput.  The
  artifact records ``cpu_cores`` so a reader knows which gate a
  committed baseline ran under.  The small size is never compared:
  sub-second workloads are dominated by pool spin-up.

Run the suite through the one bench driver::

    PYTHONPATH=src python benchmarks/run_suite.py --suite service --quick
"""

from __future__ import annotations

import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.api.pipeline import RoutingPipeline
from repro.api.request import RouteRequest
from repro.layout.generators import LayoutSpec, random_layout
from repro.scenarios.conformance import route_fingerprint
from repro.service import Client, RoutingService, make_server
from repro.service.metrics import percentile

from benchmarks.run_suite import cpu_cores

#: On one core the process tier can only lose (serialization + IPC on
#: the same serial CPU); below half of thread throughput that loss is
#: an overhead bug, not physics.
SINGLE_CORE_OVERHEAD_FLOOR = 0.5

#: Seconds a client waits for one job before giving up.
WAIT_TIMEOUT = 300.0

#: The executor × store matrix, in reporting order.
CONFIGURATIONS = (
    ("thread+memory", "thread", "memory"),
    ("process+memory", "process", "memory"),
    ("thread+sqlite", "thread", "sqlite"),
    ("process+sqlite", "process", "sqlite"),
)

#: Traffic per size: name suffix -> clients, requests per client, and
#: the layout each request routes.
SIZES = {
    "_small": {"clients": 2, "per_client": 2, "cells": 6, "nets": 6},
    "": {"clients": 4, "per_client": 5, "cells": 14, "nets": 16},
}

WORKLOADS: dict[str, dict] = {
    f"{name}{suffix}": {"executor": executor, "store": store, **size}
    for suffix, size in SIZES.items()
    for name, executor, store in CONFIGURATIONS
}

QUICK = tuple(name for name in WORKLOADS if name.endswith("_small"))

#: Gated against the baseline: walls at the driver's fixed ratio,
#: deterministic counters for exact equality.
WALL_KEYS = ("wall_seconds",)
COUNTER_KEYS = ("requests", "completed")


def _requests(clients: int, per_client: int, spec: LayoutSpec) -> list[list[RouteRequest]]:
    """Distinct layouts per (client, slot): every submission routes."""
    return [
        [
            RouteRequest(
                layout=random_layout(spec, seed=1 + client * per_client + slot)
            )
            for slot in range(per_client)
        ]
        for client in range(clients)
    ]


def run_workload(spec: dict) -> dict:
    """Drive one executor+store pairing over real HTTP; return its row."""
    clients = spec["clients"]
    executor, store_backend = spec["executor"], spec["store"]
    batches = _requests(
        clients, spec["per_client"], LayoutSpec(n_cells=spec["cells"], n_nets=spec["nets"])
    )
    # Seed 1, the first client's first request, is the identity probe.
    reference_fingerprint = route_fingerprint(RoutingPipeline().run(batches[0][0]).route)
    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        store = (
            "memory" if store_backend == "memory" else f"sqlite:{tmp}/bench.db"
        )
        service = RoutingService(
            workers=clients,
            queue_limit=max(32, 2 * clients * len(batches[0])),
            executor=executor,
            store=store,
        )
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        latencies: list[float] = []
        latency_lock = threading.Lock()

        def drive(batch: list[RouteRequest]) -> str:
            client = Client(url, timeout=30.0)
            fingerprint = ""
            for request in batch:
                started = time.perf_counter()
                result = client.route(request, wait_timeout=WAIT_TIMEOUT)
                elapsed = time.perf_counter() - started
                with latency_lock:
                    latencies.append(elapsed)
                # The first client's first request doubles as the
                # identity probe (seed 1 — the reference request).
                if not fingerprint:
                    fingerprint = route_fingerprint(result.route)
            return fingerprint

        # Warm the tier outside the timed window: process pools fork
        # lazily on first submit, and that one-time cost is startup,
        # not throughput.
        warm = Client(url, timeout=30.0)
        warm.route(batches[0][0], wait_timeout=WAIT_TIMEOUT)
        service.cache.clear()

        wall_started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            fingerprints = list(pool.map(drive, batches))
        wall = time.perf_counter() - wall_started

        snapshot = service.snapshot()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        service.close()

    total = sum(len(batch) for batch in batches)
    return {
        "executor": executor,
        "store": store_backend,
        "clients": clients,
        "requests": total,
        "wall_seconds": wall,
        "throughput_rps": total / wall if wall else None,
        "latency_p50_seconds": percentile(latencies, 0.50),
        "latency_p95_seconds": percentile(latencies, 0.95),
        "identical_to_inprocess": fingerprints[0] == reference_fingerprint,
        "completed": snapshot["completed"],
        "failed": snapshot["failed"],
        "worker_restarts": snapshot["worker_restarts"],
    }


def gate(results: dict[str, dict]) -> list[str]:
    """Identity, no failed jobs, and the core-aware full-size floor."""
    failures = []
    for name, entry in results.items():
        if not entry["identical_to_inprocess"]:
            failures.append(f"{name}: the worker tier changed routed results")
        if entry["failed"]:
            failures.append(f"{name}: {entry['failed']} jobs failed under load")
    if "process+memory" in results and "thread+memory" in results:
        ratio = (
            results["process+memory"]["throughput_rps"]
            / results["thread+memory"]["throughput_rps"]
        )
        cores = cpu_cores()
        floor = 1.0 if cores > 1 else SINGLE_CORE_OVERHEAD_FLOOR
        print(
            f"  process/thread throughput {ratio:.2f}x on {cores} core(s), "
            f"floor {floor:.2f}x"
        )
        if ratio < floor:
            failures.append(
                f"process tier at {ratio:.2f}x of thread throughput, below the "
                f"{floor:.2f}x floor for {cores} core(s)"
            )
    return failures
