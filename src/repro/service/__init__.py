"""repro.service — routing as a service.

The long-lived serving surface over the
``RouteRequest → RoutingPipeline → RouteResult`` API:

* :class:`~repro.service.jobs.RoutingService` — the HTTP-independent
  core: an async job queue with a bounded admission window (429 on
  overload), dispatch workers built on
  :func:`repro.core.parallel.make_executor`, content-addressed result
  reuse, and coalescing of concurrent identical requests.
* :mod:`repro.service.store` — pluggable persistence:
  :func:`~repro.service.store.base.make_store` builds the paired
  :class:`~repro.service.store.base.ResultStore` (content-addressed
  results) + :class:`~repro.service.store.base.JobStore`
  (crash-recovery log) from ``"memory"`` or ``"sqlite:PATH"``.
* :class:`~repro.service.workers.ProcessTier` — the
  ``--executor process`` worker tier: routing runs in a crash-tolerant
  process pool instead of on the GIL-bound dispatch threads.
* :class:`~repro.service.metrics.ServiceMetrics` — the counters and
  route-latency percentiles behind ``GET /metrics``.
* :func:`~repro.service.server.make_server` /
  :class:`~repro.service.server.RoutingServer` — the stdlib HTTP
  frontend (``POST /route``, ``POST /batch``, ``GET /jobs/<id>``,
  ``GET /healthz``, ``GET /metrics``).
* :class:`~repro.service.client.Client` — the thin stdlib HTTP client
  used by tests, CI, and scripts.

``python -m repro serve`` wires this into the CLI; see
``docs/service.md`` for the endpoint reference, the job lifecycle, the
store backends, and the cache-key definition.
"""

from repro.service.client import Client
from repro.service.jobs import JOB_STATES, Job, RoutingService
from repro.service.metrics import ServiceMetrics
from repro.service.server import RoutingServer, make_server
from repro.service.store import (
    JobRecord,
    JobStore,
    ResultStore,
    Store,
    make_store,
    parse_store_spec,
)
from repro.service.workers import WORKER_TIERS, ProcessTier

__all__ = [
    "Client",
    "JOB_STATES",
    "Job",
    "JobRecord",
    "JobStore",
    "ProcessTier",
    "ResultStore",
    "RoutingServer",
    "RoutingService",
    "ServiceMetrics",
    "Store",
    "WORKER_TIERS",
    "make_server",
    "make_store",
    "parse_store_spec",
]
