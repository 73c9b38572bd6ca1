"""The process-pool worker tier: routing runs beyond the service GIL.

The service's dispatch pool is always threads (cheap, and the job
table lives in-process), but routing itself is CPU-bound pure Python —
threads serialize on the GIL, so ``repro serve --executor process``
hands the actual routing work to a :class:`ProcessTier`: a persistent
:class:`~concurrent.futures.ProcessPoolExecutor` built on
:func:`repro.core.parallel.make_executor`, fed JSON-ready *work specs*
(the request document with the layout inlined) and returning
serialized :class:`~repro.api.result.RouteResult` documents.  Results
round-trip the same ``to_dict``/``from_dict`` path as the HTTP wire,
so a process-tier result is byte-identical (as JSON) to an in-process
one.

Crash handling: a worker process dying (OOM kill, segfault, a hostile
``os._exit``) surfaces as :class:`~concurrent.futures.BrokenExecutor`
on every future sharing the pool.  The tier then rebuilds the pool
(counted as a ``worker_restart``) and retries the affected job **once**
(counted as a ``job_retry``); a second crash fails the job with a
:class:`~repro.errors.ServiceError` rather than looping — crashes that
follow the job are the job's fault, crashes that don't are absorbed.

Specs, not closures, cross the process boundary, which is why the
process tier requires strategies resolvable by name in a fresh
interpreter (the built-ins): a custom
:class:`~repro.api.registry.StrategyRegistry` lives only in the parent
and forces the thread tier.
"""

from __future__ import annotations

import threading
from concurrent.futures import BrokenExecutor
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ServiceError
from repro.core.parallel import make_executor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.result import RouteResult
    from repro.service.metrics import ServiceMetrics

#: Worker tiers ``RoutingService(executor=...)`` accepts.
WORKER_TIERS = ("thread", "process")


def execute_spec(spec: dict) -> dict:
    """Run one work spec to a serialized result (worker-process side).

    The pipeline is built once per worker process and reused across
    jobs — the default registry with the built-in strategies, which is
    exactly why the process tier refuses custom registries.
    """
    from repro.api.pipeline import RoutingPipeline
    from repro.api.request import RouteRequest
    from repro.api.rerouting import RerouteRequest
    from repro.api.result import RouteResult

    global _PIPELINE
    if _PIPELINE is None:
        _PIPELINE = RoutingPipeline()
    kind = spec["kind"]
    if kind == "route":
        result = _PIPELINE.run(RouteRequest.from_dict(spec["request"]))
    elif kind == "reroute":
        result = _PIPELINE.reroute(
            RerouteRequest.from_dict(spec["request"]),
            prev_result=RouteResult.from_dict(spec["prev"]),
        )
    else:
        raise ServiceError(f"unknown work spec kind {kind!r}")
    return result.to_dict()


_PIPELINE = None


class ProcessTier:
    """A crash-tolerant persistent process pool for routing work.

    Parameters
    ----------
    workers:
        Pool size, >= 1.
    metrics:
        The service's :class:`ServiceMetrics` — restart and retry
        counters land there.
    target:
        The worker-side function (spec dict in, result dict out).
        Overridable for tests that need a worker to crash on cue;
        production always uses :func:`execute_spec`.
    """

    def __init__(
        self,
        workers: int,
        metrics: "ServiceMetrics",
        *,
        target: Callable[[dict], dict] = execute_spec,
    ):
        self.workers = workers
        self.metrics = metrics
        self.target = target
        self._lock = threading.Lock()
        self._generation = 0
        self._pool = make_executor(workers, "process")

    def run(self, spec: dict) -> "RouteResult":
        """Execute *spec* in a worker process; retry once across a crash."""
        from repro.api.result import RouteResult

        last_error: Optional[BaseException] = None
        for attempt in range(2):
            with self._lock:
                pool, generation = self._pool, self._generation
            try:
                payload = pool.submit(self.target, spec).result()
                return RouteResult.from_dict(payload)
            except BrokenExecutor as exc:
                last_error = exc
                self._restart(generation)
                if attempt == 0:
                    self.metrics.record_retry()
        raise ServiceError(
            f"routing worker crashed twice running this job: {last_error}"
        )

    def _restart(self, generation: int) -> None:
        """Replace the broken pool exactly once per breakage.

        Every thread blocked on the dead pool sees the same
        :class:`BrokenExecutor`; the generation check makes the first
        one rebuild and the rest reuse its replacement instead of
        stampeding through N rebuilds.
        """
        with self._lock:
            if self._generation == generation:
                self._pool.shutdown(wait=False)
                self._pool = make_executor(self.workers, "process")
                self._generation += 1
                self.metrics.record_worker_restart()

    @property
    def restarts(self) -> int:
        """Pool rebuilds since construction."""
        with self._lock:
            return self._generation

    def close(self, *, wait: bool = True) -> None:
        """Shut the worker processes down."""
        with self._lock:
            pool = self._pool
        pool.shutdown(wait=wait)
