"""Pool construction shared by the request-level fan-out.

One layout's nets are routed serially, in one process (see
:class:`~repro.core.router.GlobalRouter`).  Work spreads across cores
one level up, over whole requests: the batch facade
(:mod:`repro.api.batch`), the service's dispatch pool
(:mod:`repro.service.jobs`) and its process tier
(:mod:`repro.service.workers`) all build their pools here, so they
share one set of flavour strings and one validation.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from repro.errors import RoutingError

EXECUTORS = ("process", "thread")


def make_executor(workers: int, executor: str):
    """Build a :mod:`concurrent.futures` executor of the named flavour.

    ``"process"`` scales with cores; ``"thread"`` shares the parent's
    state (the GIL serializes the routing).  Rejects an unknown flavour
    or fewer than one worker before any pool is built.
    """
    if executor not in EXECUTORS:
        raise RoutingError(f"executor must be one of {EXECUTORS}, not {executor!r}")
    if workers < 1:
        raise RoutingError(f"a worker pool needs workers >= 1, got {workers}")
    if executor == "thread":
        return ThreadPoolExecutor(max_workers=workers)
    return ProcessPoolExecutor(max_workers=workers)
