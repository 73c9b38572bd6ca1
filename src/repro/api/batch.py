"""The batch facade: many layouts, one shared executor.

Each layout's nets route serially in one process; :class:`Batch` fans
*whole requests* out — the service/benchmark-farm shape where many
independent layouts arrive at once.  It shares the executor machinery
with the service (:func:`repro.core.parallel.make_executor`), so the
flavour semantics are identical: ``"process"`` scales with cores,
``"thread"`` is the GIL-bound fallback for unpicklable inputs.

Duplicate requests — equal canonical keys per
:func:`repro.api.canonical.request_cache_key` — are routed exactly
once; every duplicate slot aliases the shared
:class:`~repro.api.result.RouteResult`, the same identity the service
layer (:mod:`repro.service`) caches and coalesces on.

Process batches resolve strategies inside fresh worker processes, so
only strategies importable at ``repro.api`` import time (the built-ins)
are available there; third-party strategies registered at runtime in
the parent need the ``"thread"`` executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.errors import RoutingError
from repro.core.parallel import EXECUTORS, make_executor
from repro.api.canonical import request_cache_key
from repro.api.pipeline import RoutingPipeline
from repro.api.request import RouteRequest
from repro.api.result import RouteResult
from repro.api.registry import StrategyRegistry

#: The error-handling policies a batch may run under.
ON_ERROR_POLICIES = ("raise", "return")


@dataclass
class BatchError:
    """A failed request's slot in ``on_error="return"`` results.

    Carries the original exception so callers can discriminate failure
    modes (`isinstance(slot, BatchError)` separates failures from
    results; ``slot.error`` is the exception the pipeline raised).
    """

    error: Exception

    @property
    def ok(self) -> bool:
        """Always False — mirrors :attr:`RouteResult.ok` for uniform filtering."""
        return False

    @property
    def message(self) -> str:
        """The failure rendered as text."""
        return str(self.error)


#: One slot of a batch result under ``on_error="return"``.
BatchOutcome = Union[RouteResult, BatchError]


def _run_request_guarded(request: RouteRequest) -> BatchOutcome:
    """Route one request in a worker process; a failure fills its slot
    instead of poisoning the pool map (module-level for pickling)."""
    try:
        return RoutingPipeline().run(request)
    except Exception as exc:  # noqa: BLE001 - every failure must stay in its slot
        return BatchError(exc)


def _guarded(run: Callable[[RouteRequest], RouteResult]) -> Callable[[RouteRequest], BatchOutcome]:
    """Wrap a pipeline runner so one request's failure fills its slot."""

    def _run(request: RouteRequest) -> BatchOutcome:
        try:
            return run(request)
        except Exception as exc:  # noqa: BLE001 - every failure must stay in its slot
            return BatchError(exc)

    return _run


class Batch:
    """Routes many :class:`~repro.api.request.RouteRequest` objects.

    Parameters
    ----------
    workers:
        Concurrent requests; 1 routes serially (no pool is built).
    executor:
        ``"process"`` or ``"thread"`` (see module docstring).
    registry:
        Registry for the serial and thread paths; process workers use
        the default registry (see module docstring).
    on_error:
        ``"raise"`` (default) propagates a failing request's error
        after in-flight work completes, discarding sibling results.
        ``"return"`` isolates failures: each failed request's slot
        holds a :class:`BatchError` wrapping the exception while every
        sibling still gets its :class:`RouteResult` — the service
        shape, where one malformed request must not poison a farm run.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        executor: str = "process",
        registry: Optional[StrategyRegistry] = None,
        on_error: str = "raise",
    ):
        if workers < 1:
            raise RoutingError(f"batch workers must be >= 1, got {workers}")
        if executor not in EXECUTORS:
            raise RoutingError(f"executor must be one of {EXECUTORS}, not {executor!r}")
        if on_error not in ON_ERROR_POLICIES:
            raise RoutingError(
                f"on_error must be one of {ON_ERROR_POLICIES}, not {on_error!r}"
            )
        self.workers = workers
        self.executor = executor
        self.on_error = on_error
        self._pipeline = RoutingPipeline(registry)

    def route_many(self, requests: Iterable[RouteRequest]) -> list[BatchOutcome]:
        """Route every request; results come back in input order.

        Results are identical to routing each request through a
        :class:`~repro.api.pipeline.RoutingPipeline` serially — the
        batch is purely a wall-time facade.  Identical requests (equal
        :func:`~repro.api.canonical.request_cache_key`) are routed
        once: their slots alias one shared :class:`RouteResult`, so
        batch results must be treated as read-only.  Failure handling
        follows ``on_error``: the default re-raises the first failing
        request's error (in input order) after in-flight work
        completes, while ``"return"`` keeps sibling results and
        returns :class:`BatchError` slots for the failures.
        """
        reqs: Sequence[RouteRequest] = list(requests)
        if not reqs:
            return []
        unique, slot_of = self._collapse_duplicates(reqs)
        serial = self.workers == 1 or len(unique) == 1
        if serial and self.on_error == "raise":
            # Nothing is ever in flight on the serial path, so fail
            # fast instead of routing the whole batch before raising.
            routed = [self._pipeline.run(r) for r in unique]
            return [routed[slot] for slot in slot_of]
        outcomes = self._route_guarded(unique, serial)
        if self.on_error == "raise":
            for outcome in outcomes:
                if isinstance(outcome, BatchError):
                    raise outcome.error
        return [outcomes[slot] for slot in slot_of]

    @staticmethod
    def _collapse_duplicates(
        reqs: Sequence[RouteRequest],
    ) -> tuple[list[RouteRequest], list[int]]:
        """Map duplicate requests onto one representative each.

        Returns ``(unique, slot_of)``: the deduplicated requests that
        must actually be routed — with successfully resolved file
        references inlined, so the layout parsed for hashing is not
        parsed a second time for routing — and, for every input index,
        the position in ``unique`` whose outcome it shares.  A request
        that cannot be canonicalized (unresolvable layout reference,
        non-JSON strategy params) is kept unique *and* unresolved, so
        its failure still surfaces through the normal routing path in
        input order.
        """
        unique: list[RouteRequest] = []
        slot_of: list[int] = []
        first_slot: dict[str, int] = {}
        for request in reqs:
            resolved = request
            try:
                if request.layout is None:
                    resolved = request.with_layout(request.resolve_layout())
                key = request_cache_key(resolved, layout=resolved.layout)
            except Exception:  # noqa: BLE001 - unhashable request == unique request
                key = None
                resolved = request
            if key is not None and key in first_slot:
                slot_of.append(first_slot[key])
                continue
            slot = len(unique)
            if key is not None:
                first_slot[key] = slot
            unique.append(resolved)
            slot_of.append(slot)
        return unique, slot_of

    def _route_guarded(
        self, reqs: Sequence[RouteRequest], serial: bool
    ) -> list[BatchOutcome]:
        """Route with every failure captured into its slot."""
        run = _guarded(self._pipeline.run)
        if serial:
            return [run(r) for r in reqs]
        if self.executor == "process":
            # Layout references would be opened in worker processes with
            # whatever cwd they inherit; resolve them here so the batch
            # behaves like the serial path regardless of worker state.
            # Resolving the layout may itself fail (missing file); that
            # failure belongs in the request's slot, not in the parent.
            resolved: list[BatchOutcome | RouteRequest] = []
            for r in reqs:
                try:
                    resolved.append(
                        r if r.layout is not None else r.with_layout(r.resolve_layout())
                    )
                except Exception as exc:  # noqa: BLE001 - slot-isolated, see on_error
                    resolved.append(BatchError(exc))
            pending = [r for r in resolved if isinstance(r, RouteRequest)]
            routed: list[BatchOutcome] = []
            if pending:
                with make_executor(min(self.workers, len(pending)), "process") as pool:
                    routed = list(pool.map(_run_request_guarded, pending))
            routed_iter = iter(routed)
            return [
                slot if isinstance(slot, BatchError) else next(routed_iter)
                for slot in resolved
            ]
        with make_executor(min(self.workers, len(reqs)), "thread") as pool:
            return list(pool.map(run, reqs))


def route_many(
    requests: Iterable[RouteRequest],
    *,
    workers: int = 1,
    executor: str = "process",
    registry: Optional[StrategyRegistry] = None,
    on_error: str = "raise",
) -> list[BatchOutcome]:
    """One-shot convenience over :class:`Batch`."""
    return Batch(
        workers=workers, executor=executor, registry=registry, on_error=on_error
    ).route_many(requests)
