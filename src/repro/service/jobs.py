"""The async job queue behind the routing service.

:class:`RoutingService` is the HTTP-independent core: submissions come
in as :class:`~repro.api.request.RouteRequest` objects and become
:class:`Job` records that move through ``queued → running → done`` (or
``failed``).  Three mechanisms keep a long-lived instance healthy
under concurrent load:

**Admission window.**  At most ``queue_limit`` routing runs may be in
flight (queued + running).  A submission past the window raises
:class:`~repro.errors.QueueFullError` *before* any job exists, so
acceptance is binary: a 429'd request left no trace, and every
accepted job is guaranteed to reach a terminal state — the worker
wrapper catches all routing exceptions into the job's ``failed``
state, and nothing between admission and completion can drop it.

**Result store.**  Submissions are keyed by
:func:`repro.api.canonical.request_cache_key`; a key already in the
:class:`~repro.service.store.base.ResultStore` completes instantly as
a ``cache_hit`` job without consuming a window slot.  The store is
pluggable (``store="memory"`` or ``"sqlite:PATH"``): the sqlite
backend survives restarts and can be shared by several frontends.

**Coalescing.**  A submission whose key matches an in-flight job
becomes a *follower*: it gets its own job id (its own lifecycle to
poll) but no second routing run — when the primary finishes, result or
failure fans out to every follower.  Followers do not consume window
slots either; the window bounds actual routing work.

Two worker tiers execute the accepted work.  Dispatch is always a
thread pool from :func:`repro.core.parallel.make_executor`; with
``executor="thread"`` the routing runs inline on those threads
(GIL-bound, but mandatory for caller-registered strategies that only
exist in this process), while
``executor="process"`` hands each run's JSON work spec to the
crash-tolerant :class:`~repro.service.workers.ProcessTier` — true
multi-core routing, with worker-crash detection, a per-job
retry-once, and restart accounting in ``/metrics``.

**Durability.**  Every accepted job also writes a resubmission spec to
the store's :class:`~repro.service.store.base.JobStore`; rows are
deleted at terminal states, and whatever a crashed process left behind
is re-queued — under the original job ids, bypassing the admission
window — when the next service instance opens the same store.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import weakref
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Union

from repro.errors import QueueFullError, ReproError, RoutingError, ServiceError
from repro.core.parallel import make_executor
from repro.incremental.delta import apply_delta
from repro.api.canonical import request_cache_key
from repro.api.pipeline import RoutingPipeline
from repro.api.registry import StrategyRegistry
from repro.api.request import RouteRequest
from repro.api.rerouting import RerouteRequest, reroute_cache_key
from repro.api.result import RouteResult
from repro.layout.layout import Layout
from repro.service.store import JobRecord, Store, make_store
from repro.service.metrics import ServiceMetrics
from repro.service.workers import WORKER_TIERS, ProcessTier

#: Every state a job can be observed in, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed")

#: Terminal states — a job here never changes again.
TERMINAL_STATES = ("done", "failed")

#: Finished jobs retained for ``GET /jobs/<id>`` before pruning.
DEFAULT_JOB_HISTORY = 1024


def _encode(result: RouteResult) -> bytes:
    """*result*'s wire document, as compressed JSON."""
    return zlib.compress(json.dumps(result.to_dict(), separators=(",", ":")).encode())


@dataclass
class Job:
    """One submission's lifecycle record.

    ``cache_hit`` jobs are born terminal; ``coalesced`` jobs follow an
    identical in-flight primary and finish when it does.  All mutation
    happens under the owning service's lock — readers outside the
    service should go through :meth:`RoutingService.describe`.

    A finished job keeps its result as compressed JSON (a few KB) plus
    a weak reference to the live :class:`RouteResult`, so the service's
    job history does not keep every result alive: the live object lasts
    as long as the result store holds it, and :attr:`result` decodes
    the JSON after that.
    """

    id: str
    key: str
    state: str = "queued"
    cache_hit: bool = False
    coalesced: bool = False
    #: ``None`` for plain route jobs; for ``/reroute`` submissions,
    #: whether the base result was cached and the run warm-started
    #: (``True``) or fell back to routing the mutated layout from
    #: scratch (``False``).
    incremental: Optional[bool] = None
    #: Whether this job was re-queued from a persistent job store
    #: after a previous process died with it unfinished.
    recovered: bool = False
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Monotonic-clock twins of the ``*_at`` fields, used for every
    #: *interval* (queued/route/total, the completion metric).  The
    #: wall-clock fields above are kept for display only: arithmetic on
    #: ``time.time()`` goes wrong whenever NTP steps the clock mid-job
    #: (negative or wildly inflated durations).
    submitted_mono: float = 0.0
    started_mono: Optional[float] = None
    finished_mono: Optional[float] = None
    error: Optional[str] = None
    _live: Optional[weakref.ref] = field(default=None, repr=False, compare=False)
    _encoded: Optional[bytes] = field(default=None, repr=False, compare=False)
    _done: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    @property
    def result(self) -> Optional[RouteResult]:
        """The job's result (``None`` unless it finished ``done``).

        The live object while the result store still holds it — so jobs
        sharing one stored result share one object — else a fresh
        decode of the stored JSON, equal to the original.
        """
        if self._encoded is None:
            return None
        live = self._live()
        return live if live is not None else RouteResult.from_dict(self._document())

    def _keep_result(self, result: RouteResult, encoded: bytes) -> None:
        """Record the finished run's *result*, already :func:`_encode`-d."""
        self._live = weakref.ref(result)
        self._encoded = encoded

    def _document(self) -> dict[str, Any]:
        return json.loads(zlib.decompress(self._encoded))

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in TERMINAL_STATES

    def timings(self) -> dict[str, Optional[float]]:
        """Queued/route/total wall seconds (``None`` while pending).

        Computed from the monotonic timestamps, so a wall-clock step
        (NTP correction, DST, manual adjustment) mid-job cannot
        produce negative or inflated durations.
        """
        queued = (
            None
            if self.started_mono is None
            else self.started_mono - self.submitted_mono
        )
        route = (
            None
            if self.started_mono is None or self.finished_mono is None
            else self.finished_mono - self.started_mono
        )
        total = (
            None
            if self.finished_mono is None
            else self.finished_mono - self.submitted_mono
        )
        return {"queued": queued, "route": route, "total": total}

    def as_dict(self, *, include_result: bool = True) -> dict[str, Any]:
        """JSON-ready view (the shape ``GET /jobs/<id>`` serves)."""
        data: dict[str, Any] = {
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "cache_hit": self.cache_hit,
            "coalesced": self.coalesced,
            "incremental": self.incremental,
            "recovered": self.recovered,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "timings": self.timings(),
            "error": self.error,
        }
        if include_result and self.state == "done" and self._encoded is not None:
            data["result"] = self._document()
        return data


@dataclass
class _Work:
    """One admitted routing run, in every form the service needs it.

    ``inline`` runs it on a dispatch thread (the thread tier, and the
    only form custom-registry strategies have); ``exec_spec`` is the
    JSON document the process tier ships to a worker; ``persist_spec``
    is the self-contained resubmission document the job store keeps
    for crash recovery (layout inlined — recovery never re-reads
    layout files).
    """

    kind: str
    inline: Callable[[], RouteResult]
    exec_spec: Optional[dict]
    persist_spec: dict


@dataclass
class _Inflight:
    """One key's in-flight routing run: the primary plus its followers."""

    primary: Job
    followers: list[Job] = field(default_factory=list)


class RoutingService:
    """Admission-controlled, cached, coalescing executor of requests.

    Parameters
    ----------
    workers:
        Concurrent routing runs (dispatch pool size, and the process
        pool size on the process tier), >= 1.
    queue_limit:
        Admission window: maximum queued + running routing runs; a
        submission past it raises :class:`QueueFullError` (HTTP 429).
    cache_size:
        Result-store capacity (0 disables result reuse).  Ignored when
        *store* is a pre-built :class:`Store`.
    registry:
        Strategy registry for the pipeline (defaults to the built-ins).
        Incompatible with ``executor="process"`` — worker processes
        resolve strategies by name from a fresh interpreter.
    job_history:
        Terminal jobs retained for polling before the oldest are
        pruned; in-flight jobs are never pruned.
    executor:
        ``"thread"`` (default) routes on the dispatch threads;
        ``"process"`` routes in a crash-tolerant process pool (see
        :mod:`repro.service.workers`).
    store:
        ``"memory"`` (default), ``"sqlite:PATH"``, or a pre-built
        :class:`~repro.service.store.base.Store`.  Persistent stores
        re-queue the previous process's unfinished jobs at startup.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_limit: int = 32,
        cache_size: int = 256,
        registry: Optional[StrategyRegistry] = None,
        job_history: int = DEFAULT_JOB_HISTORY,
        executor: str = "thread",
        store: Union[str, Store] = "memory",
    ):
        if queue_limit < 1:
            raise RoutingError(f"queue_limit must be >= 1, got {queue_limit}")
        if job_history < 1:
            raise RoutingError(f"job_history must be >= 1, got {job_history}")
        if executor not in WORKER_TIERS:
            raise RoutingError(
                f"executor must be one of {WORKER_TIERS}, not {executor!r}"
            )
        if executor == "process" and registry is not None:
            raise RoutingError(
                "a custom strategy registry requires executor='thread': worker "
                "processes resolve strategies by name from a fresh interpreter "
                "and would not see runtime registrations"
            )
        self.workers = workers
        self.queue_limit = queue_limit
        self.job_history = job_history
        self.executor = executor
        self.metrics = ServiceMetrics()
        self.store = store if isinstance(store, Store) else make_store(
            store, cache_size=cache_size
        )
        #: The result store, under its historical attribute name.
        self.cache = self.store.results
        self._pipeline = RoutingPipeline(registry)
        self._pool = make_executor(workers, "thread")
        self._tier = (
            ProcessTier(workers, self.metrics) if executor == "process" else None
        )
        self._lock = threading.Lock()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._inflight: dict[str, _Inflight] = {}
        #: Wire bytes of each live stored result, by ``id()``: a cache
        #: hit reuses what its run encoded.  Entries go with their result.
        self._encoded: dict[int, bytes] = {}
        self._pending = 0  # queued + running primaries (window occupancy)
        self._running = 0
        self._next_id = 0
        self._started_at = time.time()
        self._started_mono = time.monotonic()
        self._closed = False
        self._final_snapshot: Optional[dict] = None
        self._recover_pending()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: RouteRequest) -> Job:
        """Admit one request; returns its (possibly already-done) job.

        Raises :class:`~repro.errors.RoutingError` for malformed
        requests (unresolvable layout, non-canonicalizable params) and
        :class:`QueueFullError` when the admission window is full.
        """
        layout, key = self._prepare(request)
        with self._lock:
            self.metrics.record_request()
            return self._admit_locked(key, work=self._route_work(request, layout))

    def submit_reroute(self, request: RerouteRequest) -> Job:
        """Admit one incremental reroute; returns its job.

        The base result is resolved from the content-addressed store
        *at admission time*: when present, the run warm-starts from it
        through :meth:`RoutingPipeline.reroute` (``job.incremental``
        is ``True``); when absent — evicted, or never routed here —
        the service falls back to routing the mutated layout from
        scratch (``incremental=False``), so a reroute submission
        always yields a usable result.  Either way the result is
        cached under :func:`~repro.api.rerouting.reroute_cache_key`,
        which is disjoint from the from-scratch key namespace: a
        warm-started result is never served for a plain ``/route`` of
        the mutated layout, or vice versa.
        """
        base_layout, mutated_layout, base_key, key = self._prepare_reroute(request)
        with self._lock:
            self.metrics.record_request()
            prev = self.cache.get(base_key)
            work = self._reroute_work(request, base_layout, mutated_layout, prev)
            self.metrics.record_reroute(incremental=prev is not None)
            return self._admit_locked(key, work=work, incremental=prev is not None)

    def submit_many(self, requests: Sequence[RouteRequest]) -> list[Job]:
        """Admit a batch atomically: all jobs are created, or none.

        The whole batch is hashed first (any malformed request fails
        the batch before admission), then admitted under one lock so
        the window check covers the batch's *new* routing runs as a
        unit — duplicates within the batch coalesce onto the first
        occurrence and cached keys cost no slots, exactly as they
        would submitted one at a time.
        """
        prepared = [self._prepare(r) for r in requests]
        with self._lock:
            for _ in prepared:
                self.metrics.record_request()
            new_keys = {
                key
                for _, key in prepared
                if key not in self._inflight and key not in self.cache
            }
            if self._pending + len(new_keys) > self.queue_limit:
                self.metrics.record_rejected()
                raise QueueFullError(
                    f"admission window full: {self._pending} in flight + "
                    f"{len(new_keys)} new > limit {self.queue_limit}"
                )
            return [
                self._admit_locked(key, work=self._route_work(request, layout))
                for (request, (layout, key)) in zip(requests, prepared)
            ]

    def _prepare(self, request: RouteRequest) -> tuple[Layout, str]:
        """Resolve and hash outside the lock (both can be slow).

        I/O failures on layout references become
        :class:`~repro.errors.RoutingError` so the whole rejection
        surface is the library's hierarchy (HTTP maps it to 400).
        """
        try:
            layout = request.resolve_layout()
        except OSError as exc:
            raise RoutingError(f"cannot resolve request layout: {exc}") from exc
        key = request_cache_key(request, layout=layout)
        return layout, key

    def _prepare_reroute(
        self, request: RerouteRequest
    ) -> tuple[Layout, Layout, str, str]:
        """Resolve, mutate, and hash a reroute outside the lock.

        Applying the delta here means a malformed one (removing a cell
        a surviving net still pins to, moving a cell nobody placed)
        rejects the submission with a 400-mappable error before any
        job exists — the same binary acceptance as :meth:`_prepare`.
        """
        try:
            base_layout = request.base.resolve_layout()
        except OSError as exc:
            raise RoutingError(f"cannot resolve reroute base layout: {exc}") from exc
        mutated_layout = apply_delta(base_layout, request.delta)
        base_key = request_cache_key(request.base, layout=base_layout)
        key = reroute_cache_key(request, base_layout=base_layout)
        return base_layout, mutated_layout, base_key, key

    # ------------------------------------------------------------------
    # Work construction (inline closure + process spec + persistence)
    # ------------------------------------------------------------------
    def _route_work(self, request: RouteRequest, layout: Layout) -> _Work:
        resolved = request.with_layout(layout).to_dict()
        spec = {"kind": "route", "request": resolved}
        return _Work(
            kind="route",
            inline=lambda: self._pipeline.run(request, layout=layout),
            exec_spec=spec,
            persist_spec=spec,
        )

    def _reroute_work(
        self,
        request: RerouteRequest,
        base_layout: Layout,
        mutated_layout: Layout,
        prev: Optional[RouteResult],
    ) -> _Work:
        """Reroute work: warm-started when *prev* exists, else fallback.

        The persisted spec is the reroute document either way — a
        recovered reroute re-resolves its base from the result store,
        so a base that was cached (or arrived) by then warm-starts
        even if the original run had to fall back.
        """
        inlined = RerouteRequest(
            base=request.base.with_layout(base_layout), delta=request.delta
        )
        persist_spec = {"kind": "reroute", "request": inlined.to_dict()}
        if prev is None:
            mutated_request = request.base.with_layout(mutated_layout)
            return _Work(
                kind="reroute",
                inline=lambda: self._pipeline.run(
                    mutated_request, layout=mutated_layout
                ),
                exec_spec={"kind": "route", "request": mutated_request.to_dict()},
                persist_spec=persist_spec,
            )
        return _Work(
            kind="reroute",
            inline=lambda: self._pipeline.reroute(
                request, prev_result=prev, base_layout=base_layout
            ),
            exec_spec={
                "kind": "reroute",
                "request": inlined.to_dict(),
                "prev": prev.to_dict(),
            },
            persist_spec=persist_spec,
        )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit_locked(
        self,
        key: str,
        *,
        work: _Work,
        incremental: Optional[bool] = None,
        job_id: Optional[str] = None,
        enforce_window: bool = True,
    ) -> Job:
        if self._closed:
            raise ServiceError("service is shut down", status=503)
        now = time.time()
        mono = time.monotonic()
        cached = self.cache.get(key)
        if cached is not None:
            self.metrics.record_cache(hit=True)
            job = self._new_job_locked(key, now, mono, job_id=job_id)
            job.cache_hit = True
            job.incremental = incremental
            job.state = "done"
            job.started_at = now
            job.finished_at = now
            job.started_mono = mono
            job.finished_mono = mono
            encoded = self._encoded.get(id(cached))
            job._keep_result(cached, encoded if encoded is not None else _encode(cached))
            job._done.set()
            return job
        self.metrics.record_cache(hit=False)
        inflight = self._inflight.get(key)
        if inflight is not None:
            self.metrics.record_coalesced()
            job = self._new_job_locked(key, now, mono, job_id=job_id)
            job.coalesced = True
            job.incremental = inflight.primary.incremental
            inflight.followers.append(job)
            self._persist_job(job, work)
            return job
        if enforce_window and self._pending >= self.queue_limit:
            self.metrics.record_rejected()
            raise QueueFullError(
                f"admission window full: {self._pending} routing runs in "
                f"flight >= limit {self.queue_limit}"
            )
        job = self._new_job_locked(key, now, mono, job_id=job_id)
        job.incremental = incremental
        self._inflight[key] = _Inflight(primary=job)
        self._pending += 1
        self._persist_job(job, work)
        self._pool.submit(self._run_job, job, key, work)
        return job

    def _persist_job(self, job: Job, work: _Work) -> None:
        """Write the job's resubmission record to the durable log."""
        self.store.jobs.record(
            JobRecord(
                id=job.id,
                key=job.key,
                state=job.state,
                kind=work.kind,
                spec=work.persist_spec,
                submitted_at=job.submitted_at,
            )
        )

    def _new_job_locked(
        self, key: str, now: float, mono: float, *, job_id: Optional[str] = None
    ) -> Job:
        if job_id is None or job_id in self._jobs:
            self._next_id += 1
            job_id = f"job-{self._next_id:06d}"
        job = Job(id=job_id, key=key, submitted_at=now, submitted_mono=mono)
        self._jobs[job.id] = job
        self._prune_jobs_locked()
        return job

    def _prune_jobs_locked(self) -> None:
        """Drop the oldest *terminal* jobs beyond the history bound."""
        excess = len(self._jobs) - self.job_history
        if excess <= 0:
            return
        for job_id in [
            job_id for job_id, job in self._jobs.items() if job.finished
        ][:excess]:
            del self._jobs[job_id]

    # ------------------------------------------------------------------
    # Recovery (startup, before the service takes traffic)
    # ------------------------------------------------------------------
    def _recover_pending(self) -> None:
        """Re-queue whatever a previous process accepted but never ran.

        Records are replayed oldest-first under their original job
        ids, bypassing the admission window (the work was already
        admitted once; 429ing it now would drop accepted jobs).  Keys
        meanwhile satisfied by the shared result store complete as
        cache hits; duplicate keys coalesce exactly like live traffic.
        Every record is prepared first and all are admitted under one
        hold of the lock, as :meth:`submit_many` admits a batch, so a
        recovered run cannot finish before its duplicates are admitted
        (they would then complete as cache hits instead of coalescing).
        Unreplayable records (e.g. written by a newer format) are
        dropped with a warning rather than wedging startup.
        """
        records = self.store.jobs.load_pending()
        if not records:
            return
        for record in records:
            # Re-admission below re-records each row (same id); rows
            # that fail to replay must not wedge every later startup.
            self.store.jobs.delete(record.id)
        admissions = []
        for record in records:
            try:
                admissions.append((record, self._prepare_record(record)))
            except ReproError as exc:
                _drop_unrecoverable(record, exc)
        with self._lock:
            for record, admit in admissions:
                try:
                    admit().recovered = True
                except ReproError as exc:
                    _drop_unrecoverable(record, exc)
                    continue
                self.metrics.record_recovered()

    def _prepare_record(self, record: JobRecord) -> Callable[[], Job]:
        """Resolve one record outside the lock; the returned call admits it.

        The call must run under ``self._lock``.
        """
        self._reserve_id(record.id)
        if record.kind == "route":
            request = RouteRequest.from_dict(record.spec["request"])
            layout, key = self._prepare(request)
            return lambda: self._admit_locked(
                key,
                work=self._route_work(request, layout),
                job_id=record.id,
                enforce_window=False,
            )
        if record.kind == "reroute":
            reroute = RerouteRequest.from_dict(record.spec["request"])
            base_layout, mutated_layout, base_key, key = self._prepare_reroute(
                reroute
            )

            def admit() -> Job:
                prev = self.cache.get(base_key)
                work = self._reroute_work(
                    reroute, base_layout, mutated_layout, prev
                )
                return self._admit_locked(
                    key,
                    work=work,
                    incremental=prev is not None,
                    job_id=record.id,
                    enforce_window=False,
                )

            return admit
        raise RoutingError(f"unknown persisted job kind {record.kind!r}")

    def _reserve_id(self, job_id: str) -> None:
        """Keep fresh ids from colliding with a recovered job's id."""
        prefix, _, suffix = job_id.partition("-")
        if prefix == "job" and suffix.isdigit():
            with self._lock:
                self._next_id = max(self._next_id, int(suffix))

    # ------------------------------------------------------------------
    # Execution (dispatch threads)
    # ------------------------------------------------------------------
    def _run_job(self, job: Job, key: str, work: _Work) -> None:
        with self._lock:
            job.state = "running"
            job.started_at = time.time()
            job.started_mono = time.monotonic()
            self._running += 1
        self.store.jobs.update(job.id, "running")
        try:
            result = self._execute(work)
            encoded = _encode(result)
        except Exception as exc:  # noqa: BLE001 - accepted jobs must terminate, not vanish
            self._finish_job(job, key, None, error=f"{type(exc).__name__}: {exc}")
            return
        self._finish_job(job, key, (result, encoded), error=None)

    def _execute(self, work: _Work) -> RouteResult:
        """Run one admitted work item on the configured tier.

        The process tier executes the JSON spec in a worker process
        (with crash retry — see :class:`ProcessTier`); the thread tier
        runs the closure right here on the dispatch thread.
        """
        if self._tier is not None and work.exec_spec is not None:
            return self._tier.run(work.exec_spec)
        return work.inline()

    def _finish_job(
        self,
        job: Job,
        key: str,
        outcome: Optional[tuple[RouteResult, bytes]],
        *,
        error: Optional[str],
    ) -> None:
        """Finish *job* and its followers: ``outcome`` is the result and
        its :func:`_encode`-d form, or ``None`` when the run failed."""
        result = outcome[0] if outcome is not None else None
        now = time.time()
        mono = time.monotonic()
        with self._lock:
            self._running -= 1
            self._pending -= 1
            inflight = self._inflight.pop(key, None)
            followers = inflight.followers if inflight is not None else []
            if result is not None:
                self.cache.put(key, result)
                if id(result) not in self._encoded:
                    self._encoded[id(result)] = outcome[1]
                    weakref.finalize(result, self._encoded.pop, id(result), None)
                self.metrics.record_completed(mono - (job.started_mono or mono))
            else:
                self.metrics.record_failed()
            for member in (job, *followers):
                member.state = "done" if result is not None else "failed"
                if outcome is not None:
                    member._keep_result(*outcome)
                member.error = error
                if member.started_at is None:
                    # Followers never queued for a worker: their wait
                    # began at submission, so queued=0 and the route
                    # timing is the time spent waiting on the shared
                    # run.  (Backdating to the primary's start would
                    # make queued negative.)
                    member.started_at = member.submitted_at
                    member.started_mono = member.submitted_mono
                member.finished_at = now
                member.finished_mono = mono
                member._done.set()
        for member in (job, *followers):
            self.store.jobs.delete(member.id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        """The live job record, or ``None`` for unknown ids."""
        with self._lock:
            return self._jobs.get(job_id)

    def describe(self, job_id: str, *, include_result: bool = True) -> Optional[dict]:
        """A consistent JSON-ready snapshot of one job (or ``None``)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            return job.as_dict(include_result=include_result)

    def describe_job(self, job: Job, *, include_result: bool = True) -> dict:
        """Snapshot a job the caller already holds.

        Unlike :meth:`describe` this cannot miss: a terminal job may be
        pruned from the id table by a concurrent submission, but the
        live object stays valid — the HTTP handlers use this for jobs
        they just created.
        """
        with self._lock:
            return job.as_dict(include_result=include_result)

    def wait_job(self, job: Job, *, timeout: float = 60.0) -> bool:
        """Block until *job* (held by the caller) is terminal.

        Returns whether the job reached a terminal state within
        *timeout* — prune-proof like :meth:`describe_job`.
        """
        return job._done.wait(timeout)

    def wait(self, job_id: str, *, timeout: float = 60.0) -> Job:
        """Block until *job_id* is terminal; raises on unknown/timeout."""
        job = self.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}", status=404)
        if not job._done.wait(timeout):
            raise ServiceError(
                f"job {job_id} still {job.state} after {timeout:.1f}s", status=504
            )
        return job

    def snapshot(self) -> dict:
        """The ``/metrics`` document: counters, gauges, store stats.

        After :meth:`close` this returns the final pre-shutdown
        snapshot (the store may be gone), so supervisors can log the
        run's totals on the way out.
        """
        with self._lock:
            if self._final_snapshot is not None:
                return dict(self._final_snapshot)
            queue_depth = self._pending - self._running
            running = self._running
            jobs_tracked = len(self._jobs)
        data = self.metrics.snapshot()
        data.update(
            {
                "queue_depth": queue_depth,
                "running": running,
                "jobs_tracked": jobs_tracked,
                "workers": self.workers,
                "queue_limit": self.queue_limit,
                "executor": self.executor,
                "store_backend": self.store.backend,
                "uptime_seconds": time.monotonic() - self._started_mono,
                "cache": self.cache.stats(),
            }
        )
        return data

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, *, wait: bool = True) -> None:
        """Stop admitting work, drain the tiers, and release the store.

        With ``wait=True`` (the graceful path — what SIGTERM takes)
        every already-accepted job runs to a terminal state before the
        store closes, so a clean shutdown leaves an empty job log; an
        abrupt death instead leaves its unfinished rows for the next
        startup's recovery.
        """
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=wait)
        if self._tier is not None:
            self._tier.close(wait=wait)
        final = self.snapshot()
        with self._lock:
            self._final_snapshot = final
        self.store.close()

    def __enter__(self) -> "RoutingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _drop_unrecoverable(record: JobRecord, exc: ReproError) -> None:
    print(
        f"repro.service: dropping unrecoverable job {record.id}: {exc}",
        file=sys.stderr,
    )
