"""The store subsystem: spec parsing, both backends, and recovery.

Backend-shared contracts run against memory and sqlite through the
same parametrized tests; the sqlite-only durability properties
(results surviving reopen, the job log driving startup recovery) and
the service-level recovery semantics get their own classes.
"""

import time

import pytest

from repro.errors import RoutingError, ServiceError
from repro.api.canonical import request_cache_key
from repro.api.pipeline import RoutingPipeline
from repro.api.request import RouteRequest
from repro.service import RoutingService
from repro.service.store import (
    JobRecord,
    MemoryJobStore,
    MemoryResultStore,
    STORE_BACKENDS,
    make_store,
    parse_store_spec,
)
from tests.service.conftest import small_layout


def routed(seed: int = 1):
    """(request, key, result) for a small layout, routed in-process."""
    layout = small_layout(seed)
    request = RouteRequest(layout=layout)
    key = request_cache_key(request, layout=layout)
    return request, key, RoutingPipeline().run(request)


@pytest.fixture(params=list(STORE_BACKENDS))
def store(request, tmp_path):
    spec = (
        "memory"
        if request.param == "memory"
        else f"sqlite:{tmp_path / 'store.db'}"
    )
    handle = make_store(spec, cache_size=4)
    yield handle
    handle.close()


class TestSpecParsing:
    def test_memory(self):
        assert parse_store_spec("memory") == ("memory", None)

    def test_sqlite_with_path(self):
        assert parse_store_spec("sqlite:/tmp/x.db") == ("sqlite", "/tmp/x.db")

    @pytest.mark.parametrize("bad", ["", "sqlite", "sqlite:", "redis:host"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(RoutingError):
            parse_store_spec(bad)

    def test_make_store_backends(self, tmp_path):
        assert make_store("memory").backend == "memory"
        handle = make_store(f"sqlite:{tmp_path / 's.db'}")
        assert handle.backend == "sqlite"
        handle.close()


class TestResultStoreContract:
    """Behavior both backends must share."""

    def test_roundtrip_and_stats(self, store):
        request, key, result = routed(1)
        assert store.results.get(key) is None
        store.results.put(key, result)
        fetched = store.results.get(key)
        assert fetched is not None
        assert fetched.to_dict() == result.to_dict()
        stats = store.results.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["backend"] == store.backend

    def test_lru_eviction_order(self, store):
        entries = [routed(seed) for seed in range(1, 6)]  # capacity is 4
        for _, key, result in entries[:4]:
            store.results.put(key, result)
        # Touch the oldest so the second-oldest becomes the victim.
        assert store.results.get(entries[0][1]) is not None
        _, key5, result5 = entries[4]
        store.results.put(key5, result5)
        assert store.results.get(entries[1][1]) is None  # evicted
        assert store.results.get(entries[0][1]) is not None  # kept (touched)
        assert store.results.stats()["evictions"] == 1

    def test_zero_capacity_disables(self, tmp_path, store):
        if store.backend == "memory":
            disabled = MemoryResultStore(max_entries=0)
        else:
            disabled = make_store(
                f"sqlite:{tmp_path / 'zero.db'}", cache_size=0
            ).results
        request, key, result = routed(2)
        disabled.put(key, result)
        assert disabled.get(key) is None
        assert len(disabled) == 0

    def test_clear(self, store):
        _, key, result = routed(3)
        store.results.put(key, result)
        store.results.clear()
        assert len(store.results) == 0
        assert store.results.get(key) is None


class TestJobStoreContract:
    def test_record_update_delete_pending(self, store):
        record = JobRecord(
            id="job-000001",
            key="k1",
            state="queued",
            kind="route",
            spec={"kind": "route", "request": {}},
            submitted_at=time.time(),
        )
        store.jobs.record(record)
        store.jobs.update("job-000001", "running")
        pending = store.jobs.load_pending()
        assert [r.id for r in pending] == ["job-000001"]
        assert pending[0].state == "running"
        assert pending[0].spec == {"kind": "route", "request": {}}
        store.jobs.delete("job-000001")
        assert store.jobs.load_pending() == []

    def test_pending_ordered_by_submission(self, store):
        base = time.time()
        for offset, job_id in ((2, "job-000003"), (0, "job-000001"), (1, "job-000002")):
            store.jobs.record(
                JobRecord(
                    id=job_id,
                    key=f"k-{job_id}",
                    state="queued",
                    kind="route",
                    spec={},
                    submitted_at=base + offset,
                )
            )
        assert [r.id for r in store.jobs.load_pending()] == [
            "job-000001", "job-000002", "job-000003",
        ]

    def test_delete_unknown_is_noop(self, store):
        store.jobs.delete("job-999999")  # must not raise


class TestSqliteDurability:
    def test_results_survive_reopen(self, tmp_path):
        spec = f"sqlite:{tmp_path / 'durable.db'}"
        request, key, result = routed(4)
        first = make_store(spec)
        first.results.put(key, result)
        first.close()
        second = make_store(spec)
        fetched = second.results.get(key)
        assert fetched is not None
        assert fetched.to_dict() == result.to_dict()
        second.close()

    def test_closed_store_raises(self, tmp_path):
        handle = make_store(f"sqlite:{tmp_path / 'closed.db'}")
        handle.close()
        with pytest.raises(ServiceError):
            handle.results.get("anything")

    def test_close_is_idempotent(self, tmp_path):
        handle = make_store(f"sqlite:{tmp_path / 'twice.db'}")
        handle.close()
        handle.close()


class TestServicePersistence:
    """The service's use of the store: logging, recovery, reuse."""

    def test_clean_shutdown_leaves_empty_job_log(self, tmp_path):
        spec = f"sqlite:{tmp_path / 'svc.db'}"
        with RoutingService(workers=1, store=spec) as service:
            job = service.submit(RouteRequest(layout=small_layout(1)))
            assert service.wait(job.id, timeout=60).state == "done"
        audit = make_store(spec)
        assert audit.jobs.load_pending() == []
        audit.close()

    def test_cached_result_survives_restart(self, tmp_path):
        spec = f"sqlite:{tmp_path / 'svc.db'}"
        request = RouteRequest(layout=small_layout(2))
        with RoutingService(workers=1, store=spec) as service:
            first = service.wait(service.submit(request).id, timeout=60)
            assert first.state == "done"
        with RoutingService(workers=1, store=spec) as service:
            again = service.submit(request)
            assert again.cache_hit
            assert again.state == "done"
            assert again.result.to_dict() == first.result.to_dict()
            assert service.snapshot()["cache"]["hits"] == 1

    def test_startup_recovers_pending_jobs(self, tmp_path):
        spec = f"sqlite:{tmp_path / 'svc.db'}"
        layout = small_layout(3)
        request = RouteRequest(layout=layout).with_layout(layout)
        orphans = make_store(spec)
        for job_id, state in (("job-000005", "queued"), ("job-000006", "running")):
            orphans.jobs.record(
                JobRecord(
                    id=job_id,
                    key=f"key-{job_id}",
                    state=state,
                    kind="route",
                    spec={"kind": "route", "request": request.to_dict()},
                    submitted_at=time.time(),
                )
            )
        orphans.close()

        with RoutingService(workers=1, store=spec) as service:
            assert service.metrics.snapshot()["recovered"] == 2
            # Original ids are preserved and pollable; the duplicate
            # key coalesces instead of routing twice.
            first = service.wait("job-000005", timeout=60)
            second = service.wait("job-000006", timeout=60)
            assert first.state == "done"
            assert second.state == "done"
            assert first.recovered and second.recovered
            assert second.coalesced or first.coalesced
            # Fresh ids continue past the recovered ones.
            fresh = service.submit(RouteRequest(layout=small_layout(9)))
            assert fresh.id == "job-000007"

    def test_recovered_duplicates_coalesce_however_slow_preparation_is(
        self, tmp_path, monkeypatch
    ):
        # Preparing the second record takes long enough for the first
        # recovered run to finish, were it admitted before the second
        # was prepared; the duplicate must still coalesce onto it.
        spec = f"sqlite:{tmp_path / 'svc.db'}"
        layout = small_layout(3)
        request = RouteRequest(layout=layout).with_layout(layout)
        orphans = make_store(spec)
        for job_id in ("job-000005", "job-000006"):
            orphans.jobs.record(
                JobRecord(
                    id=job_id,
                    key=f"key-{job_id}",
                    state="queued",
                    kind="route",
                    spec={"kind": "route", "request": request.to_dict()},
                    submitted_at=time.time(),
                )
            )
        orphans.close()
        prepare = RoutingService._prepare
        calls = []

        def slow_second_prepare(service, req):
            calls.append(req)
            if len(calls) == 2:
                time.sleep(0.5)
            return prepare(service, req)

        monkeypatch.setattr(RoutingService, "_prepare", slow_second_prepare)
        with RoutingService(workers=1, store=spec) as service:
            first = service.wait("job-000005", timeout=60)
            second = service.wait("job-000006", timeout=60)
            assert len(calls) == 2
            assert (first.state, second.state) == ("done", "done")
            assert not first.coalesced and second.coalesced
            assert not second.cache_hit
            assert service.metrics.snapshot()["recovered"] == 2

    def test_startup_recovers_jobs_carrying_retired_config_keys(self, tmp_path):
        # Jobs persisted while ``engine`` and ``ray_cache`` were config
        # knobs must survive the upgrade under their original ids.
        spec = f"sqlite:{tmp_path / 'svc.db'}"
        layout = small_layout(5)
        document = RouteRequest(layout=layout).with_layout(layout).to_dict()
        document["config"].update({"engine": "native", "ray_cache": False})
        orphans = make_store(spec)
        orphans.jobs.record(
            JobRecord(
                id="job-000012",
                key="key-job-000012",
                state="queued",
                kind="route",
                spec={"kind": "route", "request": document},
                submitted_at=time.time(),
            )
        )
        orphans.close()

        with pytest.warns(UserWarning, match="retired router config key"):
            service = RoutingService(workers=1, store=spec)
        with service:
            assert service.metrics.snapshot()["recovered"] == 1
            job = service.wait("job-000012", timeout=60)
            assert job.state == "done"
            assert job.recovered
            assert job.result.verified and not job.result.violations

    def test_unreplayable_record_is_dropped_not_fatal(self, tmp_path, capsys):
        spec = f"sqlite:{tmp_path / 'svc.db'}"
        orphans = make_store(spec)
        orphans.jobs.record(
            JobRecord(
                id="job-000001",
                key="k",
                state="queued",
                kind="teleport",  # unknown kind: written by a future format
                spec={},
                submitted_at=time.time(),
            )
        )
        orphans.close()
        with RoutingService(workers=1, store=spec) as service:
            assert service.metrics.snapshot()["recovered"] == 0
            assert service.get("job-000001") is None
        audit = make_store(spec)
        assert audit.jobs.load_pending() == []  # dropped, not wedged
        audit.close()

    def test_memory_store_is_not_durable(self):
        with RoutingService(workers=1, store="memory") as service:
            job = service.submit(RouteRequest(layout=small_layout(4)))
            assert service.wait(job.id, timeout=60).state == "done"
        with RoutingService(workers=1, store="memory") as service:
            again = service.submit(RouteRequest(layout=small_layout(4)))
            assert not again.cache_hit

    def test_memory_job_store_recovery_path(self):
        """The recovery machinery itself is backend-agnostic."""
        from repro.service.store import Store

        layout = small_layout(5)
        request = RouteRequest(layout=layout).with_layout(layout)
        jobs = MemoryJobStore()
        jobs.record(
            JobRecord(
                id="job-000042",
                key="k",
                state="running",
                kind="route",
                spec={"kind": "route", "request": request.to_dict()},
                submitted_at=time.time(),
            )
        )
        store = Store(
            results=MemoryResultStore(max_entries=8),
            jobs=jobs,
            backend="memory",
            spec="memory",
        )
        with RoutingService(workers=1, store=store) as service:
            assert service.wait("job-000042", timeout=60).state == "done"
            assert service.snapshot()["recovered"] == 1
