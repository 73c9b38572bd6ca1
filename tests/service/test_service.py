"""RoutingService core: lifecycle, admission, cache, coalescing.

These tests exercise the HTTP-independent service object directly;
the wire protocol lives in ``test_server.py``.  Blocking scenarios use
the gated strategy from ``conftest.py`` so concurrency assertions are
deterministic, not timing-dependent.
"""

import gc
import sys
import threading
import weakref

import pytest

from repro.errors import QueueFullError, RoutingError, ServiceError
from repro.api import RouteRequest
from repro.api.pipeline import RoutingPipeline
from repro.service import JOB_STATES, RoutingService
from repro.service import jobs as jobs_module
from tests.service.conftest import small_layout


def make_request(seed=1, **kwargs):
    return RouteRequest(layout=small_layout(seed), **kwargs)


class TestLifecycle:
    def test_submit_runs_to_done(self):
        with RoutingService(workers=1, queue_limit=4) as service:
            job = service.submit(make_request())
            job = service.wait(job.id, timeout=30)
            assert job.state == "done"
            assert job.state in JOB_STATES
            assert job.result is not None and job.result.ok
            assert not job.cache_hit and not job.coalesced
            timings = job.timings()
            assert timings["queued"] is not None and timings["queued"] >= 0
            assert timings["route"] is not None and timings["route"] >= 0
            assert timings["total"] >= timings["route"]

    def test_as_dict_round_trips_result(self):
        from repro.api import RouteResult

        with RoutingService(workers=1, queue_limit=4) as service:
            job = service.wait(service.submit(make_request()).id, timeout=30)
            data = job.as_dict()
            assert data["state"] == "done"
            reparsed = RouteResult.from_dict(data["result"])
            assert reparsed.total_length == job.result.total_length

    def test_unknown_job_is_none(self):
        with RoutingService(workers=1) as service:
            assert service.get("job-999999") is None
            assert service.describe("job-999999") is None
            with pytest.raises(ServiceError) as excinfo:
                service.wait("job-999999")
            assert excinfo.value.status == 404

    def test_malformed_request_rejected_before_admission(self, tmp_path):
        with RoutingService(workers=1) as service:
            request = RouteRequest(layout_path=str(tmp_path / "missing.json"))
            with pytest.raises(RoutingError, match="cannot resolve"):
                service.submit(request)
            assert service.snapshot()["requests"] == 0

    def test_validation_rejected_knobs(self):
        with pytest.raises(RoutingError):
            RoutingService(queue_limit=0)
        with pytest.raises(RoutingError):
            RoutingService(job_history=0)


class TestCache:
    def test_identical_request_is_cache_hit(self):
        with RoutingService(workers=1, queue_limit=4) as service:
            layout = small_layout(1)
            first = service.wait(
                service.submit(RouteRequest(layout=layout)).id, timeout=30
            )
            second = service.submit(RouteRequest(layout=layout))
            assert second.cache_hit and second.state == "done"
            assert second.result is first.result  # shared, content-addressed
            snapshot = service.snapshot()
            assert snapshot["cache_hits"] == 1
            assert snapshot["completed"] == 1  # one actual routing run

    def test_cache_hit_reuses_the_encoded_result(self, monkeypatch):
        with RoutingService(workers=1, queue_limit=4) as service:
            layout = small_layout(1)
            first = service.wait(
                service.submit(RouteRequest(layout=layout)).id, timeout=30
            )
            calls = []
            encode = jobs_module._encode
            monkeypatch.setattr(
                jobs_module, "_encode", lambda result: calls.append(result) or encode(result)
            )
            second = service.submit(RouteRequest(layout=layout))
            assert second.cache_hit
            assert calls == []
            assert second._encoded is first._encoded
            primary = service.describe(first.id)
            hit = service.describe(second.id)
            assert hit["result"] == primary["result"]

    def test_sqlite_cache_hit_encodes_at_most_once(self, monkeypatch, tmp_path):
        store = f"sqlite:{tmp_path / 'store.db'}"
        with RoutingService(workers=1, queue_limit=4, store=store) as service:
            layout = small_layout(1)
            first = service.wait(
                service.submit(RouteRequest(layout=layout)).id, timeout=30
            )
            calls = []
            encode = jobs_module._encode
            monkeypatch.setattr(
                jobs_module, "_encode", lambda result: calls.append(result) or encode(result)
            )
            second = service.submit(RouteRequest(layout=layout))
            assert second.cache_hit
            assert len(calls) <= 1
            assert service.describe(second.id)["result"] == service.describe(first.id)["result"]

    def test_encoded_bytes_go_with_their_result(self):
        # Entries are keyed by id(): one must not outlive its result,
        # or a later result at the same address would serve its bytes.
        with RoutingService(workers=1, queue_limit=8, cache_size=1) as service:
            first = service.wait(service.submit(make_request(seed=1)).id, timeout=30)
            live = weakref.ref(first.result)
            assert list(service._encoded) == [id(live())]
            service.wait(service.submit(make_request(seed=2)).id, timeout=30)
            gc.collect()
            assert live() is None
            assert len(service._encoded) == 1

    def test_reused_bytes_follow_their_result_through_evictions(self):
        # One stored result at a time: every finished run evicts the
        # previous one, whose id() may then name a new result.  Each
        # hit must still serve its own result's bytes.
        # Reruns of a seed differ only in their timings.
        def paths(document: dict) -> dict:
            return {name: tree["paths"] for name, tree in document["route"]["trees"].items()}

        expected = {
            seed: paths(RoutingPipeline().run(make_request(seed=seed)).to_dict())
            for seed in (1, 2, 3)
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with RoutingService(workers=4, queue_limit=64, cache_size=1) as service:
                errors: list[str] = []

                def client(offset: int) -> None:
                    for step in range(12):
                        seed = 1 + (offset + step) % 3
                        job = service.wait(service.submit(make_request(seed=seed)).id, timeout=30)
                        if paths(service.describe(job.id)["result"]) != expected[seed]:
                            errors.append(f"seed {seed}: {job.id} served another result")

                threads = [threading.Thread(target=client, args=(k,)) for k in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert service.snapshot()["cache_hits"] > 0
        finally:
            sys.setswitchinterval(interval)

    def test_nested_param_difference_misses_cache(self, gated_registry, gate):
        """Keys must see *into* strategy_params, not just their top level."""
        gate.release.set()  # gate open: run synchronously
        with RoutingService(
            workers=1, queue_limit=8, registry=gated_registry
        ) as service:
            layout = small_layout(1)
            base = {"strategy": "gated"}
            a = RouteRequest(
                layout=layout, strategy_params={"opts": {"depth": 1}}, **base
            )
            b = RouteRequest(
                layout=layout, strategy_params={"opts": {"depth": 2}}, **base
            )
            a_again = RouteRequest(
                layout=layout, strategy_params={"opts": {"depth": 1}}, **base
            )
            service.wait(service.submit(a).id, timeout=30)
            job_b = service.submit(b)
            assert not job_b.cache_hit  # nested difference => different key
            service.wait(job_b.id, timeout=30)
            assert service.submit(a_again).cache_hit  # nested equality => hit
            assert gate.runs == 2

    def test_cache_size_zero_reroutes_every_time(self):
        with RoutingService(workers=1, queue_limit=4, cache_size=0) as service:
            layout = small_layout(1)
            service.wait(service.submit(RouteRequest(layout=layout)).id, timeout=30)
            second = service.submit(RouteRequest(layout=layout))
            assert not second.cache_hit
            service.wait(second.id, timeout=30)
            assert service.snapshot()["completed"] == 2


class TestAdmission:
    def test_overload_raises_429_and_drops_no_accepted_job(self, gated_registry, gate):
        with RoutingService(
            workers=1, queue_limit=2, registry=gated_registry
        ) as service:
            running = service.submit(make_request(seed=1, strategy="gated"))
            assert gate.started.wait(10)
            queued = service.submit(make_request(seed=2, strategy="gated"))
            with pytest.raises(QueueFullError) as excinfo:
                service.submit(make_request(seed=3, strategy="gated"))
            assert excinfo.value.status == 429
            # The rejection left no job behind...
            snapshot = service.snapshot()
            assert snapshot["rejected"] == 1
            assert snapshot["jobs_tracked"] == 2
            # ...and both accepted jobs still complete.
            gate.release.set()
            assert service.wait(running.id, timeout=30).state == "done"
            assert service.wait(queued.id, timeout=30).state == "done"
            assert service.snapshot()["completed"] == 2

    def test_window_frees_after_completion(self, gated_registry, gate):
        gate.release.set()
        with RoutingService(
            workers=1, queue_limit=1, registry=gated_registry
        ) as service:
            first = service.submit(make_request(seed=1, strategy="gated"))
            service.wait(first.id, timeout=30)
            second = service.submit(make_request(seed=2, strategy="gated"))
            assert service.wait(second.id, timeout=30).state == "done"

    def test_batch_admission_is_atomic(self, gated_registry, gate):
        with RoutingService(
            workers=1, queue_limit=2, registry=gated_registry
        ) as service:
            requests = [
                make_request(seed=seed, strategy="gated") for seed in (1, 2, 3)
            ]
            with pytest.raises(QueueFullError):
                service.submit_many(requests)
            assert service.snapshot()["jobs_tracked"] == 0  # none admitted
            jobs = service.submit_many(requests[:2])
            gate.release.set()
            for job in jobs:
                assert service.wait(job.id, timeout=30).state == "done"

    def test_batch_duplicates_count_one_slot(self, gated_registry, gate):
        gate.release.set()
        with RoutingService(
            workers=1, queue_limit=1, registry=gated_registry
        ) as service:
            layout = small_layout(1)
            duplicates = [
                RouteRequest(layout=layout, strategy="gated") for _ in range(3)
            ]
            jobs = service.submit_many(duplicates)  # 3 requests, 1 slot needed
            for job in jobs:
                assert service.wait(job.id, timeout=30).state == "done"
            assert gate.runs == 1
            assert [job.coalesced for job in jobs] == [False, True, True]


class TestCoalescing:
    def test_concurrent_identical_requests_share_one_run(self, gated_registry, gate):
        with RoutingService(
            workers=2, queue_limit=4, registry=gated_registry
        ) as service:
            layout = small_layout(1)
            primary = service.submit(RouteRequest(layout=layout, strategy="gated"))
            assert gate.started.wait(10)
            follower = service.submit(RouteRequest(layout=layout, strategy="gated"))
            assert follower.coalesced and follower.id != primary.id
            gate.release.set()
            done_primary = service.wait(primary.id, timeout=30)
            done_follower = service.wait(follower.id, timeout=30)
            assert gate.runs == 1
            assert done_follower.result is done_primary.result
            snapshot = service.snapshot()
            assert snapshot["coalesced"] == 1
            assert snapshot["completed"] == 1
            # Follower timings stay sane: its wait began at submission,
            # never before (backdating would make queued negative).
            timings = done_follower.timings()
            assert timings["queued"] == 0.0
            assert timings["route"] is not None and timings["route"] >= 0
            assert abs(timings["total"] - timings["route"]) < 1e-9

    def test_failure_fans_out_to_followers(self, gated_registry, gate):
        with RoutingService(
            workers=1, queue_limit=4, registry=gated_registry
        ) as service:
            layout = small_layout(1)
            primary = service.submit(RouteRequest(layout=layout, strategy="failing"))
            assert gate.started.wait(10)
            follower = service.submit(RouteRequest(layout=layout, strategy="failing"))
            gate.release.set()
            assert service.wait(primary.id, timeout=30).state == "failed"
            done_follower = service.wait(follower.id, timeout=30)
            assert done_follower.state == "failed"
            assert "exploded" in done_follower.error
            snapshot = service.snapshot()
            assert snapshot["failed"] == 1
            # The window slot was released; new work is admitted and runs.
            retry = service.submit(make_request(seed=9))
            assert service.wait(retry.id, timeout=30).state == "done"


class TestHistory:
    def test_terminal_jobs_pruned_but_inflight_kept(self, gated_registry, gate):
        gate.release.set()
        with RoutingService(
            workers=1, queue_limit=8, registry=gated_registry, job_history=2
        ) as service:
            finished = []
            for seed in (1, 2, 3):
                job = service.submit(make_request(seed=seed, strategy="gated"))
                service.wait(job.id, timeout=30)
                finished.append(job.id)
            assert service.get(finished[0]) is None  # oldest pruned
            assert service.get(finished[-1]) is not None

    def test_history_does_not_keep_evicted_results_alive(self):
        # The result store holds one result; the job history holds all
        # three jobs.  The first job's live result goes with its store
        # entry, while its record still serves an equal result.
        with RoutingService(workers=1, queue_limit=8, cache_size=1) as service:
            first = service.wait(service.submit(make_request(seed=1)).id, timeout=30)
            live = weakref.ref(first.result)
            original = first.result.to_dict()
            for seed in (2, 3):
                service.wait(service.submit(make_request(seed=seed)).id, timeout=30)
            gc.collect()
            assert live() is None
            assert service.describe(first.id)["result"] == original
            assert first.result.to_dict() == original
