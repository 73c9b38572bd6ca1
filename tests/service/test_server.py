"""The HTTP surface: endpoints, status codes, and the wire contract.

One real ``RoutingServer`` on an ephemeral port per fixture, driven
through the real :class:`repro.service.Client` — these tests cover the
exact bytes-over-TCP path the CI service-smoke job uses.
"""

import threading

import pytest

from repro.errors import QueueFullError, ServiceError
from repro.api import RouteRequest, RouteResult
from repro.service import Client, RoutingService, make_server
from tests.service.conftest import small_layout


@pytest.fixture
def served():
    """(service, client) around a live ephemeral-port HTTP server."""

    def _start(**service_kwargs):
        service = RoutingService(**{"workers": 2, "queue_limit": 8, **service_kwargs})
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = Client(f"http://127.0.0.1:{server.server_address[1]}", timeout=10.0)
        started.append((service, server, thread))
        return service, client

    started: list = []
    yield _start
    for service, server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()


class TestPlumbing:
    def test_healthz(self, served):
        _, client = served()
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2

    def test_strategies_publishes_registry_describe(self, served):
        from repro.api.registry import DEFAULT_REGISTRY
        from repro.api.strategies import BUILTIN_STRATEGIES

        _, client = served()
        described = client.strategies()
        assert described == DEFAULT_REGISTRY.describe()
        for name in BUILTIN_STRATEGIES:
            assert described[name]["params"]  # every built-in is schema'd

    def test_unknown_endpoint_404(self, served):
        _, client = served()
        with pytest.raises(ServiceError) as excinfo:
            client._call("GET", "/nope")
        assert excinfo.value.status == 404

    def test_unknown_job_404(self, served):
        _, client = served()
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-424242")
        assert excinfo.value.status == 404

    def test_invalid_json_body_400(self, served):
        import urllib.request

        _, client = served()
        request = urllib.request.Request(
            client.base_url + "/route", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_malformed_request_document_400(self, served):
        _, client = served()
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"version": 1})  # neither layout nor layout_path
        assert excinfo.value.status == 400

    def test_non_object_config_400_json_error(self, served):
        import json
        import urllib.request

        _, client = served()
        body = RouteRequest(layout=small_layout()).to_dict()
        body["config"] = []
        request = urllib.request.Request(
            client.base_url + "/route",
            data=json.dumps(body).encode("utf-8"),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read().decode("utf-8"))["error"]
        assert "router config must be a JSON object" in error

    def test_out_of_range_strategy_param_400(self, served):
        _, client = served()
        body = RouteRequest(layout=small_layout(), strategy="negotiated").to_dict()
        body["strategy_params"] = {"max_gap": -5}
        with pytest.raises(ServiceError) as excinfo:
            client.submit(body)
        assert excinfo.value.status == 400
        assert "max_gap must be >= 1" in str(excinfo.value)

    def test_zero_corner_epsilon_with_inverted_corner_400(self, served):
        _, client = served()
        body = RouteRequest(layout=small_layout()).to_dict()
        body["config"].update(inverted_corner=True, corner_epsilon=0.0)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(body)
        assert excinfo.value.status == 400
        assert "corner_epsilon must be > 0 with inverted_corner" in str(excinfo.value)

    def test_out_of_range_coordinates_400(self, served):
        _, client = served()
        body = RouteRequest(layout=small_layout()).to_dict()
        layout = body["layout"]
        scale = 2**66
        layout["outline"] = [v * scale for v in layout["outline"]]
        for cell in layout["cells"]:
            cell["rect"] = [v * scale for v in cell["rect"]]
        for net in layout["nets"]:
            for terminal in net["terminals"]:
                for pin in terminal["pins"]:
                    pin["at"] = [v * scale for v in pin["at"]]
        with pytest.raises(ServiceError) as excinfo:
            client.submit(body)
        assert excinfo.value.status == 400
        assert "out of range" in str(excinfo.value)

    def test_fractional_coordinate_400(self, served):
        _, client = served()
        body = RouteRequest(layout=small_layout()).to_dict()
        body["layout"]["nets"][0]["terminals"][0]["pins"][0]["at"][0] += 0.7
        with pytest.raises(ServiceError) as excinfo:
            client.submit(body)
        assert excinfo.value.status == 400
        assert "non-integer" in str(excinfo.value)

    @pytest.mark.parametrize(
        "strategy, params",
        [
            ("negotiated", {"present_weight": 10**400}),
            ("negotiated", {"max_iterations": 10**9}),
            ("two-pass", {"passes": 1}),
            ("two-pass", {"penalty_weight": -1.0}),
        ],
        ids=["huge-float-param", "max-iterations-ceiling", "two-pass-passes", "two-pass-penalty"],
    )
    def test_malformed_strategy_param_400_not_a_failed_job(self, served, strategy, params):
        _, client = served()
        body = RouteRequest(layout=small_layout(), strategy=strategy).to_dict()
        body["strategy_params"] = params
        with pytest.raises(ServiceError) as excinfo:
            client.submit(body)
        assert excinfo.value.status == 400

    def test_malformed_content_length_400(self, served):
        import http.client
        from urllib.parse import urlsplit

        _, client = served()
        address = urlsplit(client.base_url)
        conn = http.client.HTTPConnection(
            address.hostname, address.port, timeout=10
        )
        try:
            conn.putrequest("POST", "/route")
            conn.putheader("Content-Length", "banana")
            conn.endheaders()
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_error_before_body_read_closes_connection(self, served):
        """Erroring with the POST body unread must not leave the bytes
        to be parsed as the next keep-alive request."""
        import http.client
        from urllib.parse import urlsplit

        _, client = served()
        address = urlsplit(client.base_url)
        conn = http.client.HTTPConnection(
            address.hostname, address.port, timeout=10
        )
        try:
            conn.request("POST", "/nope", body=b'{"x": 1}' * 10)
            response = conn.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            conn.close()


class TestRouteEndpoint:
    def test_submit_poll_roundtrip(self, served):
        _, client = served()
        job = client.submit(RouteRequest(layout=small_layout(1)))
        assert job["state"] in ("queued", "running", "done")
        done = client.wait(job["id"], timeout=60)
        assert done["state"] == "done"
        result = RouteResult.from_dict(done["result"])
        assert result.ok and result.verified

    def test_wait_flag_blocks_until_done(self, served):
        _, client = served()
        job = client.submit(RouteRequest(layout=small_layout(2)), wait=True)
        assert job["state"] == "done"
        assert "result" in job

    def test_wait_budget_elapsing_long_polls_202(self, served, gated_registry, gate):
        """An exhausted wait budget answers with the pending job, not
        an error — and the job keeps running server-side."""
        _, client = served(registry=gated_registry)
        job = client.submit(
            RouteRequest(layout=small_layout(1), strategy="gated"),
            wait=True, wait_timeout=0.2,
        )
        assert job["state"] in ("queued", "running")
        gate.release.set()
        assert client.wait(job["id"], timeout=60)["state"] == "done"

    def test_pending_after_budget_raises_504_from_route(
        self, served, gated_registry, gate
    ):
        _, client = served(registry=gated_registry)
        with pytest.raises(ServiceError) as excinfo:
            client.route(
                RouteRequest(layout=small_layout(1), strategy="gated"),
                wait_timeout=0.2,
            )
        assert excinfo.value.status == 504
        gate.release.set()

    def test_repeat_request_is_metrics_visible_cache_hit(self, served):
        _, client = served()
        request = RouteRequest(layout=small_layout(3))
        client.submit(request, wait=True)
        repeat = client.submit(request, wait=True)
        assert repeat["cache_hit"]
        metrics = client.metrics()
        assert metrics["cache_hits"] == 1
        assert metrics["completed"] == 1
        assert metrics["requests"] == 2

    def test_route_convenience_parses_result(self, served):
        _, client = served()
        result = client.route(RouteRequest(layout=small_layout(4)))
        assert isinstance(result, RouteResult)
        assert result.ok

    def test_failed_job_surfaces_error(self, served, gated_registry, gate):
        gate.release.set()
        _, client = served(registry=gated_registry)
        job = client.submit(
            RouteRequest(layout=small_layout(1), strategy="failing"), wait=True
        )
        assert job["state"] == "failed"
        assert "exploded" in job["error"]
        with pytest.raises(ServiceError, match="exploded"):
            client.route(RouteRequest(layout=small_layout(1), strategy="failing"))


class TestBatchEndpoint:
    def test_batch_submits_all(self, served):
        _, client = served()
        jobs = client.submit_batch(
            [RouteRequest(layout=small_layout(seed)) for seed in (5, 6)]
        )
        assert len(jobs) == 2
        for job in jobs:
            assert client.wait(job["id"], timeout=60)["state"] == "done"

    def test_batch_shape_rejected_400(self, served):
        _, client = served()
        with pytest.raises(ServiceError) as excinfo:
            client._call("POST", "/batch", body={"not_requests": []})
        assert excinfo.value.status == 400


class TestBackpressure:
    def test_overload_is_429_with_retry_after(self, served, gated_registry, gate):
        service, client = served(workers=1, queue_limit=1, registry=gated_registry)
        # retry_429=0: this test asserts the raw rejection contract,
        # not the client's retry loop (covered in test_client_retry).
        no_retry = Client(client.base_url, timeout=10.0, retry_429=0)
        blocked = no_retry.submit(
            RouteRequest(layout=small_layout(1), strategy="gated")
        )
        assert gate.started.wait(10)
        with pytest.raises(QueueFullError):
            no_retry.submit(RouteRequest(layout=small_layout(2), strategy="gated"))
        metrics = no_retry.metrics()
        assert metrics["rejected"] == 1
        gate.release.set()
        # The accepted job was never dropped by the rejection.
        assert client.wait(blocked["id"], timeout=60)["state"] == "done"

    def test_client_retries_429_until_window_frees(self, served, gated_registry, gate):
        service, client = served(workers=1, queue_limit=1, registry=gated_registry)
        retrying = Client(
            client.base_url, timeout=10.0, retry_429=50, retry_after_cap=0.05
        )
        blocked = retrying.submit(
            RouteRequest(layout=small_layout(1), strategy="gated")
        )
        assert gate.started.wait(10)
        # Free the window shortly after the retry loop starts spinning;
        # the Event stays set, so the retried submission runs through.
        releaser = threading.Timer(0.2, gate.release.set)
        releaser.start()
        try:
            accepted = retrying.submit(
                RouteRequest(layout=small_layout(2), strategy="gated")
            )
        finally:
            releaser.cancel()
        assert retrying.wait(accepted["id"], timeout=60)["state"] == "done"
        assert retrying.wait(blocked["id"], timeout=60)["state"] == "done"
        assert retrying.metrics()["rejected"] >= 1  # at least one retry happened

    def test_client_retry_exhaustion_still_raises(self, served, gated_registry, gate):
        service, client = served(workers=1, queue_limit=1, registry=gated_registry)
        bounded = Client(
            client.base_url, timeout=10.0, retry_429=2, retry_after_cap=0.02
        )
        blocked = bounded.submit(
            RouteRequest(layout=small_layout(1), strategy="gated")
        )
        assert gate.started.wait(10)
        with pytest.raises(QueueFullError):
            bounded.submit(RouteRequest(layout=small_layout(2), strategy="gated"))
        assert bounded.metrics()["rejected"] == 3  # initial try + 2 retries
        gate.release.set()
        assert bounded.wait(blocked["id"], timeout=60)["state"] == "done"

    def test_retry_after_header_parsing(self, served):
        _, client = served()
        import urllib.error
        from email.message import Message

        def _error(headers: dict) -> urllib.error.HTTPError:
            message = Message()
            for name, value in headers.items():
                message[name] = value
            return urllib.error.HTTPError("http://x", 429, "busy", message, None)

        assert client._retry_after_seconds(_error({"Retry-After": "1"})) == 1.0
        assert client._retry_after_seconds(_error({"Retry-After": "99"})) == 5.0
        assert client._retry_after_seconds(_error({"Retry-After": "junk"})) == 1.0
        assert client._retry_after_seconds(_error({})) == 1.0

    def test_wait_backoff_reaches_terminal(self, served):
        _, client = served()
        job = client.submit(RouteRequest(layout=small_layout(8)))
        done = client.wait(job["id"], timeout=60, poll=0.01, poll_max=0.1)
        assert done["state"] == "done"

    def test_wait_timeout_is_504(self, served, gated_registry, gate):
        service, client = served(workers=1, registry=gated_registry)
        job = client.submit(RouteRequest(layout=small_layout(1), strategy="gated"))
        assert gate.started.wait(10)
        with pytest.raises(ServiceError) as excinfo:
            client.wait(job["id"], timeout=0.3, poll=0.01)
        assert excinfo.value.status == 504
        gate.release.set()
        assert client.wait(job["id"], timeout=60)["state"] == "done"

    def test_metrics_snapshot_shape(self, served):
        _, client = served()
        client.submit(RouteRequest(layout=small_layout(7)), wait=True)
        metrics = client.metrics()
        for key in (
            "requests", "cache_hits", "cache_misses", "coalesced", "rejected",
            "completed", "failed", "queue_depth", "running", "route_samples",
            "route_seconds_p50", "route_seconds_p95", "uptime_seconds", "cache",
            "recovered", "worker_restarts", "job_retries", "executor",
            "store_backend",
        ):
            assert key in metrics, key
        assert metrics["route_seconds_p50"] is not None
        assert metrics["cache"]["entries"] == 1
        assert metrics["cache"]["evictions"] == 0
        assert metrics["executor"] == "thread"
        assert metrics["store_backend"] == "memory"
