"""HTTP API tests: routing, status codes, jobs, drain semantics."""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.observability.metrics import get_registry as get_metrics_registry
from repro.service.handlers import RequestHandlers
from repro.service.http import ServiceConfig, TuningServer, _Handler
from repro.service.registry import ModelRegistry
from repro.service.scheduler import Scheduler
from tests.service_helpers import make_bundle


@pytest.fixture(autouse=True)
def fresh_metrics():
    get_metrics_registry().reset()
    yield
    get_metrics_registry().reset()


@pytest.fixture
def server():
    srv = TuningServer(ServiceConfig(port=0, workers=2, queue_size=16))
    srv.registry.put("prod", make_bundle())
    with srv:
        yield srv


def request_json(url, method="GET", body=None):
    """Raw HTTP helper returning (status, parsed_json)."""
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=10.0) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode()
        return exc.code, (json.loads(detail) if detail else {})


class TestHealthAndMetrics:
    def test_healthz(self, server):
        status, doc = request_json(server.url + "/healthz")
        assert (status, doc) == (200, {"status": "ok"})

    def test_readyz_ready(self, server):
        status, doc = request_json(server.url + "/readyz")
        assert (status, doc["status"]) == (200, "ready")

    def test_metrics_is_prometheus_text(self, server):
        request_json(server.url + "/v1/tune", "POST", {
            "model": "prod", "arch": "broadwell", "stage": "compress",
        })
        with urllib.request.urlopen(server.url + "/metrics", timeout=10.0) as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            body = resp.read().decode()
        assert "# TYPE repro_service_requests_total counter" in body
        assert (
            'repro_service_requests_total{endpoint="tune",status="ok"} 1'
            in body
        )

    def test_unknown_route_404(self, server):
        status, doc = request_json(server.url + "/v2/nothing")
        assert (status, doc["error"]) == (404, "not_found")


class TestModels:
    def test_list_and_get(self, server):
        status, doc = request_json(server.url + "/v1/models")
        assert status == 200
        assert [m["name"] for m in doc["models"]] == ["prod"]
        status, entry = request_json(server.url + "/v1/models/prod")
        assert (status, entry["version"]) == (200, 1)
        status, entry = request_json(server.url + "/v1/models/prod?version=1")
        assert status == 200

    def test_put_registers_new_version(self, server):
        doc = json.loads(make_bundle(a=0.009).to_json())
        status, entry = request_json(
            server.url + "/v1/models/prod", "PUT", doc
        )
        assert (status, entry["version"]) == (200, 2)

    def test_put_invalid_bundle_400(self, server):
        status, doc = request_json(
            server.url + "/v1/models/prod", "PUT", {"schema_version": 99}
        )
        assert (status, doc["error"]) == (400, "bad_request")

    def test_unknown_model_404(self, server):
        status, doc = request_json(server.url + "/v1/models/ghost")
        assert (status, doc["error"]) == (404, "not_found")


class TestTune:
    def test_tune_optimal(self, server):
        status, doc = request_json(server.url + "/v1/tune", "POST", {
            "model": "prod", "arch": "broadwell", "stage": "compress",
            "objective": "energy",
        })
        assert status == 200
        assert doc["model"] == "prod" and doc["version"] == 1
        assert 0.8 <= doc["freq_ghz"] <= 2.0
        assert doc["objective"] == "energy"

    def test_tune_eqn3(self, server):
        status, doc = request_json(server.url + "/v1/tune", "POST", {
            "model": "prod", "arch": "broadwell", "stage": "compress",
            "policy": "eqn3",
        })
        assert status == 200
        assert doc["freq_ghz"] == 1.75  # 0.875 * 2.0 GHz snapped

    def test_bad_json_400(self, server):
        req = urllib.request.Request(
            server.url + "/v1/tune", data=b"{nope", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10.0)
        assert err.value.code == 400

    def test_unknown_field_400(self, server):
        status, doc = request_json(server.url + "/v1/tune", "POST", {
            "model": "prod", "arch": "broadwell", "stage": "compress",
            "objectiv": "energy",
        })
        assert (status, doc["error"]) == (400, "bad_request")
        assert "objectiv" in doc["message"]

    def test_unknown_model_404(self, server):
        status, doc = request_json(server.url + "/v1/tune", "POST", {
            "model": "ghost", "arch": "broadwell", "stage": "compress",
        })
        assert (status, doc["error"]) == (404, "not_found")

    def test_unknown_arch_404(self, server):
        status, doc = request_json(server.url + "/v1/tune", "POST", {
            "model": "prod", "arch": "zen4", "stage": "compress",
        })
        assert status == 404

    def test_bad_stage_400(self, server):
        status, doc = request_json(server.url + "/v1/tune", "POST", {
            "model": "prod", "arch": "broadwell", "stage": "transmogrify",
        })
        assert status == 400


class TestDecide:
    def test_decide_contended_write_compresses(self, server):
        status, doc = request_json(server.url + "/v1/decide", "POST", {
            "arch": "skylake", "ratio": 4.0, "error_bound": 1e-3,
            "nbytes": 10**9, "clients": 64, "criterion": "time",
        })
        assert status == 200
        assert doc["decision"] == "compress"
        assert doc["compressed"]["time_s"] < doc["raw"]["time_s"]
        assert doc["breakeven_bandwidth_bps"] > 0

    def test_decide_fat_link_writes_raw(self, server):
        status, doc = request_json(server.url + "/v1/decide", "POST", {
            "arch": "skylake", "ratio": 1.05, "error_bound": 1e-6,
            "nbytes": 10**9, "clients": 1,
        })
        assert status == 200
        assert doc["decision"] == "raw-write"

    def test_bad_ratio_400(self, server):
        status, doc = request_json(server.url + "/v1/decide", "POST", {
            "arch": "skylake", "ratio": -1.0, "error_bound": 1e-3,
            "nbytes": 100,
        })
        assert status == 400


class TestAdmissionOverHttp:
    def test_full_queue_answers_429_with_retry_after(self):
        gate = threading.Event()
        registry = ModelRegistry()
        real = RequestHandlers(registry)

        def stalling(kind, payload):
            if payload.get("_stall"):
                gate.wait(15.0)
                return {"stalled": True}
            return real(kind, payload)

        server = TuningServer(
            ServiceConfig(port=0, workers=1, queue_size=1, batch_max=1),
            registry=registry,
            scheduler=Scheduler(stalling, queue_size=1, workers=1, batch_max=1),
        )
        server.registry.put("prod", make_bundle())
        with server:
            results = {}

            def post(tag, body):
                results[tag] = request_json(
                    server.url + "/v1/tune", "POST", body
                )

            stall_thread = threading.Thread(
                target=post, args=("stall", {"_stall": True})
            )
            stall_thread.start()
            time.sleep(0.2)  # dispatcher now stuck; queue empty
            fill_thread = threading.Thread(
                target=post,
                args=("fill", {"model": "prod", "arch": "broadwell",
                               "stage": "compress"}),
            )
            fill_thread.start()
            time.sleep(0.2)  # queue now holds the fill request
            req = urllib.request.Request(
                server.url + "/v1/tune",
                data=json.dumps({"model": "prod", "arch": "broadwell",
                                 "stage": "write"}).encode(),
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10.0)
            assert err.value.code == 429
            assert err.value.headers["Retry-After"] is not None
            body = json.loads(err.value.read().decode())
            assert body["error"] == "queue_full"
            gate.set()
            stall_thread.join(15.0)
            fill_thread.join(15.0)
            # The accepted requests were served despite the reject.
            assert results["stall"][0] == 200
            assert results["fill"][0] == 200


class TestJobs:
    def test_characterize_job_lifecycle(self, server):
        status, doc = request_json(server.url + "/v1/characterize", "POST", {
            "model": "fitted", "repeats": 1, "stride": 8, "scale": 64,
        })
        assert status == 202
        job_id = doc["job_id"]
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            status, job = request_json(server.url + f"/v1/jobs/{job_id}")
            assert status == 200
            if job["state"] in ("succeeded", "failed"):
                break
            time.sleep(0.1)
        assert job["state"] == "succeeded", job
        assert job["result"]["name"] == "fitted"
        assert job["result"]["version"] == 1
        # The fitted bundle is immediately servable.
        status, doc = request_json(server.url + "/v1/tune", "POST", {
            "model": "fitted", "arch": "broadwell", "stage": "compress",
        })
        assert status == 200

    def test_bad_characterize_fails_before_202(self, server):
        status, doc = request_json(server.url + "/v1/characterize", "POST", {
            "model": "x", "curve": "imaginary",
        })
        assert (status, doc["error"]) == (400, "bad_request")

    def test_unknown_job_404(self, server):
        status, doc = request_json(server.url + "/v1/jobs/deadbeef")
        assert (status, doc["error"]) == (404, "not_found")


class TestDrain:
    def test_drain_flips_readyz_and_refuses_new_work(self):
        server = TuningServer(ServiceConfig(port=0, workers=2))
        server.registry.put("prod", make_bundle())
        server.start()
        assert request_json(server.url + "/healthz")[0] == 200
        assert server.drain(30.0)
        # The listener is closed; nothing should answer any more.
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            urllib.request.urlopen(server.url + "/readyz", timeout=2.0)

    def test_drain_completes_accepted_job(self):
        server = TuningServer(ServiceConfig(port=0, workers=2))
        started = threading.Event()
        done = threading.Event()

        def slow_job():
            started.set()
            time.sleep(0.3)
            done.set()
            return {"ok": True}

        with server:
            job = server.jobs.submit("test", slow_job)
            started.wait(5.0)
            assert server.drain(30.0)
        assert done.is_set()
        assert server.jobs.get(job.id).state == "succeeded"


class _CountingWriter:
    """Wraps a handler's wfile and logs the size of every write."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log

    def write(self, data):
        self._log.append(len(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestOneWritePerReply:
    def test_kept_alive_replies_are_single_writes(self, monkeypatch):
        writes = []
        connections = []
        real_setup = _Handler.setup

        def counting_setup(handler):
            real_setup(handler)
            connections.append(handler)
            handler.wfile = _CountingWriter(handler.wfile, writes)

        monkeypatch.setattr(_Handler, "setup", counting_setup)
        srv = TuningServer(ServiceConfig(port=0, workers=1, queue_size=4))
        srv.registry.put("prod", make_bundle())
        with srv:
            host, port = srv.address
            conn = http.client.HTTPConnection(host, port, timeout=10.0)
            try:
                replies = []
                for method, path, body in (
                    ("GET", "/healthz", None),
                    ("GET", "/metrics", None),
                    ("POST", "/v1/tune", {"model": "prod",
                                          "arch": "broadwell",
                                          "stage": "compress"}),
                    ("GET", "/v1/nope", None),
                ):
                    payload = None if body is None else json.dumps(body)
                    conn.request(method, path, body=payload)
                    resp = conn.getresponse()
                    data = resp.read()
                    replies.append((resp.status, len(data)))
            finally:
                conn.close()
        assert [status for status, _ in replies] == [200, 200, 200, 404]
        # One connection carried every request, one write per reply,
        # and each write holds the whole body.
        assert len(connections) == 1
        assert len(writes) == len(replies)
        assert all(w > n for w, (_, n) in zip(writes, replies))
