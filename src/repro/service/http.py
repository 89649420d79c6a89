"""The HTTP face of the tuning service (stdlib ``ThreadingHTTPServer``).

Routes
------

====== ========================== =========================================
method path                        semantics
====== ========================== =========================================
GET    /healthz                    liveness: 200 while the process runs
GET    /readyz                     readiness: 200 accepting, 503 draining
GET    /metrics                    Prometheus text exposition
GET    /v1/models                  registry listing
PUT    /v1/models/<name>           register a bundle JSON (idempotent)
GET    /v1/models/<name>           latest entry (+``?version=N``)
POST   /v1/tune                    frequency recommendation (scheduled)
POST   /v1/decide                  compress-vs-raw break-even (scheduled)
POST   /v1/govern                  online governor session: observe + decide
POST   /v1/powercap                cluster power-cap session: join/leave + caps
POST   /v1/characterize            async job; 202 + job id
GET    /v1/jobs/<id>               job state/result
====== ========================== =========================================

``/v1/tune`` and ``/v1/decide`` go through the
:class:`~repro.service.scheduler.Scheduler` — admission control (429),
coalescing, deadlines (504) — while reads answer inline. Connection
handling is ``ThreadingHTTPServer``'s thread-per-connection; the
scheduler's bounded queue, not the accept loop, is the service's
backpressure point.

Graceful drain (:meth:`TuningServer.drain`): readiness flips to 503,
new scheduled work and jobs are refused, the scheduler runs its queue
dry, the job manager joins every accepted job, then the listener stops.
Nothing accepted before the drain began is lost. A server that never
served drains without waiting for a loop, and a serve loop started
after the drain began returns at once.

Every POST route rejects unknown top-level fields with a 400, as
:mod:`repro.service.handlers` explains: a mistyped optional field would
otherwise misconfigure the session silently.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.cache import fingerprint, get_cache
from repro.hardware.cpu import get_cpu
from repro.observability.exporters import prometheus_text
from repro.observability.metrics import get_registry as get_metrics_registry
from repro.service.errors import (
    BadRequestError,
    NotFoundError,
    ServiceClosedError,
    ServiceError,
)
from repro.service.handlers import RequestHandlers, _check_fields
from repro.service.jobs import JobManager
from repro.service.registry import ModelRegistry
from repro.service.scheduler import Scheduler

__all__ = ["ServiceConfig", "TuningServer"]

_MAX_BODY_BYTES = 8 << 20  # a bundle JSON is ~10 KB; 8 MiB is generous


class ServiceConfig:
    """Deployment knobs for one :class:`TuningServer`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        queue_size: int = 64,
        batch_max: int = 16,
        default_deadline_s: Optional[float] = 30.0,
        max_pending_jobs: int = 4,
        registry_cache: int = 8,
        cache_enabled: bool = True,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.workers = int(workers)
        self.queue_size = int(queue_size)
        self.batch_max = int(batch_max)
        self.default_deadline_s = default_deadline_s
        self.max_pending_jobs = int(max_pending_jobs)
        self.registry_cache = int(registry_cache)
        #: Consult the process result cache for tune/decide responses.
        self.cache_enabled = bool(cache_enabled)


class _Handler(BaseHTTPRequestHandler):
    """Routes one connection's requests into the owning server."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-tuning-service"

    # BaseHTTPRequestHandler logs to stderr per request by default;
    # a service's request log is its metrics, so keep stdio quiet.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def service(self) -> "TuningServer":
        return self.server.service  # type: ignore[attr-defined]

    def _send(self, status: int, content_type: str, body: bytes,
              extra_headers: Optional[Dict[str, str]] = None) -> None:
        """Write the status line, headers and body in one ``write``.

        Sent separately, a kept-alive connection holds the body back
        behind Nagle's algorithm until the client's delayed ACK of the
        headers, about 40 ms per reply.
        """
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra_headers or {}).items():
            self.send_header(key, value)
        # end_headers() would flush the buffered head on its own.
        if self.request_version != "HTTP/0.9":
            self._headers_buffer.append(b"\r\n")
        head = b"".join(getattr(self, "_headers_buffer", ()))
        self._headers_buffer = []
        self.wfile.write(head + body)

    def _send_json(self, status: int, doc: Dict[str, Any],
                   extra_headers: Optional[Dict[str, str]] = None) -> None:
        body = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
        self._send(status, "application/json", body, extra_headers)

    def _send_error(self, exc: ServiceError) -> None:
        headers = {"Retry-After": "1"} if exc.retryable else None
        self._send_json(
            exc.status, {"error": exc.code, "message": str(exc)}, headers
        )

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            raise BadRequestError(
                f"request body too large ({length} bytes > {_MAX_BODY_BYTES})"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequestError(f"request body is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise BadRequestError("request body must be a JSON object")
        return doc

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        path, query = split.path.rstrip("/") or "/", parse_qs(split.query)
        try:
            self.service.route(self, method, path, query)
        except ServiceError as exc:
            self._send_error(exc)
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:  # defensive: a bug must still answer 500
            self._send_json(
                500, {"error": "internal", "message": f"{type(exc).__name__}: {exc}"}
            )

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_PUT(self) -> None:
        self._dispatch("PUT")


class TuningServer:
    """The long-running service bundling registry, scheduler and jobs.

    Components may be injected (tests wrap the handler to add latency,
    embedders share a registry); by default each server builds its own
    from *config*.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        registry: Optional[ModelRegistry] = None,
        scheduler: Optional[Scheduler] = None,
        jobs: Optional[JobManager] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.registry = registry if registry is not None else ModelRegistry(
            cache_size=self.config.registry_cache
        )
        self.handlers = RequestHandlers(self.registry)
        self.cache = get_cache() if self.config.cache_enabled else None
        self.scheduler = scheduler if scheduler is not None else Scheduler(
            self.handlers,
            queue_size=self.config.queue_size,
            workers=self.config.workers,
            batch_max=self.config.batch_max,
            default_deadline_s=self.config.default_deadline_s,
            cache=self.cache,
            cache_key_fn=self.cache_key if self.cache is not None else None,
        )
        self.jobs = jobs if jobs is not None else JobManager(
            max_pending=self.config.max_pending_jobs
        )
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.daemon_threads = True
        self._httpd.service = self  # type: ignore[attr-defined]
        self._serve_thread: Optional[threading.Thread] = None
        # Guards the hand-off between serve_forever and drain, so a
        # drain never waits on a serve loop that will not run.
        self._serve_lock = threading.Lock()
        self._serving = False
        self._draining = threading.Event()
        self._drained = threading.Event()
        # Governor sessions (/v1/govern): keyed controllers that learn
        # across requests. Creation and stepping happen under one lock —
        # a controller's RNG/trace is not safe under concurrent decide().
        self._governors: Dict[Tuple[str, str, str, int, int], Any] = {}
        self._governors_lock = threading.Lock()
        # Power-cap sessions (/v1/powercap): keyed ClusterCapControllers
        # whose fleet membership, demand and trace persist across
        # requests. Same single-lock discipline as governor sessions.
        self._powercaps: Dict[Tuple[str, str, float, float], Any] = {}
        self._powercaps_lock = threading.Lock()

    # -- caching -------------------------------------------------------

    def cache_key(self, kind: str, payload: Dict[str, Any]) -> Optional[str]:
        """Content fingerprint for a cacheable request, else ``None``.

        ``decide`` is pure in its payload. ``tune`` additionally folds
        in the resolved registry entry's bundle fingerprint, so
        registering a new model version under the same name invalidates
        the cached answers for it automatically. An ``arch`` alias
        (``m510``, ``Broadwell``) keys as its canonical name, which both
        replies carry. Requests whose model or architecture cannot be
        resolved return ``None`` and fall through to the handler, which
        raises the proper typed error.
        """
        if not isinstance(payload, dict):
            return None
        if "arch" in payload:
            try:
                arch = get_cpu(str(payload["arch"])).arch
            except KeyError:
                return None
            if arch != payload["arch"]:
                payload = dict(payload, arch=arch)
        if kind == "decide":
            return fingerprint(kind="service.decide", payload=payload)
        if kind == "tune":
            version = payload.get("version")
            try:
                if version is not None:
                    version = int(version)
                entry = self.registry.entry(str(payload.get("model")), version)
            except (ServiceError, TypeError, ValueError):
                return None
            return fingerprint(
                kind="service.tune", payload=payload,
                bundle=entry.fingerprint,
            )
        return None

    # -- governor sessions ---------------------------------------------

    def govern(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One step of an online governor session.

        The caller posts observed telemetry samples and gets back the
        frequencies to pin next, the per-phase convergence state and the
        currently learned power curve. Sessions are keyed by
        ``(session, arch, policy, seed, window)``, so independent
        clients (or replays with a different seed) never share a
        controller.
        """
        from repro.governor import Phase, make_governor

        _check_fields(payload, ("session", "arch", "policy", "seed",
                                "window", "samples"))
        arch = str(payload.get("arch", "broadwell"))
        try:
            cpu = get_cpu(arch)
        except KeyError as exc:
            raise BadRequestError(str(exc.args[0]) if exc.args else str(exc))
        policy = str(payload.get("policy", "adaptive"))
        if policy not in ("static", "adaptive"):
            raise BadRequestError(
                f"unknown governor policy {policy!r}; the service offers: "
                "static, adaptive (oracle needs simulation ground truth)"
            )
        try:
            seed = int(payload.get("seed", 0))
            window = int(payload.get("window", 64))
        except (TypeError, ValueError):
            raise BadRequestError("fields 'seed' and 'window' must be integers")
        samples = payload.get("samples", [])
        if not isinstance(samples, list):
            raise BadRequestError("field 'samples' must be a list")
        session = str(payload.get("session", "default"))
        key = (session, cpu.arch, policy, seed, window)

        with self._governors_lock:
            governor = self._governors.get(key)
            if governor is None:
                try:
                    governor = make_governor(policy, cpu, seed=seed, window=window)
                except ValueError as exc:
                    raise BadRequestError(str(exc))
                self._governors[key] = governor
            for i, sample in enumerate(samples):
                if not isinstance(sample, dict):
                    raise BadRequestError(f"sample {i} must be an object")
                try:
                    governor.observe(
                        sample["phase"],
                        float(sample["freq_ghz"]),
                        float(sample["power_w"]),
                        float(sample["runtime_s"]),
                        int(sample.get("bytes_processed", 0)),
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    raise BadRequestError(f"invalid telemetry sample {i}: {exc}")
            phases = (Phase.COMPRESS, Phase.WRITE)
            frequencies = {p.value: governor.decide(p) for p in phases}
            fitted = getattr(governor, "fitted", lambda p: None)
            return {
                "session": session,
                "arch": cpu.arch,
                "policy": policy,
                "frequencies": frequencies,
                "converged": {p.value: governor.is_converged(p) for p in phases},
                "curves": {p.value: fitted(p) for p in phases},
                "samples_seen": governor.telemetry.published,
            }

    # -- power-cap sessions ---------------------------------------------

    def powercap(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One step of a cluster power-cap session.

        The caller posts fleet membership changes (``nodes`` to join,
        ``leave`` to drop), optional per-node watt ``demands`` and an
        optional ``phase``; the response carries every node's current
        watt cap and ``cap_ghz`` ceiling (to feed
        ``Governor.decide(cap_ghz=...)``), the modeled makespan and the
        sha256 trace receipt. Sessions are keyed by
        ``(session, policy, budget_w, nfs_reserve_w)`` so independent
        fleets never share a controller.
        """
        from repro.hardware.powercurves import CalibratedPowerCurve
        from repro.powercap import ALLOCATION_POLICIES, ClusterCapController

        _check_fields(payload, ("session", "budget_w", "policy",
                                "nfs_reserve_w", "nodes", "leave", "demands",
                                "phase", "reallocate"))
        try:
            budget_w = float(payload["budget_w"])
        except KeyError:
            raise BadRequestError("field 'budget_w' is required")
        except (TypeError, ValueError):
            raise BadRequestError("field 'budget_w' must be a number")
        policy = str(payload.get("policy", "waterfill"))
        if policy not in ALLOCATION_POLICIES:
            raise BadRequestError(
                f"unknown allocation policy {policy!r}; the service offers: "
                + ", ".join(ALLOCATION_POLICIES)
            )
        try:
            nfs_reserve_w = float(payload.get("nfs_reserve_w", 40.0))
        except (TypeError, ValueError):
            raise BadRequestError("field 'nfs_reserve_w' must be a number")
        nodes = payload.get("nodes", [])
        if not isinstance(nodes, list):
            raise BadRequestError("field 'nodes' must be a list")
        leave = payload.get("leave", [])
        if not isinstance(leave, list):
            raise BadRequestError("field 'leave' must be a list")
        demands = payload.get("demands", {})
        if not isinstance(demands, dict):
            raise BadRequestError("field 'demands' must be an object")
        session = str(payload.get("session", "default"))
        key = (session, policy, budget_w, nfs_reserve_w)

        with self._powercaps_lock:
            controller = self._powercaps.get(key)
            if controller is None:
                try:
                    controller = ClusterCapController(
                        budget_w, policy=policy, nfs_reserve_w=nfs_reserve_w
                    )
                except ValueError as exc:
                    raise BadRequestError(str(exc))
                self._powercaps[key] = controller
            for i, node in enumerate(nodes):
                if not isinstance(node, dict) or "id" not in node:
                    raise BadRequestError(
                        f"node {i} must be an object with an 'id' field"
                    )
                arch = str(node.get("arch", "broadwell"))
                try:
                    cpu = get_cpu(arch)
                except KeyError as exc:
                    raise BadRequestError(
                        str(exc.args[0]) if exc.args else str(exc)
                    )
                try:
                    work = float(node.get("work", 1.0))
                    controller.join(
                        str(node["id"]), cpu, CalibratedPowerCurve(), work=work
                    )
                except (TypeError, ValueError) as exc:
                    raise BadRequestError(f"invalid node {i}: {exc}")
            for node_id in leave:
                try:
                    controller.leave(str(node_id))
                except KeyError as exc:
                    raise BadRequestError(str(exc.args[0]))
            for node_id, watts in demands.items():
                try:
                    controller.record_demand(str(node_id), float(watts))
                except KeyError as exc:
                    raise BadRequestError(str(exc.args[0]))
                except (TypeError, ValueError) as exc:
                    raise BadRequestError(
                        f"invalid demand for {node_id!r}: {exc}"
                    )
            if not controller.node_ids():
                raise BadRequestError(
                    "session has no nodes; post at least one in 'nodes'"
                )
            phase = payload.get("phase")
            if phase is not None:
                try:
                    controller.begin_phase(str(phase))
                except ValueError as exc:
                    raise BadRequestError(str(exc))
            if demands or payload.get("reallocate"):
                controller.reallocate("request")
            report = controller.report()
            return {
                "session": session,
                "policy": policy,
                "budget_w": controller.budget_w,
                "nfs_reserve_w": controller.nfs_reserve_w,
                "phase": controller.phase,
                "epoch": controller.epoch,
                "caps": {
                    node_id: {
                        "cap_w": cap.cap_w,
                        "cap_ghz": cap.cap_ghz,
                        "infeasible": cap.infeasible,
                    }
                    for node_id, cap in sorted(controller.caps().items())
                },
                "makespan": controller.last_makespan,
                "trace_sha256": report.trace_sha256,
            }

    # -- addressing ----------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """Bound (host, port) — resolved even when configured port 0."""
        return self._httpd.server_address[0], self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- lifecycle -----------------------------------------------------

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`drain`/``shutdown``;
        return at once when a drain has already begun."""
        with self._serve_lock:
            serve = self._serving = not self._draining.is_set()
        if serve:
            self._httpd.serve_forever(poll_interval=0.05)
        self._httpd.server_close()

    def start(self) -> "TuningServer":
        """Serve on a background thread (in-process embedding/tests)."""
        if self._serve_thread is not None:
            raise RuntimeError("server already started")
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="repro-service-http", daemon=True
        )
        self._serve_thread.start()
        return self

    def drain(self, timeout: Optional[float] = 30.0) -> bool:
        """Graceful shutdown: refuse new work, finish accepted work.

        Idempotent; returns ``True`` when both the scheduler queue and
        the job backlog emptied within *timeout* before the listener
        stopped.
        """
        with self._serve_lock:
            first = not self._draining.is_set()
            self._draining.set()
            serving = self._serving
        if not first:
            self._drained.wait(timeout)
            return self.scheduler.draining and self.jobs.unfinished() == 0
        ok = self.scheduler.close(timeout)
        ok = self.jobs.drain(timeout) and ok
        if serving:
            # shutdown() waits for the serve loop to exit, so it may
            # only be asked of a loop that started.
            self._httpd.shutdown()
        else:
            self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout)
        self._drained.set()
        return ok

    def __enter__(self) -> "TuningServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.drain()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # -- routing -------------------------------------------------------

    def route(self, http: _Handler, method: str, path: str,
              query: Dict[str, Any]) -> None:
        if method == "GET":
            if path == "/healthz":
                http._send_json(200, {"status": "ok"})
                return
            if path == "/readyz":
                if self.draining:
                    raise ServiceClosedError("draining")
                http._send_json(200, {"status": "ready"})
                return
            if path == "/metrics":
                body = prometheus_text(get_metrics_registry()).encode("utf-8")
                http._send(
                    200, "text/plain; version=0.0.4; charset=utf-8", body
                )
                return
            if path == "/v1/models":
                http._send_json(200, {
                    "models": [e.as_dict() for e in self.registry.entries()],
                })
                return
            if path.startswith("/v1/models/"):
                name = path[len("/v1/models/"):]
                version = None
                if "version" in query:
                    try:
                        version = int(query["version"][0])
                    except (TypeError, ValueError):
                        raise BadRequestError("query 'version' must be an integer")
                http._send_json(200, self.registry.entry(name, version).as_dict())
                return
            if path.startswith("/v1/jobs/"):
                job_id = path[len("/v1/jobs/"):]
                http._send_json(200, self.jobs.get(job_id).as_dict())
                return
        elif method == "PUT":
            if path.startswith("/v1/models/"):
                name = path[len("/v1/models/"):]
                if self.draining:
                    raise ServiceClosedError("draining; not accepting models")
                length = int(http.headers.get("Content-Length") or 0)
                if length > _MAX_BODY_BYTES:
                    raise BadRequestError("bundle document too large")
                raw = http.rfile.read(length).decode("utf-8", errors="replace")
                entry = self.registry.put_json(name, raw)
                http._send_json(200, entry.as_dict())
                return
        elif method == "POST":
            if path in ("/v1/tune", "/v1/decide"):
                payload = http._read_body()
                deadline_s = payload.pop("deadline_s", None)
                if deadline_s is not None:
                    try:
                        deadline_s = float(deadline_s)
                    except (TypeError, ValueError):
                        raise BadRequestError("field 'deadline_s' must be a number")
                    if deadline_s <= 0:
                        raise BadRequestError("field 'deadline_s' must be > 0")
                if self.draining:
                    raise ServiceClosedError("draining; not accepting requests")
                kind = path.rsplit("/", 1)[1]
                result = self.scheduler.perform(kind, payload, deadline_s)
                http._send_json(200, result)
                return
            if path == "/v1/govern":
                if self.draining:
                    raise ServiceClosedError("draining; not accepting requests")
                http._send_json(200, self.govern(http._read_body()))
                return
            if path == "/v1/powercap":
                if self.draining:
                    raise ServiceClosedError("draining; not accepting requests")
                http._send_json(200, self.powercap(http._read_body()))
                return
            if path == "/v1/characterize":
                payload = http._read_body()
                spec = self.handlers.parse_characterize(payload)
                job = self.jobs.submit(
                    "characterize", lambda: self.handlers.run_characterize(spec)
                )
                http._send_json(
                    202, {"job_id": job.id, "state": job.state},
                    {"Location": f"/v1/jobs/{job.id}"},
                )
                return
        raise NotFoundError(f"no route for {method} {path}")
