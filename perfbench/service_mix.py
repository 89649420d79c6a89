"""``service_mix``: two closed-loop clients against an in-process tuning service.

Set-up starts :class:`~repro.service.TuningServer` (``workers=2``) on a
loopback port with the two-architecture demo bundle. Each of two client
threads sends its next request only after the reply arrives: job
scripts wait for a frequency before they dump. Like
:class:`~repro.service.ServiceClient`, a client opens one connection
per request, so each has at most one open at a time. The seeded mix
is about 50 % from the fixed 24 tune/decide payloads (cache hits after
first use), 30 % decide requests with unique payloads (misses) and
20 % ``/v1/govern`` steps on per-client sessions, which bypass the
scheduler and the cache and run under a lock. Set-up trains each
client's session past the governor's learning phase, whose first
hundred steps cost tens of times more than a converged step: the
measured steps are those of a job that has been dumping for a while,
the same in every run whatever its length. Client ``k`` owns
architecture ``k``'s half of the fixed payloads, so no payload is ever
in flight from both clients and the cache counts repeat exactly from
run to run. No codec runs.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time

from common import Workload, sibling_script
from repro.cache import ResultCache, set_cache
from repro.service import ServiceConfig, TuningServer
from repro.service.handlers import RequestHandlers
from repro.service.registry import ModelRegistry

WORKERS = 2
ARCHES = ("broadwell", "skylake")  # one client per architecture
TRAINING_STEPS = 120  # govern steps that take a session past learning
REQUESTS_PER_CYCLE = 150  # per client
SHARE_FIXED = 0.5
SHARE_UNIQUE = 0.3
TIMEOUT_S = 10.0

_service_load = sibling_script("service_load")


class _Client:
    """One caller with its own seeded request stream."""

    def __init__(self, rank: int, seed: int, address) -> None:
        self.rank = rank
        self.arch = ARCHES[rank]
        self.seed = seed
        self.rng = random.Random(seed * len(ARCHES) + rank)
        self.fixed = [(kind, payload) for kind, payload
                      in _service_load.request_mix()
                      if payload["arch"] == self.arch]
        self.unique = 0
        self.session = f"client-{rank}"
        self.frequencies = {}
        self.address = address
        #: Govern payloads of the session's training, in order.
        self.training = []
        #: ``(kind, payload, status, body)`` for every request sent.
        self.log = []

    def next_request(self):
        u = self.rng.random()
        if u < SHARE_FIXED:
            kind, payload = self.fixed[self.rng.randrange(len(self.fixed))]
            return kind, dict(payload)
        if u < SHARE_FIXED + SHARE_UNIQUE:
            self.unique += 1
            return "decide", {
                "arch": self.arch,
                "codec": self.rng.choice(("sz", "zfp")),
                "ratio": round(1.05 + 30.0 * self.rng.random(), 6),
                "error_bound": 1e-3,
                "nbytes": 10**9 + len(ARCHES) * self.unique + self.rank,
                "clients": self.rng.randint(1, 128),
            }
        return "govern", self.govern_payload(self.session)

    def govern_payload(self, session: str):
        """Telemetry observed at the frequencies the last reply pinned."""
        samples = [
            {
                "phase": phase,
                "freq_ghz": freq,
                "power_w": (6.0 + 3.0 * freq ** 2) * (1 + 0.02 * self.rng.gauss(0, 1)),
                "runtime_s": 2.0 / freq * (1 + 0.02 * self.rng.gauss(0, 1)),
                "bytes_processed": 10**9,
            }
            for phase, freq in sorted(self.frequencies.items())
        ]
        return {"session": session, "arch": self.arch, "policy": "adaptive",
                "seed": self.seed, "samples": samples}

    def send(self, kind: str, payload, op_id: str):
        """POST one request; ``(status, body)``, status ``None`` on timeout."""
        conn = http.client.HTTPConnection(*self.address, timeout=TIMEOUT_S)
        try:
            conn.request("POST", f"/v1/{kind}", json.dumps(payload).encode(), {
                "Content-Type": "application/json", "Connection": "close",
                "X-Op-Id": op_id,
            })
            response = conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            return None, str(exc).encode()
        finally:
            conn.close()


class ServiceMix(Workload):
    name = "service_mix"

    def __init__(self, seed, scratch) -> None:
        super().__init__(seed, scratch)
        self.server = None
        self.clients = []

    def setup(self) -> None:
        self.close()
        set_cache(ResultCache())
        self.server = TuningServer(ServiceConfig(port=0, workers=WORKERS)).start()
        self.server.registry.put("demo", _service_load.demo_bundle())
        self.clients = [_Client(rank, self.seed, self.server.address)
                        for rank in range(len(ARCHES))]
        # Warm-up: one request per route and client, with payloads that
        # the measured mix never sends.
        for client in self.clients:
            for kind, payload in (
                ("tune", {"model": "demo", "arch": client.arch,
                          "stage": "compress", "policy": "eqn3"}),
                ("decide", {"arch": client.arch, "ratio": 2.0,
                            "error_bound": 1e-3, "nbytes": 5 * 10**8,
                            "clients": 3}),
                ("govern", client.govern_payload(f"warm-up-{client.rank}")),
            ):
                status, body = client.send(kind, payload, "warm-up")
                if status != 200:
                    raise RuntimeError(f"warm-up {kind} answered {status}: {body!r}")
            for _ in range(TRAINING_STEPS):
                payload = client.govern_payload(client.session)
                client.training.append(payload)
                client.frequencies = self.server.govern(payload)["frequencies"]

    def _drive(self, client: _Client, count: int) -> None:
        for _ in range(count):
            kind, payload = client.next_request()
            op_id = f"{client.rank}-{len(client.log)}"
            with self.rec.op(op_id, f"op.{kind}"):
                t0 = time.perf_counter()
                status, body = client.send(kind, payload, op_id)
                elapsed = time.perf_counter() - t0
            client.log.append((kind, payload, status, body))
            if status != 200:
                continue
            self.latencies.append(elapsed)
            self.route_latencies.setdefault(kind, []).append(elapsed)
            if kind == "govern":
                client.frequencies = json.loads(body)["frequencies"]

    def cycle(self) -> None:
        self.route_latencies = {}
        threads = [threading.Thread(target=self._drive,
                                    args=(client, REQUESTS_PER_CYCLE))
                   for client in self.clients]
        done, cpu = len(self.latencies), self.cpu_seconds()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Requests overlap, so each one is charged its cycle's CPU share.
        ops = len(self.latencies) - done
        if ops:
            self.op_cpu += [(self.cpu_seconds() - cpu) / ops] * ops
        if self.rec.enabled:
            self.extra.update(
                route_latencies=self.route_latencies,
                client_s=sum(map(sum, self.route_latencies.values())),
            )

    def verify(self) -> None:
        """Replay every request directly: handlers for tune/decide, a fresh
        server's ``govern`` for each client's session (training first),
        in order."""
        set_cache(ResultCache(enabled=False))
        registry = ModelRegistry()
        registry.put("demo", _service_load.demo_bundle())
        handlers = RequestHandlers(registry)
        reference = TuningServer(ServiceConfig(port=0, workers=1)).start()
        answers = {}
        try:
            for client in self.clients:
                for payload in client.training:
                    reference.govern(payload)
                for kind, payload, status, body in client.log:
                    self.attempted += 1
                    if kind == "govern":
                        expected = reference.govern(payload)
                    else:
                        key = json.dumps([kind, payload], sort_keys=True)
                        if key not in answers:
                            answers[key] = handlers(kind, dict(payload))
                        expected = answers[key]
                    if status != 200:
                        self.fail(f"{kind} answered {status}: {body[:200]!r}")
                    elif json.loads(body) != json.loads(json.dumps(expected)):
                        self.fail(f"{kind} reply differs from the direct answer "
                                  f"for {payload}")
        finally:
            reference.drain()

    def close(self) -> None:
        if self.server is not None:
            self.server.drain()
            self.server = None

    def named_metrics(self, elapsed_s):
        lat = sorted(self.latencies)
        return {
            "latency_p99_ms": (lat[int(0.99 * (len(lat) - 1))] * 1e3, "ms"),
            "throughput_rps": (len(lat) / elapsed_s, "req/s"),
        }
