"""Coordinator side of the fleet: the :class:`DistributedExecutor`.

The executor conforms to the :class:`repro.parallel.Executor` contract
— ``map``/``map_timed``/``map_retry`` with submission-order results and
fail-fast cancellation — but fans work out to independent worker
*processes* over TCP instead of a ``concurrent.futures`` pool:

* Items are partitioned by :func:`repro.distributed.shards.plan_shards`
  into deterministic shards whose identity never depends on the fleet
  size.
* Shards are pushed to idle workers over the length-prefixed JSON+CRC
  wire protocol; the map function ships once per worker per map.
* Liveness is heartbeat-based with EOF fast-path: a SIGKILLed worker's
  connection drops immediately, a hung one trips the heartbeat
  timeout. Either way its in-flight shards go back to the head of the
  queue and are reassigned (``repro_dist_reassignments_total``).
* Result commit is **at-most-once** per shard: a worker presumed dead
  that still delivers is counted as a duplicate and ignored, so a
  reassigned shard can never produce two different results — the map's
  output is byte-identical to a serial run no matter how many workers
  died on the way.
* Worker-level faults reuse the resilience layer's
  :class:`~repro.resilience.policies.RetryPolicy` for deterministic
  respawn backoff, and a per-shard kill budget turns a poison shard
  (one that keeps killing its workers) into a clean
  :class:`WorkerLostError` instead of an infinite respawn loop.

The default fleet is self-spawned: ``python -m repro.distributed.worker``
children of this process, connected over loopback. Set ``listen`` (or
``REPRO_DIST_LISTEN``) to bind a fixed address and attach an external
fleet launched with ``repro-tool workers``.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.distributed.shards import Shard, ShardPlan, plan_shards
from repro.distributed.wire import (
    WireError,
    pack_blob,
    recv_frame,
    send_frame,
    unpack_blob,
)
from repro.observability.metrics import get_registry
from repro.observability.tracer import get_tracer
from repro.parallel.executor import Executor, default_workers

__all__ = ["DistributedExecutor", "WorkerLostError", "FleetError"]


class FleetError(RuntimeError):
    """The fleet could not be assembled or has been torn down."""


class WorkerLostError(RuntimeError):
    """A shard exhausted its kill budget; its result is unobtainable."""


def _counter(name: str, help: str, **labels: str):
    return get_registry().counter(
        name, labels=labels or None, help=help
    )


class _WorkerHandle:
    """One connected worker: socket, liveness clock, assignment slot."""

    def __init__(self, worker_id: int, conn: socket.socket, pid: int,
                 proc: Optional[subprocess.Popen]) -> None:
        self.worker_id = worker_id
        self.conn = conn
        self.pid = pid
        self.proc = proc
        self.alive = True
        self.last_seen = time.monotonic()
        self.busy_shard: Optional[Shard] = None
        self.assigned_at = 0.0
        self.seen_map_id: Optional[str] = None
        self.send_lock = threading.Lock()

    def send(self, doc: Any) -> int:
        with self.send_lock:
            return send_frame(self.conn, doc)


class _MapState:
    """Book-keeping for one in-progress distributed map."""

    def __init__(self, map_id: str, fn_blob: str, items: Sequence[Any],
                 plan: ShardPlan) -> None:
        self.map_id = map_id
        self.fn_blob = fn_blob
        self.items = list(items)
        self.plan = plan
        self.pending = deque(plan.shards)
        self.inflight: Dict[int, int] = {}  # shard index -> worker id
        self.assigned_at: Dict[int, float] = {}
        self.results: Dict[int, List[Any]] = {}
        self.failures: Dict[int, BaseException] = {}
        self.kills: Dict[int, int] = {}

    @property
    def done(self) -> bool:
        if len(self.results) == len(self.plan.shards):
            return True
        return bool(self.failures) and not self.pending and not self.inflight


class DistributedExecutor(Executor):
    """Socket-based multi-process fleet behind the Executor contract.

    Parameters mirror the pool backends where they overlap; the rest
    tune fleet behaviour:

    *workers* — fleet size (spawned, or awaited when external).
    *spawn* — launch local worker processes (default); ``False`` waits
    for external workers on *listen*.
    *listen* — ``"host:port"`` to bind (default loopback, ephemeral
    port; ``REPRO_DIST_LISTEN`` overrides and implies external mode).
    *max_shard_items* — shard granularity (default 1: every item is
    independently reassignable).
    *heartbeat_s* / *heartbeat_timeout_s* — liveness cadence and the
    silence span after which a worker is declared dead.
    *shard_kill_budget* — worker deaths one shard may cause before the
    map fails with :class:`WorkerLostError`.
    *respawn_policy* — resilience :class:`RetryPolicy` shaping the
    deterministic backoff between worker respawns.
    *cache_dir* — shared on-disk result-cache directory for the fleet;
    the default ``"auto"`` forwards the process cache's disk tier.
    *chaos_kill_after* — fault-injection hook: SIGKILL one busy worker
    after this many shard commits (once per executor). This is the
    chaos-test discipline of :mod:`repro.resilience` applied to the
    fleet itself; production callers leave it ``None``.
    """

    name = "distributed"

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        spawn: Optional[bool] = None,
        listen: Optional[str] = None,
        max_shard_items: int = 1,
        heartbeat_s: float = 0.5,
        heartbeat_timeout_s: float = 10.0,
        shard_kill_budget: int = 3,
        respawn_policy: Optional[Any] = None,
        max_respawns: Optional[int] = None,
        cache_dir: Optional[str] = "auto",
        chaos_kill_after: Optional[int] = None,
        seed: int = 0,
        spawn_timeout_s: float = 60.0,
    ) -> None:
        super().__init__(workers if workers is not None else default_workers())
        env_listen = os.environ.get("REPRO_DIST_LISTEN")
        if listen is None and env_listen:
            listen = env_listen
            if spawn is None:
                spawn = False
        self.spawn = True if spawn is None else bool(spawn)
        self.listen = listen
        if max_shard_items < 1:
            raise ValueError(
                f"max_shard_items must be >= 1, got {max_shard_items}"
            )
        if heartbeat_s <= 0 or heartbeat_timeout_s <= heartbeat_s:
            raise ValueError(
                "need 0 < heartbeat_s < heartbeat_timeout_s, got "
                f"{heartbeat_s}/{heartbeat_timeout_s}"
            )
        if shard_kill_budget < 1:
            raise ValueError(
                f"shard_kill_budget must be >= 1, got {shard_kill_budget}"
            )
        self.max_shard_items = int(max_shard_items)
        self.heartbeat_s = float(heartbeat_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.shard_kill_budget = int(shard_kill_budget)
        if respawn_policy is None:
            from repro.resilience.policies import RetryPolicy

            respawn_policy = RetryPolicy(
                max_attempts=3, backoff_base_s=0.05, backoff_cap_s=2.0,
                jitter=0.1,
            )
        self.respawn_policy = respawn_policy
        self.max_respawns = (
            2 * self.workers if max_respawns is None else int(max_respawns)
        )
        self.cache_dir = cache_dir
        self.chaos_kill_after = chaos_kill_after
        self.seed = int(seed)
        self.spawn_timeout_s = float(spawn_timeout_s)

        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._map_serial = 0
        self._map_gate = threading.Lock()  # one map at a time
        self._state: Optional[_MapState] = None
        self._workers: Dict[int, _WorkerHandle] = {}
        self._next_worker_id = 0
        self._respawns = 0
        self._respawn_due = 0.0
        self._respawning = False
        #: _ensure_fleet is waiting for the fleet to assemble; worker
        #: deaths then respawn just as they do mid-map.
        self._starting = False
        self._chaos_done = False
        self._closed = False
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._spawned_procs: List[subprocess.Popen] = []
        #: (shard_index, attempt) log of every reassignment this
        #: executor performed — chaos tests reconcile this against the
        #: ``repro_dist_reassignments_total`` counter.
        self.reassignment_log: List[Tuple[int, int]] = []
        self.duplicate_results = 0
        #: Telemetry samples shipped by workers (``telemetry`` frames),
        #: in arrival order, each annotated with the worker pid. Drained
        #: by :meth:`drain_telemetry`.
        self.telemetry: List[dict] = []
        #: (controller, cpu, power_curve) once attach_powercap() wires a
        #: ClusterCapController over the fleet; None = uncapped.
        self._powercap: Optional[Tuple[Any, Any, Any]] = None

    # -- fleet assembly ------------------------------------------------

    def _resolved_cache_dir(self) -> Optional[str]:
        if self.cache_dir != "auto":
            return self.cache_dir
        from repro.cache import get_cache

        cache = get_cache()
        return cache.disk_directory if cache.enabled else None

    def _bind(self) -> None:
        if self._listener is not None:
            return
        if self._closed:
            raise FleetError("executor is closed")
        host, port = "127.0.0.1", 0
        if self.listen:
            addr, sep, port_s = self.listen.rpartition(":")
            if not sep or not port_s.isdigit():
                raise ValueError(
                    f"listen address must be HOST:PORT, got {self.listen!r}"
                )
            host, port = addr, int(port_s)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(max(8, 2 * self.workers))
        listener.settimeout(0.2)
        self._listener = listener
        for target, name in (
            (self._accept_loop, "repro-dist-accept"),
            (self._monitor_loop, "repro-dist-monitor"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` workers connect to."""
        self._bind()
        return self._listener.getsockname()[:2]

    def _spawn_worker(self) -> subprocess.Popen:
        host, port = self.address
        cmd = [
            sys.executable, "-m", "repro.distributed.worker",
            "--connect", f"{host}:{port}",
            "--heartbeat", str(self.heartbeat_s),
        ]
        shared = self._resolved_cache_dir()
        if shared:
            cmd += ["--cache-dir", shared]
        env = dict(os.environ)
        # A spawned worker starts from a bare interpreter, so it must
        # re-import every module the pickled task graph references —
        # including this build of repro and (in tests) the module that
        # defines the task function. Propagating the parent's sys.path
        # gives the worker the same import environment fork would have
        # given a process pool. __main__-defined functions remain
        # unpicklable, exactly as under a spawn-method process pool.
        inherit = [p for p in sys.path if p]
        env["PYTHONPATH"] = os.pathsep.join(
            dict.fromkeys(p for p in (*inherit, env.get("PYTHONPATH")) if p)
        )
        proc = subprocess.Popen(cmd, env=env)
        with self._lock:
            self._spawned_procs.append(proc)
        _counter(
            "repro_dist_workers_spawned_total",
            "Worker processes launched by distributed executors",
        ).inc()
        return proc

    def _ensure_fleet(self) -> None:
        with self._lock:
            if self._closed:
                raise FleetError("executor is closed")
            self._bind()
            live = sum(1 for w in self._workers.values() if w.alive)
            to_spawn = (
                self.workers - live - self._joining_locked()
                if self.spawn else 0
            )
            for _ in range(max(0, to_spawn)):
                self._spawn_worker()
            want = self.workers if self.spawn else 1
        deadline = time.monotonic() + self.spawn_timeout_s
        with self._cond:
            self._starting = True
            try:
                while True:
                    live = sum(1 for w in self._workers.values() if w.alive)
                    if live >= want:
                        return
                    if self.spawn and not self._replacement_coming_locked():
                        raise FleetError(
                            f"only {live}/{want} workers joined and none is "
                            "starting or due to respawn (respawns used: "
                            f"{self._respawns}/{self.max_respawns})"
                        )
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise FleetError(
                            f"only {live}/{want} workers joined within "
                            f"{self.spawn_timeout_s:.0f}s"
                            + ("" if self.spawn else
                               " (external mode: start a fleet with "
                               "'repro-tool workers')")
                        )
                    self._cond.wait(min(remaining, 0.2))
            finally:
                self._starting = False

    def _joining_locked(self) -> int:
        """Spawned worker processes still running but not yet admitted."""
        admitted = {w.pid for w in self._workers.values()}
        return sum(
            1 for p in self._spawned_procs
            if p.poll() is None and p.pid not in admitted
        )

    def _replacement_coming_locked(self) -> bool:
        """A worker is joining, being respawned, or due to be."""
        return (
            self._joining_locked() > 0 or self._respawning
            or self._respawn_due > 0.0
        )

    def _fleet_needed_locked(self) -> bool:
        """Dead workers are replaced while the fleet assembles or a map
        is in flight, under one ``max_respawns`` budget."""
        state = self._state
        return self._starting or (state is not None and not state.done)

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._admit, args=(conn,),
                name="repro-dist-admit", daemon=True,
            ).start()

    def _admit(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(self.spawn_timeout_s)
            hello = recv_frame(conn)
            if not isinstance(hello, dict) or hello.get("type") != "hello":
                conn.close()
                return
            conn.settimeout(None)
        except (WireError, OSError):
            try:
                conn.close()
            except OSError:
                pass
            return
        with self._cond:
            if self._closed:
                conn.close()
                return
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            pid = int(hello.get("pid", -1))
            proc = next(
                (p for p in self._spawned_procs if p.pid == pid), None
            )
            handle = _WorkerHandle(worker_id, conn, pid, proc=proc)
            self._workers[worker_id] = handle
            self._cond.notify_all()
        thread = threading.Thread(
            target=self._reader_loop, args=(handle,),
            name=f"repro-dist-reader-{worker_id}", daemon=True,
        )
        thread.start()
        with self._lock:
            self._threads.append(thread)
            self._pump_locked()
        self._sync_powercap("join")

    # -- per-worker reader ---------------------------------------------

    def _reader_loop(self, handle: _WorkerHandle) -> None:
        while True:
            try:
                msg = recv_frame(handle.conn)
            except (WireError, OSError) as exc:
                self._on_worker_dead(handle, f"connection error: {exc}")
                return
            if msg is None:
                self._on_worker_dead(handle, "connection closed")
                return
            kind = msg.get("type")
            if kind == "heartbeat":
                with self._lock:
                    handle.last_seen = time.monotonic()
            elif kind == "result":
                self._commit_result(handle, msg)
            elif kind == "task_error":
                self._commit_failure(handle, msg)
            elif kind == "telemetry":
                self._commit_telemetry(handle, msg)

    def _commit_telemetry(self, handle: _WorkerHandle, msg: dict) -> None:
        """Aggregate a worker's per-phase telemetry frame.

        Telemetry is observational, not transactional: frames from
        reassigned shards are kept (each is tagged with its worker pid
        and shard index), because duplicate power samples are still
        real power draw — deduplication is the consumer's call.
        """
        samples = msg.get("samples") or []
        with self._lock:
            handle.last_seen = time.monotonic()
            for sample in samples:
                record = dict(sample)
                record["worker_pid"] = handle.pid
                record["shard_index"] = int(msg.get("shard_index", -1))
                record["source"] = "distributed"
                self.telemetry.append(record)
        _counter(
            "repro_dist_telemetry_frames_total",
            "Telemetry frames shipped by fleet workers",
        ).inc()

    def drain_telemetry(self) -> List[dict]:
        """Return and clear the aggregated fleet telemetry records."""
        with self._lock:
            records, self.telemetry = self.telemetry, []
        return records

    def _commit_result(self, handle: _WorkerHandle, msg: dict) -> None:
        t_done = time.monotonic()
        results = unpack_blob(msg["results"])
        chaos_victim = None
        with self._cond:
            handle.last_seen = t_done
            state = self._state
            index = int(msg["shard_index"])
            if state is None or msg.get("map_id") != state.map_id \
                    or index in state.results:
                # Late delivery from a worker we already presumed dead
                # (or from a previous map): at-most-once commit drops it.
                self.duplicate_results += 1
                _counter(
                    "repro_dist_duplicate_results_total",
                    "Shard results dropped by at-most-once commit",
                ).inc()
                if handle.busy_shard is not None \
                        and handle.busy_shard.index == index:
                    handle.busy_shard = None
                self._pump_locked()
                return
            state.results[index] = results
            state.inflight.pop(index, None)
            assigned_at = state.assigned_at.pop(index, t_done)
            handle.busy_shard = None
            _counter(
                "repro_dist_shards_total",
                "Shards committed by distributed maps",
            ).inc()
            get_tracer().record_span(
                "dist.shard", t_done - assigned_at,
                shard=index, worker=handle.pid,
                items=len(results),
                attempt=state.kills.get(index, 0) + 1,
            )
            if (
                self.chaos_kill_after is not None
                and not self._chaos_done
                and len(state.results) >= self.chaos_kill_after
            ):
                chaos_victim = self._pick_chaos_victim_locked()
                if chaos_victim is not None:
                    self._chaos_done = True
                    # Declare the victim dead under this same lock hold
                    # so a result it already put on the wire cannot
                    # commit before the reassignment happens — the kill
                    # is then deterministic: a busy victim always costs
                    # exactly one reassignment.
                    self._on_worker_dead(
                        chaos_victim, "chaos kill (fault injection)"
                    )
            self._pump_locked()
            self._cond.notify_all()
        if chaos_victim is not None:
            self._sigkill(chaos_victim)

    def _commit_failure(self, handle: _WorkerHandle, msg: dict) -> None:
        exc = unpack_blob(msg["error"])
        with self._cond:
            handle.last_seen = time.monotonic()
            state = self._state
            index = int(msg["shard_index"])
            if state is None or msg.get("map_id") != state.map_id:
                handle.busy_shard = None
                return
            state.failures[int(msg["item_index"])] = exc
            state.inflight.pop(index, None)
            state.assigned_at.pop(index, None)
            handle.busy_shard = None
            # Fail fast: everything not yet started is cancelled; the
            # in-flight shards run out so the earliest failure wins.
            state.pending.clear()
            self._pump_locked()
            self._cond.notify_all()

    # -- liveness ------------------------------------------------------

    def _on_worker_dead(self, handle: _WorkerHandle, reason: str) -> None:
        with self._cond:
            if not handle.alive:
                return
            handle.alive = False
            try:
                handle.conn.close()
            except OSError:
                pass
            shard = handle.busy_shard
            handle.busy_shard = None
            state = self._state
            if shard is not None and state is not None \
                    and shard.index not in state.results:
                state.inflight.pop(shard.index, None)
                state.assigned_at.pop(shard.index, None)
                kills = state.kills.get(shard.index, 0) + 1
                state.kills[shard.index] = kills
                if state.failures:
                    # The map is already failing fast; a dead worker's
                    # shard is cancelled work, not a reassignment.
                    pass
                elif kills > self.shard_kill_budget:
                    state.failures[shard.item_indices[0]] = WorkerLostError(
                        f"shard {shard.index} caused {kills} worker deaths "
                        f"(budget {self.shard_kill_budget}); last: {reason}"
                    )
                    state.pending.clear()
                else:
                    state.pending.appendleft(shard)
                    self.reassignment_log.append((shard.index, kills))
                    _counter(
                        "repro_dist_reassignments_total",
                        "In-flight shards requeued after a worker died",
                    ).inc()
            if self.spawn and self._fleet_needed_locked() \
                    and self._respawns < self.max_respawns:
                self._respawns += 1
                self._respawn_due = time.monotonic() + \
                    self.respawn_policy.backoff_s(
                        min(self._respawns, self.respawn_policy.max_attempts),
                        self.seed, 0,
                    )
            self._pump_locked()
            self._cond.notify_all()
        # A dead node's watts redistribute on the leave epoch; the
        # survivors get their raised caps broadcast right away.
        self._sync_powercap("leave")

    def _monitor_loop(self) -> None:
        while not self._closed:
            time.sleep(self.heartbeat_s / 2.0)
            dead: List[Tuple[_WorkerHandle, str]] = []
            spawn_now = 0
            with self._lock:
                now = time.monotonic()
                for handle in self._workers.values():
                    if not handle.alive:
                        continue
                    silent = now - handle.last_seen
                    if silent > self.heartbeat_timeout_s:
                        _counter(
                            "repro_dist_heartbeats_missed_total",
                            "Workers declared dead after heartbeat silence",
                        ).inc()
                        dead.append((
                            handle,
                            f"no heartbeat for {silent:.1f}s "
                            f"(timeout {self.heartbeat_timeout_s:g}s)",
                        ))
                    elif handle.proc is not None \
                            and handle.proc.poll() is not None:
                        dead.append((
                            handle,
                            f"process exited with {handle.proc.returncode}",
                        ))
                due = (
                    self._respawn_due and now >= self._respawn_due
                    and self._fleet_needed_locked()
                )
                if due:
                    self._respawn_due = 0.0
                    live = sum(1 for w in self._workers.values() if w.alive)
                    spawn_now = max(
                        0, self.workers - live - self._joining_locked()
                    )
                    if spawn_now:
                        # Holds off _wait_locked's all-dead check until
                        # the replacement processes are on the books.
                        self._respawning = True
            for handle, reason in dead:
                self._on_worker_dead(handle, reason)
            if spawn_now:
                for _ in range(spawn_now):
                    self._spawn_worker()
                with self._cond:
                    self._respawning = False
                    self._cond.notify_all()

    def _pick_chaos_victim_locked(self) -> Optional[_WorkerHandle]:
        busy = [w for w in self._workers.values()
                if w.alive and w.busy_shard is not None and w.pid > 0]
        idle = [w for w in self._workers.values() if w.alive and w.pid > 0]
        victims = busy or idle
        return min(victims, key=lambda w: w.worker_id) if victims else None

    @staticmethod
    def _sigkill(handle: _WorkerHandle) -> None:
        import signal

        try:
            os.kill(handle.pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):  # pragma: no cover - racy exit
            pass

    # -- dispatch ------------------------------------------------------

    def _pump_locked(self) -> None:
        """Assign pending shards to idle workers (lock already held)."""
        state = self._state
        if state is None:
            return
        for handle in sorted(self._workers.values(),
                             key=lambda w: w.worker_id):
            if not state.pending:
                return
            if not handle.alive or handle.busy_shard is not None:
                continue
            shard = state.pending.popleft()
            handle.busy_shard = shard
            handle.assigned_at = time.monotonic()
            state.inflight[shard.index] = handle.worker_id
            state.assigned_at[shard.index] = handle.assigned_at
            msg = {
                "type": "task",
                "map_id": state.map_id,
                "shard_index": shard.index,
                "shard_id": shard.shard_id,
                "item_indices": list(shard.item_indices),
                "items": pack_blob(
                    [state.items[i] for i in shard.item_indices]
                ),
            }
            if handle.seen_map_id != state.map_id:
                msg["fn"] = state.fn_blob
                handle.seen_map_id = state.map_id
            threading.Thread(
                target=self._send_task, args=(handle, msg),
                name="repro-dist-send", daemon=True,
            ).start()

    def _send_task(self, handle: _WorkerHandle, msg: dict) -> None:
        t0 = time.monotonic()
        try:
            nbytes = handle.send(msg)
        except OSError as exc:
            self._on_worker_dead(handle, f"send failed: {exc}")
            return
        get_tracer().record_span(
            "dist.rpc", time.monotonic() - t0,
            op="task", shard=msg["shard_index"], worker=handle.pid,
            nbytes=nbytes,
        )

    # -- power capping -------------------------------------------------

    def attach_powercap(self, controller, cpu, power_curve) -> None:
        """Wire a :class:`~repro.powercap.ClusterCapController` over
        the fleet.

        Every live worker joins the controller as a node (id
        ``worker-<id>``); later joins and deaths trigger allocation
        epochs, and each epoch's personalized cap goes out as a
        ``powercap`` wire frame. The frames are observational — shard
        results stay a pure function of the shard inputs (a campaign's
        watt budget travels inside its :class:`CampaignPoint`), which
        is what keeps distributed maps byte-identical to serial runs.
        A dead worker's watts redistribute on its leave epoch.
        """
        with self._lock:
            self._powercap = (controller, cpu, power_curve)
        self._sync_powercap("attach")

    def powercap_controller(self):
        """The attached controller, or None when uncapped."""
        attached = self._powercap
        return None if attached is None else attached[0]

    def _sync_powercap(self, event: str) -> None:
        """Reconcile fleet membership with the controller + broadcast."""
        attached = self._powercap
        if attached is None:
            return
        controller, cpu, power_curve = attached
        with self._lock:
            live = {
                f"worker-{w.worker_id}": w
                for w in self._workers.values()
                if w.alive
            }
        known = set(controller.node_ids())
        for node_id in sorted(set(live) - known):
            controller.join(node_id, cpu, power_curve)
        for node_id in sorted(known - set(live)):
            try:
                controller.leave(node_id)
            except KeyError:  # pragma: no cover - concurrent reconcile
                pass
        caps = controller.caps()
        epoch = controller.epoch
        for node_id, handle in sorted(live.items()):
            cap = caps.get(node_id)
            if cap is None:
                continue
            try:
                handle.send({
                    "type": "powercap",
                    "node_id": node_id,
                    "cap_w": cap.cap_w,
                    "cap_ghz": cap.cap_ghz,
                    "infeasible": cap.infeasible,
                    "epoch": epoch,
                })
            except OSError:
                continue
            _counter(
                "repro_dist_powercap_frames_total",
                "Power-cap frames broadcast to fleet workers",
                event=event,
            ).inc()

    # -- Executor contract ---------------------------------------------

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        try:
            fn_blob = pack_blob(fn)
        except Exception as exc:
            raise TypeError(
                f"distributed maps require a picklable task function: {exc}"
            ) from exc
        with self._map_gate:
            self._ensure_fleet()
            try:
                with self._cond:
                    self._map_serial += 1
                    state = _MapState(
                        map_id=f"map-{os.getpid()}-{self._map_serial}",
                        fn_blob=fn_blob,
                        items=items,
                        plan=plan_shards(
                            len(items), self.max_shard_items, self.seed
                        ),
                    )
                    self._state = state
                    with get_tracer().span(
                        "dist.map", items=len(items),
                        shards=len(state.plan.shards), workers=self.workers,
                    ):
                        self._pump_locked()
                        self._wait_locked(state)
                if state.failures:
                    raise state.failures[min(state.failures)]
                out: List[Any] = [None] * len(items)
                for shard in state.plan.shards:
                    shard_results = state.results[shard.index]
                    for i, value in zip(shard.item_indices, shard_results):
                        out[i] = value
                return out
            finally:
                with self._lock:
                    self._state = None

    def _wait_locked(self, state: _MapState) -> None:
        while not state.done:
            if self._closed:
                raise FleetError("executor closed during a map")
            live = sum(1 for w in self._workers.values() if w.alive)
            if live == 0 and (state.pending or state.inflight):
                if not self._replacement_coming_locked():
                    raise WorkerLostError(
                        "all workers died with no respawn scheduled "
                        f"(budget {self._respawns}/{self.max_respawns} used) "
                        f"and {len(state.pending) + len(state.inflight)} "
                        "shards outstanding"
                    )
            self._cond.wait(0.1)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            listener = self._listener
        for handle in workers:
            if handle.alive:
                try:
                    handle.send({"type": "shutdown"})
                except OSError:
                    pass
            try:
                handle.conn.close()
            except OSError:
                pass
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        for handle in workers:
            if handle.proc is not None:
                try:
                    handle.proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    handle.proc.kill()
                    handle.proc.wait()
        # Reap self-spawned processes not yet associated with a handle.
        for proc in getattr(self, "_spawned_procs", []):
            if proc.poll() is None:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        with self._cond:
            self._cond.notify_all()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- introspection -------------------------------------------------

    def worker_pids(self) -> Tuple[int, ...]:
        """PIDs of the currently-live workers (chaos tests kill these)."""
        with self._lock:
            return tuple(
                w.pid for w in self._workers.values() if w.alive and w.pid > 0
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistributedExecutor(workers={self.workers}, "
            f"spawn={self.spawn}, shard_items={self.max_shard_items})"
        )
