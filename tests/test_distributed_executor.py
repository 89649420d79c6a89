"""Executor-contract tests for the distributed fleet backend.

The :class:`DistributedExecutor` must be observably identical to the
pool backends through the :class:`repro.parallel.Executor` interface:
submission-order results, earliest-submitted-failure-wins fail-fast,
``map_timed``/``map_retry`` composition, inline execution for trivial
maps, and an idempotent ``close``. Fleet-specific behaviour (metrics,
worker pids, registration) is covered at the end.

The fleet is module-scoped: spinning up worker processes costs ~1 s,
so every test shares one 2-worker fleet.
"""

import socket
import threading

import pytest

from repro.distributed import (
    DistributedExecutor,
    FleetError,
    pack_blob,
    recv_frame,
    send_frame,
    unpack_blob,
)
from repro.distributed.worker import WorkerSession
from repro.observability.metrics import get_registry
from repro.parallel import (
    Executor,
    available_executors,
    choose_backend,
    get_executor,
    resolve_executor,
)


# Module-level so worker processes can unpickle them.
def _square(x):
    return x * x


def _fail_on_negative(x):
    if x < 0:
        raise ValueError(f"negative task {x}")
    return x


class _FlakyOnce:
    """Fails each listed item until its attempt counter advances."""

    def __init__(self, bad_items):
        self.bad_items = tuple(bad_items)
        self.attempt = 0

    def __call__(self, x):
        if self.attempt == 0 and x in self.bad_items:
            raise RuntimeError(f"transient failure on {x}")
        return x * 10


@pytest.fixture(scope="module")
def fleet():
    with DistributedExecutor(2, heartbeat_s=0.2,
                             heartbeat_timeout_s=5.0) as ex:
        yield ex


class TestContract:
    def test_results_keep_submission_order(self, fleet):
        assert fleet.map(_square, list(range(20))) == [
            x * x for x in range(20)
        ]

    def test_empty_map(self, fleet):
        assert fleet.map(_square, []) == []

    def test_single_item_runs_inline(self):
        # Like the pool backends, a trivial map never pays for workers:
        # a fresh executor maps one item without assembling a fleet.
        ex = DistributedExecutor(2)
        try:
            assert ex.map(_square, [7]) == [49]
            assert ex.worker_pids() == ()
        finally:
            ex.close()

    def test_failure_cancels_and_earliest_failure_wins(self, fleet):
        items = [1, -2, 3, -4, 5, 6, 7, 8]
        with pytest.raises(ValueError, match="negative task -2"):
            fleet.map(_fail_on_negative, items)

    def test_fleet_survives_a_failed_map(self, fleet):
        with pytest.raises(ValueError):
            fleet.map(_fail_on_negative, [-1, 2, 3])
        assert fleet.map(_square, [2, 3, 4]) == [4, 9, 16]

    def test_map_timed_returns_per_task_seconds(self, fleet):
        results, times = fleet.map_timed(_square, [1, 2, 3, 4])
        assert results == [1, 4, 9, 16]
        assert len(times) == 4
        assert all(t >= 0.0 for t in times)

    def test_map_retry_recovers_transients(self, fleet):
        flaky = _FlakyOnce(bad_items=(2, 5))
        results, retried = fleet.map_retry(flaky, list(range(8)), retries=1)
        assert results == [x * 10 for x in range(8)]
        assert sorted(retried) == [2, 5]

    def test_map_retry_exhausted_raises_earliest(self, fleet):
        with pytest.raises(ValueError, match="negative task -3"):
            fleet.map_retry(_fail_on_negative, [1, 2, -3, -4], retries=1)

    def test_unpicklable_fn_raises_typeerror(self, fleet):
        with pytest.raises(TypeError, match="picklable"):
            fleet.map(lambda x: x, [1, 2, 3])

    def test_exception_type_is_preserved(self, fleet):
        class_matched = False
        try:
            fleet.map(_fail_on_negative, [0, 1, -9, 3])
        except ValueError as exc:
            class_matched = "-9" in str(exc)
        assert class_matched


class TestClose:
    def test_close_is_idempotent(self):
        ex = DistributedExecutor(2, heartbeat_s=0.2, heartbeat_timeout_s=5.0)
        assert ex.map(_square, [1, 2, 3]) == [1, 4, 9]
        ex.close()
        ex.close()
        ex.close()

    def test_close_without_use_is_safe(self):
        ex = DistributedExecutor(2)
        ex.close()
        ex.close()

    def test_map_after_close_raises(self):
        ex = DistributedExecutor(2)
        ex.close()
        with pytest.raises(FleetError):
            ex.map(_square, [1, 2, 3])

    def test_del_after_close_is_silent(self):
        ex = DistributedExecutor(2)
        ex.close()
        ex.__del__()  # must not raise, mirroring interpreter teardown


class TestFleetSpecifics:
    def test_worker_pids_are_live_processes(self, fleet):
        import os

        fleet.map(_square, [1, 2])  # ensure the fleet is up
        pids = fleet.worker_pids()
        assert len(pids) == 2
        for pid in pids:
            os.kill(pid, 0)  # raises if the process is gone

    def test_shard_counter_advances(self, fleet):
        counter = get_registry().counter(
            "repro_dist_shards_total",
            help="Shards committed by distributed maps",
        )
        before = counter.value
        fleet.map(_square, list(range(6)))
        assert counter.value >= before + 6

    def test_fleet_reuse_across_maps(self, fleet):
        fleet.map(_square, [1, 2, 3])
        pids_a = fleet.worker_pids()
        fleet.map(_square, [4, 5, 6])
        assert fleet.worker_pids() == pids_a

    def test_shard_granularity_knob(self):
        with DistributedExecutor(2, max_shard_items=3, heartbeat_s=0.2,
                                 heartbeat_timeout_s=5.0) as ex:
            assert ex.map(_square, list(range(10))) == [
                x * x for x in range(10)
            ]

    @pytest.mark.parametrize("kwargs", [
        {"max_shard_items": 0},
        {"heartbeat_s": 0.0},
        {"heartbeat_s": 2.0, "heartbeat_timeout_s": 1.0},
        {"shard_kill_budget": 0},
    ])
    def test_bad_configuration_raises(self, kwargs):
        with pytest.raises(ValueError):
            DistributedExecutor(2, **kwargs)


class TestRegistration:
    def test_listed_and_constructible(self):
        assert "distributed" in available_executors()
        ex = get_executor("distributed", 2)
        try:
            assert isinstance(ex, DistributedExecutor)
            assert isinstance(ex, Executor)
            assert ex.workers == 2
        finally:
            ex.close()

    def test_resolve_executor_does_not_own_instances(self, fleet):
        resolved, owned = resolve_executor(fleet)
        assert resolved is fleet
        assert owned is False

    def test_auto_never_selects_distributed(self):
        for n_tasks in (1, 4, 64, 4096):
            for nbytes in (0, 1 << 20, 1 << 30):
                assert choose_backend(n_tasks, nbytes, 8.0, 16) != "distributed"

    def test_lazy_import_keeps_parallel_light(self):
        import subprocess
        import sys

        # Importing repro.parallel must not drag the fleet machinery in.
        code = (
            "import sys; import repro.parallel; "
            "sys.exit(1 if 'repro.distributed' in sys.modules else 0)"
        )
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def _older_build_worker(address):
    """An external worker that sends a ``telemetry`` frame before each
    ``result``, as builds that shipped governor samples fleet-ward did."""
    with socket.create_connection(address) as sock:
        send_frame(sock, {"type": "hello"})  # no pid: nothing to signal
        fn = None
        while True:
            msg = recv_frame(sock)
            if msg is None or msg["type"] == "shutdown":
                return
            if msg["type"] != "task":
                continue
            if "fn" in msg:
                fn = unpack_blob(msg["fn"])
            results = [fn(item) for item in unpack_blob(msg["items"])]
            send_frame(sock, {
                "type": "telemetry",
                "map_id": msg["map_id"],
                "shard_index": msg["shard_index"],
                "samples": [{"seq": 0, "phase": "compress", "freq_ghz": 2.0,
                             "power_w": 20.0, "runtime_s": 1.0,
                             "bytes_processed": 1000}],
            })
            send_frame(sock, {
                "type": "result",
                "map_id": msg["map_id"],
                "shard_index": msg["shard_index"],
                "shard_id": msg["shard_id"],
                "results": pack_blob(results),
            })


class TestMixedVersionFleets:
    """Each side skips frame types it does not know, so a coordinator
    and workers of different builds still complete a map."""

    def test_worker_skips_a_powercap_frame(self):
        ours, theirs = socket.socketpair()
        with ours, theirs:
            # Everything the coordinator says is queued before the
            # session starts, so the frame order alone drives it.
            send_frame(ours, {"type": "powercap", "node_id": "worker-0",
                              "cap_w": 30.0, "cap_ghz": 1.5,
                              "infeasible": False, "epoch": 1})
            send_frame(ours, {"type": "task", "map_id": "m0",
                              "fn": pack_blob(_square),
                              "items": pack_blob([3, 4]),
                              "item_indices": [0, 1],
                              "shard_index": 0, "shard_id": "s0"})
            send_frame(ours, {"type": "shutdown"})
            assert WorkerSession(theirs, heartbeat_s=60.0).run() == 0
            replies = []
            ours.settimeout(5.0)
            theirs.shutdown(socket.SHUT_WR)
            while (msg := recv_frame(ours)) is not None:
                if msg["type"] != "heartbeat":
                    replies.append(msg)
        assert [m["type"] for m in replies] == ["hello", "result"]
        assert replies[1]["shard_id"] == "s0"
        assert unpack_blob(replies[1]["results"]) == [9, 16]

    def test_coordinator_skips_telemetry_frames(self):
        ex = DistributedExecutor(1, spawn=False, listen="127.0.0.1:0",
                                 heartbeat_s=0.2, heartbeat_timeout_s=60.0)
        worker = threading.Thread(target=_older_build_worker,
                                  args=(ex.address,), daemon=True)
        worker.start()
        try:
            assert ex.map(_square, list(range(6))) == [
                x * x for x in range(6)
            ]
        finally:
            ex.close()
        # close() sends the shutdown frame the worker returns on.
        worker.join(timeout=10.0)
        assert not worker.is_alive()
