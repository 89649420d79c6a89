"""Chaos suite: SIGKILL workers mid-campaign, demand byte-identity.

The distributed executor's core promise is that worker death is
*invisible* in the results: a campaign sweep that loses a worker
mid-flight must produce output byte-identical (via the cache's
canonical encoding) to a serial golden run, with zero lost points and
reassignment counters that account for every requeued shard exactly.

Kills are injected two ways:

* the executor's deterministic ``chaos_kill_after`` knob (SIGKILL one
  busy worker after the Nth shard commit), giving exact counter
  accounting;
* an external ``os.kill(pid, SIGKILL)`` on a pid from
  :meth:`worker_pids`, the way an operator or OOM killer would.

A third family exercises the failure *boundary*: a poison shard that
kills every worker it touches must exhaust its kill budget and fail
the map with :class:`WorkerLostError` instead of respawning forever.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.cache import ResultCache, encode_value, set_cache
from repro.distributed import DistributedExecutor, FleetError, WorkerLostError
from repro.hardware.cpu import SKYLAKE_4114
from repro.observability.metrics import get_registry
from repro.workflow.campaign import CheckpointCampaign, run_campaign_sweep


@pytest.fixture(scope="module")
def sample():
    from repro.data import load_field

    return load_field("nyx", "velocity_x", scale=32)


@pytest.fixture(autouse=True)
def fresh_cache():
    # Each test controls its own cache so parent-side campaign lookups
    # can't leak warm entries between tests.
    previous = set_cache(ResultCache())
    yield
    set_cache(previous)


CAMPAIGN = CheckpointCampaign(
    snapshot_bytes=int(16e9), n_snapshots=2, compute_interval_s=600.0
)
BOUNDS = (1e-1, 5e-2, 1e-2, 5e-3, 1e-3, 5e-4)


def _slow_square(x):
    time.sleep(0.15)
    return x * x


def _die_on_poison(x):
    if x == 13:
        os.kill(os.getpid(), signal.SIGKILL)
    return x + 1


def _reassignment_counter():
    return get_registry().counter(
        "repro_dist_reassignments_total",
        help="In-flight shards requeued after a worker died",
    )


class TestChaosKnobCampaign:
    def test_sweep_with_mid_campaign_kill_is_byte_identical(self, sample):
        golden = run_campaign_sweep(
            SKYLAKE_4114, "sz", sample, BOUNDS, CAMPAIGN,
            repeats=1, seed=3, executor="serial",
        )
        # The golden run warmed the parent cache; the distributed run
        # must recompute every point or the chaos never sees work.
        set_cache(ResultCache())
        counter = _reassignment_counter()
        before = counter.value
        ex = DistributedExecutor(
            2, chaos_kill_after=1, heartbeat_s=0.2, heartbeat_timeout_s=5.0
        )
        try:
            chaotic = run_campaign_sweep(
                SKYLAKE_4114, "sz", sample, BOUNDS, CAMPAIGN,
                repeats=1, seed=3, executor=ex, workers=2,
            )
            log = list(ex.reassignment_log)
        finally:
            ex.close()

        # Zero lost points, byte-identical to the golden run.
        assert len(chaotic) == len(BOUNDS)
        assert encode_value(list(chaotic)) == encode_value(list(golden))
        # A busy worker was SIGKILLed holding a shard, so at least one
        # reassignment happened — and the counter accounts for every
        # entry in the executor's reassignment log exactly.
        assert len(log) >= 1
        assert counter.value == before + len(log)

    def test_killed_worker_is_really_gone(self):
        ex = DistributedExecutor(
            2, chaos_kill_after=2, heartbeat_s=0.2, heartbeat_timeout_s=5.0
        )
        try:
            out = ex.map(_slow_square, list(range(12)))
            assert out == [x * x for x in range(12)]
            # The chaos kill fired exactly once (the knob is one-shot).
            assert ex._chaos_done
        finally:
            ex.close()


class TestExternalSigkill:
    def test_external_kill_mid_map_completes_identically(self):
        ex = DistributedExecutor(2, heartbeat_s=0.2, heartbeat_timeout_s=5.0)
        killed = {}

        def killer():
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                pids = ex.worker_pids()
                if pids:
                    killed["pid"] = pids[0]
                    os.kill(pids[0], signal.SIGKILL)
                    return
                time.sleep(0.05)

        try:
            thread = threading.Thread(target=killer)
            thread.start()
            out = ex.map(_slow_square, list(range(16)))
            thread.join()
            assert out == [x * x for x in range(16)]
            assert "pid" in killed
            # The victim is no longer in the live fleet.
            assert killed["pid"] not in ex.worker_pids()
        finally:
            ex.close()

    def test_fleet_keeps_working_after_the_kill(self):
        ex = DistributedExecutor(2, heartbeat_s=0.2, heartbeat_timeout_s=5.0)
        try:
            ex.map(_slow_square, [1, 2, 3, 4])
            os.kill(ex.worker_pids()[0], signal.SIGKILL)
            # The next map still completes (respawn or surviving worker).
            assert ex.map(_slow_square, [5, 6, 7]) == [25, 36, 49]
        finally:
            ex.close()


class TestWarmSharedCache:
    def test_partially_warm_disk_cache_stays_byte_identical(
        self, sample, tmp_path
    ):
        golden = run_campaign_sweep(
            SKYLAKE_4114, "sz", sample, BOUNDS, CAMPAIGN,
            repeats=1, seed=3, executor="serial",
        )
        cache_dir = str(tmp_path / "fleet-cache")
        # Warm half the points through the shared store...
        set_cache(ResultCache(disk_dir=cache_dir))
        run_campaign_sweep(
            SKYLAKE_4114, "sz", sample, BOUNDS[:3], CAMPAIGN,
            repeats=1, seed=3, executor="serial",
        )
        # ...then sweep the full set distributed, sharing that store.
        set_cache(ResultCache(disk_dir=cache_dir))
        ex = DistributedExecutor(
            2, chaos_kill_after=1, heartbeat_s=0.2, heartbeat_timeout_s=5.0
        )
        try:
            warm = run_campaign_sweep(
                SKYLAKE_4114, "sz", sample, BOUNDS, CAMPAIGN,
                repeats=1, seed=3, executor=ex, workers=2,
            )
        finally:
            ex.close()
        assert encode_value(list(warm)) == encode_value(list(golden))

    def test_workers_inherit_the_shared_store(self, tmp_path):
        cache_dir = str(tmp_path / "shared")
        set_cache(ResultCache(disk_dir=cache_dir))
        ex = DistributedExecutor(2, heartbeat_s=0.2, heartbeat_timeout_s=5.0)
        try:
            assert ex._resolved_cache_dir() == cache_dir
            assert ex.map(_slow_square, [1, 2, 3]) == [1, 4, 9]
        finally:
            ex.close()


class TestKillBudget:
    def test_poison_shard_exhausts_budget_and_raises(self):
        ex = DistributedExecutor(
            2, shard_kill_budget=2, max_respawns=8,
            heartbeat_s=0.2, heartbeat_timeout_s=5.0,
        )
        try:
            with pytest.raises(WorkerLostError, match="worker deaths"):
                ex.map(_die_on_poison, list(range(20)))
        finally:
            ex.close()

    def test_healthy_items_unaffected_by_budget_knob(self):
        ex = DistributedExecutor(
            2, shard_kill_budget=1, heartbeat_s=0.2, heartbeat_timeout_s=5.0
        )
        try:
            assert ex.map(_slow_square, list(range(6))) == [
                x * x for x in range(6)
            ]
        finally:
            ex.close()


class _StillbornExecutor(DistributedExecutor):
    """Spawns worker processes that exit before they ever connect."""

    def _spawn_worker(self):
        proc = subprocess.Popen([sys.executable, "-c", "raise SystemExit(3)"])
        with self._lock:
            self._spawned_procs.append(proc)
        return proc


class TestStartupDeaths:
    def test_fleet_that_cannot_assemble_fails_without_waiting(self):
        # Nothing is left joining and no death was admitted to respawn,
        # so the start-up wait raises at once instead of running out
        # its spawn timeout.
        ex = _StillbornExecutor(2, spawn_timeout_s=3600.0)
        try:
            with pytest.raises(FleetError, match="none is starting"):
                ex.map(_slow_square, [1, 2, 3])
        finally:
            ex.close()
