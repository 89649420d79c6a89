"""``campaign_sweep``: a cached checkpoint-campaign sweep on a two-worker fleet.

Set-up spawns a two-worker :class:`~repro.distributed.DistributedExecutor`.
One pass runs :func:`~repro.workflow.campaign.run_campaign_sweep` for
``sz`` and ``zfp`` on ``nyx/velocity_x`` 64^3 over nine points each:
three bounds times {Eqn. 3 pinned clocks, the ``adaptive`` governor,
``adaptive`` under a 30 W node budget}, two snapshots, ``repeats=3``.
A cycle is one cold pass on an empty disk-backed
:class:`~repro.cache.ResultCache`, then warm passes, each on a fresh
``ResultCache`` over that directory, which is what a repeated
``repro-tool campaign --cache-dir`` pays. The cold pass writes the
cache and the warm passes only read it, so a cache gain and a compute
gain move different figures.
"""

from __future__ import annotations

import os
import shutil
import time
from statistics import median

from common import Workload, pinned, sha256_hex
from repro.cache import ResultCache, encode_value, set_cache
from repro.core.tuning import PAPER_POLICY
from repro.data import load_field
from repro.distributed import DistributedExecutor
from repro.governor import GovernorSpec
from repro.hardware.cpu import SKYLAKE_4114
from repro.hardware.workload import WorkloadKind
from repro.parallel import Executor
from repro.workflow.campaign import (
    CampaignPoint,
    CheckpointCampaign,
    run_campaign_sweep,
)

CPU = SKYLAKE_4114
CODECS = ("sz", "zfp")
BOUNDS = (1e-2, 1e-3, 1e-4)
BUDGET_W = 30.0
WORKERS = 2
REPEATS = 3
WARM_PASSES = 10
CAMPAIGN = CheckpointCampaign(
    snapshot_bytes=int(128e9), n_snapshots=2, compute_interval_s=3600.0
)


def _process_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a fleet worker, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def sweep_points():
    pinned_clocks = dict(
        compress_freq_ghz=PAPER_POLICY.frequency_for(CPU, WorkloadKind.COMPRESS_SZ),
        write_freq_ghz=PAPER_POLICY.frequency_for(CPU, WorkloadKind.WRITE),
    )
    adaptive = GovernorSpec(kind="adaptive")
    points = []
    for bound in BOUNDS:
        points += [
            CampaignPoint(bound, **pinned_clocks),
            CampaignPoint(bound, governor=adaptive),
            CampaignPoint(bound, governor=adaptive, power_budget_w=BUDGET_W),
        ]
    return tuple(points)


class _TimedFleet(Executor):
    """Keeps the worker-clocked seconds ``map_timed`` returns (traced run)."""

    def __init__(self, inner: Executor, rec) -> None:
        super().__init__(inner.workers)
        self.name = inner.name
        self.inner = inner
        self.rec = rec
        self.task_s = 0.0
        self.items = 0

    def map(self, fn, items):
        with self.rec.span("distributed.map"):
            results, times = self.inner.map_timed(fn, items)
        self.task_s += sum(times)
        self.items += len(items)
        return results


class CampaignSweep(Workload):
    name = "campaign_sweep"

    def __init__(self, seed, scratch) -> None:
        super().__init__(seed, scratch)
        self.fleet = None
        self.passes = 0

    def setup(self) -> None:
        self.close()
        self.field = load_field("nyx", "velocity_x", scale=8, seed=self.seed)
        self.points = sweep_points()
        self.cold_s, self.warm_s, self.cold_digests = [], [], []
        # Warm-up: spawn the fleet and have each worker import the
        # campaign stack on a 16^3 sample; nothing is cached.
        set_cache(ResultCache(enabled=False))
        t0 = time.perf_counter()
        self.fleet = DistributedExecutor(WORKERS, cache_dir=None)
        tiny = load_field("nyx", "velocity_x", scale=32, seed=self.seed)
        for codec in CODECS:
            run_campaign_sweep(
                CPU, codec, tiny, self.points[:2 * WORKERS],
                CheckpointCampaign(snapshot_bytes=int(1e9), n_snapshots=1,
                                   compute_interval_s=0.0),
                repeats=1, seed=self.seed, executor=self.fleet,
            )
        self.spawn_s = time.perf_counter() - t0

    def cpu_seconds(self) -> float:
        return super().cpu_seconds() + sum(
            _process_cpu_seconds(pid) for pid in self.fleet.worker_pids())

    def _pass(self, kind: str, directory, executor) -> None:
        self.attempted += 1
        try:
            with self.rec.op(f"{kind}-{self.passes}", f"op.{kind}_sweep"):
                cpu = self.cpu_seconds()
                t0 = time.perf_counter()
                set_cache(ResultCache(disk_dir=str(directory)))
                reports = []
                for codec in CODECS:
                    with self.rec.span("workflow.sweep"):
                        reports.append(list(run_campaign_sweep(
                            CPU, codec, self.field, self.points, CAMPAIGN,
                            repeats=REPEATS, seed=self.seed, executor=executor,
                        )))
                elapsed = time.perf_counter() - t0
                cpu = self.cpu_seconds() - cpu
        except Exception as exc:  # one failed pass, not the run
            self.fail(f"{kind} pass: {type(exc).__name__}: {exc}")
            return
        finally:
            self.passes += 1
        self.latencies.append(elapsed)
        self.op_cpu.append(cpu)
        digest = sha256_hex(encode_value(reports).encode())
        if kind == "cold":
            self.cold_s.append(elapsed)
            self.cold_digests.append(digest)
        else:
            self.warm_s.append(elapsed)
            if digest != self.cold_digests[-1]:
                self.fail("a warm pass differs from its cold pass")

    def cycle(self) -> None:
        directory = self.scratch / f"campaign-cache-{os.getpid()}"
        shutil.rmtree(directory, ignore_errors=True)
        executor = (_TimedFleet(self.fleet, self.rec) if self.rec.enabled
                    else self.fleet)
        reassigned = len(self.fleet.reassignment_log)
        try:
            self._pass("cold", directory, executor)
            if self.cold_digests:
                for _ in range(WARM_PASSES):
                    self._pass("warm", directory, executor)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if self.rec.enabled:
            self.extra.update(
                spawn_s=self.spawn_s,
                task_busy_s=executor.task_s,
                points_computed=executor.items,
                points=len(self.points) * len(CODECS) * (1 + WARM_PASSES),
                reassignments=len(self.fleet.reassignment_log) - reassigned,
            )

    def verify(self) -> None:
        pins = pinned(self.name, self.seed)
        if pins is not None:
            reference = pins["cold_sha256"]
        else:
            # The serial executor is the reference every backend matches.
            set_cache(ResultCache(enabled=False))
            reference = sha256_hex(encode_value([
                list(run_campaign_sweep(
                    CPU, codec, self.field, self.points, CAMPAIGN,
                    repeats=REPEATS, seed=self.seed, executor="serial",
                ))
                for codec in CODECS
            ]).encode())
        self.digests = {"cold_sha256": reference}
        wrong = sum(1 for d in self.cold_digests if d != reference)
        if wrong:
            self.fail("cold pass differs from the serial-executor reference",
                      wrong)

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None

    def named_metrics(self, elapsed_s):
        return {
            "cold_sweep_s": (median(self.cold_s), "s"),
            "warm_sweep_s": (median(self.warm_s), "s"),
        }
