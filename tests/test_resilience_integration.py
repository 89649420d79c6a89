"""End-to-end resilience scenarios through campaign, sweep and dumper.

The acceptance scenario from the issue: an injected NFS hard failure,
recovered by retry + burst-buffer failover, must complete the campaign
with nonzero reported ``energy_overhead_j`` and **zero** lost
snapshots. Alongside it: a pinned golden report for a seeded plan (the
determinism contract, committed), cross-executor equality for faulted
sweeps, and the regression for sweep errors being surfaced instead of
swallowed as cancellations.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.cache import ResultCache, use_cache
from repro.compressors import SZCompressor
from repro.governor import make_governor
from repro.hardware.cpu import get_cpu
from repro.hardware.node import SimulatedNode
from repro.iosim.dumper import DataDumper
from repro.resilience import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    RecoveryPolicy,
    RetryPolicy,
    SnapshotLostError,
)
from repro.workflow.campaign import (
    CheckpointCampaign,
    RunConfig,
    run_campaign,
    run_campaign_sweep,
)

CPU = get_cpu("skylake")
FIELD = np.random.default_rng(7).normal(size=(48, 8)).astype(np.float64)
CAMPAIGN = CheckpointCampaign(
    snapshot_bytes=10**9, n_snapshots=2, compute_interval_s=60.0
)

#: The committed golden plan: a hard failure on snapshot 0 (forcing the
#: full retry budget and a failover leg) plus a one-shot transient error
#: on snapshot 1.
GOLDEN_PLAN = FaultPlan(specs=(
    FaultSpec(FaultKind.NFS_HARD_FAILURE, probability=1.0, snapshots=(0,)),
    FaultSpec(FaultKind.NFS_TRANSIENT_ERROR, probability=1.0, snapshots=(1,),
              attempts=1, severity=0.5),
), seed=42)

GOLDEN_POINTS = (RunConfig(error_bound=1e-2),
                 RunConfig(error_bound=1e-3))


def planned(points, plan):
    """*points* with *plan* riding in each."""
    return tuple(RunConfig(p.error_bound, fault_plan=plan) for p in points)


def golden_sweep(executor="serial", workers=None):
    # Uncached, so every backend really runs (a warm process cache
    # would serve one run's entries to the next).
    with use_cache(ResultCache(enabled=False)):
        return run_campaign_sweep(
            CPU, "sz", FIELD, planned(GOLDEN_POINTS, GOLDEN_PLAN), CAMPAIGN,
            repeats=1, seed=0, executor=executor, workers=workers,
        )


class TestAcceptanceScenario:
    """Hard failure -> retries -> failover -> campaign completes."""

    def run(self, plan=None):
        node = SimulatedNode(CPU, seed=0)
        return run_campaign(
            node, SZCompressor(), FIELD, RunConfig(1e-2, fault_plan=plan),
            CAMPAIGN, repeats=1,
        )

    def test_hard_failure_recovers_with_overhead_and_no_loss(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.NFS_HARD_FAILURE, probability=1.0),
        ), seed=0)
        report = self.run(plan)
        assert report.snapshots_lost == 0
        assert report.energy_overhead_j > 0.0
        budget = RetryPolicy().max_attempts
        assert report.attempts == CAMPAIGN.n_snapshots * (budget + 1)
        for snap in report.snapshots:
            assert snap.resilience.failover
            assert snap.write.stage == "write-failover"
        # Recovery is not free: the faulted campaign costs more than a
        # clean one end to end.
        assert report.total_energy_j > self.run(None).total_energy_j

    def test_resilience_cost_is_part_of_the_totals(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.NFS_TRANSIENT_ERROR, probability=1.0,
                      attempts=1, severity=0.5),
        ), seed=0)
        clean = self.run(None)
        faulted = self.run(plan)
        assert faulted.total_energy_j == pytest.approx(
            clean.total_energy_j + faulted.energy_overhead_j, rel=1e-12
        )
        assert faulted.retried_bytes > 0


class TestGoldenReport:
    """Pinned deterministic numbers for the committed golden plan.

    These values are a contract: they must reproduce on any machine and
    any executor backend. If a deliberate change to the fault plane
    moves them, re-pin and say why in the commit.
    """

    def test_pinned_values(self):
        reports = golden_sweep()
        assert [rep.attempts for rep in reports] == [6, 6]
        assert [rep.snapshots_lost for rep in reports] == [0, 0]
        assert [rep.retried_bytes for rep in reports] == [
            1_473_958_332, 1_955_729_168,
        ]
        assert [rep.energy_overhead_j for rep in reports] == [
            pytest.approx(68.3563126365458, rel=1e-9),
            pytest.approx(81.17729838165438, rel=1e-9),
        ]
        outcomes = [
            [a.outcome for a in snap.resilience.records]
            for rep in reports for snap in rep.snapshots
        ]
        assert outcomes == [
            ["failed", "failed", "failed", "failover"], ["failed", "ok"],
        ] * 2

    @pytest.mark.parametrize("executor", ["thread", "process", "distributed"])
    def test_identical_across_executors(self, executor):
        assert golden_sweep(executor, workers=2) == golden_sweep()

    def test_identical_under_env_selected_executor(self):
        # CI's resilience job matrix sets REPRO_TEST_EXECUTOR to pin
        # one backend per leg; locally this defaults to serial.
        executor = os.environ.get("REPRO_TEST_EXECUTOR", "serial")
        workers = None if executor == "serial" else 2
        assert golden_sweep(executor, workers=workers) == golden_sweep()


class TestSweepFailureSurfacing:
    """Worker exceptions must surface, not vanish as cancellations."""

    LETHAL = FaultPlan(
        specs=(FaultSpec(FaultKind.NFS_HARD_FAILURE, probability=1.0),),
        seed=0,
        policy_doc={"failover": False, "skip_on_exhaustion": False},
    )

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_snapshot_loss_raises_cleanly(self, executor):
        with pytest.raises(SnapshotLostError, match="snapshot 0"):
            run_campaign_sweep(
                CPU, "sz", FIELD, planned(GOLDEN_POINTS, self.LETHAL),
                CAMPAIGN, repeats=1, seed=0, executor=executor, workers=2,
            )

    def test_first_point_failure_wins_under_process_pool(self):
        # Only the FIRST point's snapshot 1 fails; the raised error must
        # name that snapshot even when later points finish first.
        plan = FaultPlan(
            specs=(FaultSpec(FaultKind.NFS_HARD_FAILURE, probability=1.0,
                             snapshots=(1,)),),
            seed=0,
            policy_doc={"failover": False, "skip_on_exhaustion": False},
        )
        with pytest.raises(SnapshotLostError, match="snapshot 1"):
            run_campaign_sweep(
                CPU, "sz", FIELD, planned(GOLDEN_POINTS, plan), CAMPAIGN,
                repeats=1, seed=0, executor="process", workers=2,
            )


class TestChunkedDumpResilience:
    """Compress-side faults: slab crashes and bit-flip corruption."""

    def dump(self, plan, chunk_bytes=1024):
        node = SimulatedNode(CPU, seed=0)
        dumper = DataDumper(node, repeats=1, chunk_bytes=chunk_bytes,
                            executor="serial")
        return dumper.dump(SZCompressor(), FIELD,
                           RunConfig(1e-2, fault_plan=plan), 10**9,
                           snapshot_index=0)

    def test_worker_crash_is_retried_and_charged(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.WORKER_CRASH, probability=1.0, targets=(1,)),
        ), seed=0)
        clean = self.dump(None)
        faulted = self.dump(plan)
        res = faulted.resilience
        assert "worker-crash" in res.faults
        assert res.retried_bytes > 0
        assert res.energy_overhead_j > 0
        assert not res.lost
        # The retried slab reproduces the clean bytes: compression
        # output is independent of the crash-and-retry detour.
        assert faulted.compression_ratio == clean.compression_ratio
        assert faulted.write.bytes_processed == clean.write.bytes_processed

    def test_bit_flip_is_detected_and_charged(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.BIT_FLIP, probability=1.0, targets=(0,)),
        ), seed=0)
        report = self.dump(plan)
        res = report.resilience
        assert "bit-flip" in res.faults
        assert res.retried_bytes > 0
        assert res.energy_overhead_j > 0
        assert not res.lost

    def test_combined_compress_and_write_faults(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.WORKER_CRASH, probability=1.0, targets=(0,)),
            FaultSpec(FaultKind.NFS_TRANSIENT_ERROR, probability=1.0,
                      attempts=1, severity=0.5),
        ), seed=0)
        res = self.dump(plan).resilience
        assert set(res.faults) >= {"worker-crash", "nfs-transient-error"}
        assert res.attempts == 2  # the write retried once


class TestGovernedSkippedWrite:
    """A governed dump whose every write attempt fails, under a policy
    that skips instead of failing over: the run completes, the snapshot
    counts as lost, and the governor learns only from the compress
    stage that ran (a skipped write has no power to observe)."""

    PLAN = FaultPlan(specs=(
        FaultSpec(FaultKind.NFS_HARD_FAILURE, probability=1.0),
    ), seed=0)
    POLICY = RecoveryPolicy(failover=False, skip_on_exhaustion=True)
    RUN = RunConfig(1e-2, fault_plan=replace(PLAN, policy_doc=POLICY.as_dict()))

    @staticmethod
    def executor():
        # CI's resilience job matrix sets REPRO_TEST_EXECUTOR; 1 KiB
        # slabs split FIELD into three, so the backend really runs.
        executor = os.environ.get("REPRO_TEST_EXECUTOR", "serial")
        return {"chunk_bytes": 1024, "executor": executor,
                "workers": None if executor == "serial" else 2}

    def test_dump_returns_the_skipped_write(self):
        governor = make_governor("adaptive", CPU)
        dumper = DataDumper(SimulatedNode(CPU, seed=0), repeats=1,
                            **self.executor())
        report = dumper.dump(SZCompressor(), FIELD, self.RUN, 10**9,
                             governor=governor)
        assert report.write.stage == "write-skipped"
        assert report.resilience.lost
        assert [s.phase for s in governor.telemetry.samples()] == ["compress"]

    def test_campaign_counts_each_snapshot_lost(self):
        governor = make_governor("adaptive", CPU)
        report = run_campaign(
            SimulatedNode(CPU, seed=0), SZCompressor(), FIELD, self.RUN,
            CAMPAIGN, repeats=1, governor=governor, **self.executor(),
        )
        assert report.snapshots_lost == CAMPAIGN.n_snapshots
        assert [snap.write.stage for snap in report.snapshots] == [
            "write-skipped"] * CAMPAIGN.n_snapshots
        assert [s.phase for s in governor.telemetry.samples()] == [
            "compress"] * CAMPAIGN.n_snapshots
