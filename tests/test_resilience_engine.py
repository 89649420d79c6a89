"""Unit tests for the fault injector and the recovery engine."""

import numpy as np
import pytest

from repro.compressors import get_compressor
from repro.compressors.chunked import ChunkedCompressor
from repro.hardware.cpu import get_cpu
from repro.hardware.node import SimulatedNode
from repro.iosim.nfs import NfsTarget
from repro.resilience import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RecoveryPolicy,
    ResilienceEngine,
    RetryPolicy,
    SnapshotLostError,
)


def plan_of(*specs, seed=0, policy_doc=None):
    return FaultPlan(specs=tuple(specs), seed=seed, policy_doc=policy_doc)


class TestFaultInjector:
    def test_triggers_are_deterministic(self):
        plan = plan_of(FaultSpec(FaultKind.NFS_STALL, probability=0.5), seed=11)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        for snapshot in range(6):
            for attempt in (1, 2, 3):
                assert (a.write_faults(snapshot, attempt)
                        == b.write_faults(snapshot, attempt))

    def test_probability_actually_varies_across_snapshots(self):
        plan = plan_of(FaultSpec(FaultKind.NFS_STALL, probability=0.5), seed=3)
        inj = FaultInjector(plan)
        fired = [bool(inj.write_faults(s, 1)) for s in range(40)]
        assert any(fired) and not all(fired)

    def test_snapshot_and_attempt_gates(self):
        plan = plan_of(
            FaultSpec(FaultKind.NFS_TRANSIENT_ERROR, probability=1.0,
                      snapshots=(2,), attempts=1),
        )
        inj = FaultInjector(plan)
        assert inj.write_faults(2, 1)
        assert not inj.write_faults(2, 2)   # clears on retry
        assert not inj.write_faults(1, 1)   # other snapshot untouched

    def test_compress_faults_never_reach_write_stage(self):
        plan = plan_of(FaultSpec(FaultKind.WORKER_CRASH, probability=1.0))
        assert FaultInjector(plan).write_faults(0, 1) == []

    def test_throttle_cap_is_min_of_firing_specs(self):
        plan = plan_of(
            FaultSpec(FaultKind.DVFS_THROTTLE, probability=1.0, severity=0.9),
            FaultSpec(FaultKind.DVFS_THROTTLE, probability=1.0, severity=0.6),
        )
        assert FaultInjector(plan).compress_frequency_cap(0) == 0.6
        assert FaultInjector(plan_of()).compress_frequency_cap(0) is None

    def test_crashes_clear_after_first_attempt_by_default(self):
        plan = plan_of(FaultSpec(FaultKind.WORKER_CRASH, probability=1.0,
                                 targets=(0, 2)))
        inj = FaultInjector(plan)
        assert inj.crashing_slabs(0, 1, n_slabs=4) == (0, 2)
        assert inj.crashing_slabs(0, 2, n_slabs=4) == ()

    def test_persistent_crash_with_attempts(self):
        plan = plan_of(FaultSpec(FaultKind.WORKER_CRASH, probability=1.0,
                                 targets=(1,), attempts=2))
        inj = FaultInjector(plan)
        assert inj.crashing_slabs(0, 1, 4) == (1,)
        assert inj.crashing_slabs(0, 2, 4) == (1,)
        assert inj.crashing_slabs(0, 3, 4) == ()

    def test_out_of_range_targets_ignored(self):
        plan = plan_of(FaultSpec(FaultKind.WORKER_CRASH, probability=1.0,
                                 targets=(7,)))
        assert FaultInjector(plan).crashing_slabs(0, 1, n_slabs=4) == ()

    def test_flipped_chunks_deterministic(self):
        plan = plan_of(FaultSpec(FaultKind.BIT_FLIP, probability=0.5), seed=5)
        inj = FaultInjector(plan)
        first = inj.flipped_chunks(0, 16)
        assert inj.flipped_chunks(0, 16) == first

    def test_slab_wrapper_crashes_then_clears(self):
        plan = plan_of(FaultSpec(FaultKind.WORKER_CRASH, probability=1.0,
                                 targets=(1,)))
        wrapper = FaultInjector(plan).slab_wrapper(snapshot=0, n_slabs=3)
        assert wrapper.any_planned
        fn = wrapper(lambda item: item * 10)
        assert fn((0, 5)) == 50
        with pytest.raises(RuntimeError, match="slab 1 crashed"):
            fn((1, 5))
        fn.attempt = 2  # what Executor.map_retry does between rounds
        assert fn((1, 5)) == 50


class TestRunWrite:
    NBYTES = 10**8

    @pytest.fixture()
    def node(self):
        return SimulatedNode(get_cpu("skylake"), seed=0)

    def run(self, node, plan, policy=None):
        engine = ResilienceEngine(plan, policy)
        write, res = engine.run_write(
            node, NfsTarget(), self.NBYTES, node.cpu.fmax_ghz, 0, repeats=1
        )
        return write.stage, write.freq_ghz, write.runtime_s, write.energy_j, res

    def test_clean_plan_single_attempt(self, node):
        stage, freq, runtime, energy, res = self.run(node, plan_of())
        assert stage == "write"
        assert res.attempts == 1 and res.clean
        assert res.energy_overhead_j == 0.0
        assert energy > 0

    def test_transient_error_retries_then_succeeds(self, node):
        plan = plan_of(FaultSpec(FaultKind.NFS_TRANSIENT_ERROR,
                                 probability=1.0, attempts=1, severity=0.5))
        stage, freq, runtime, energy, res = self.run(node, plan)
        assert stage == "write"
        assert res.attempts == 2
        assert res.retries == 1
        assert res.retried_bytes == self.NBYTES
        assert res.energy_overhead_j > 0
        assert res.time_overhead_s > 0
        assert not res.failover and not res.lost
        outcomes = [r.outcome for r in res.records]
        assert outcomes == ["failed", "ok"]

    def test_hard_failure_fails_over(self, node):
        plan = plan_of(FaultSpec(FaultKind.NFS_HARD_FAILURE, probability=1.0))
        stage, freq, runtime, energy, res = self.run(node, plan)
        assert stage == "write-failover"
        assert res.failover and not res.lost
        assert res.attempts == RetryPolicy().max_attempts + 1
        assert res.energy_overhead_j > 0
        assert energy > 0  # the burst-buffer write is measured for real

    def test_skip_on_exhaustion(self, node):
        plan = plan_of(FaultSpec(FaultKind.NFS_HARD_FAILURE, probability=1.0))
        policy = RecoveryPolicy(failover=False, skip_on_exhaustion=True)
        stage, freq, runtime, energy, res = self.run(node, plan, policy)
        assert stage == "write-skipped"
        assert res.lost
        assert runtime == 0.0 and energy == 0.0
        assert res.energy_overhead_j > 0  # the failed attempts still cost

    def test_no_recovery_raises(self, node):
        plan = plan_of(FaultSpec(FaultKind.NFS_HARD_FAILURE, probability=1.0))
        policy = RecoveryPolicy(failover=False, skip_on_exhaustion=False)
        with pytest.raises(SnapshotLostError, match="snapshot 0"):
            self.run(node, plan, policy)

    def test_stall_costs_time_and_energy_without_failing(self, node):
        plan = plan_of(FaultSpec(FaultKind.NFS_STALL, probability=1.0,
                                 stall_s=30.0))
        stage, freq, runtime, energy, res = self.run(node, plan)
        assert stage == "write"
        assert res.attempts == 1
        assert res.time_overhead_s == pytest.approx(30.0)
        assert res.energy_overhead_j > 0

    def test_slowdown_retunes_to_lower_frequency(self, node):
        plan = plan_of(FaultSpec(FaultKind.NFS_SLOWDOWN, probability=1.0,
                                 severity=0.6))
        stage, freq, runtime, energy, res = self.run(node, plan)
        assert stage == "write"
        # Degraded bandwidth makes the write less CPU-bound, so the
        # re-tuned clock must not exceed the base request.
        assert freq <= node.cpu.fmax_ghz
        assert "nfs-slowdown" in res.faults

    def test_deep_throttle_clamps_to_dvfs_floor(self, node):
        # severity 0.2 caps the clock at 0.44 GHz on skylake, below the
        # 0.8 GHz DVFS floor; the engine must clamp instead of raising.
        plan = plan_of(FaultSpec(FaultKind.DVFS_THROTTLE, probability=1.0,
                                 severity=0.2))
        stage, freq, runtime, energy, res = self.run(node, plan)
        assert stage == "write"
        assert freq == pytest.approx(node.cpu.fmin_ghz)
        assert "dvfs-throttle" in res.faults

    def test_policy_from_plan_doc(self, node):
        plan = plan_of(
            FaultSpec(FaultKind.NFS_HARD_FAILURE, probability=1.0),
            policy_doc={"retry": {"max_attempts": 2}, "failover": False,
                        "skip_on_exhaustion": True},
        )
        stage, _, _, _, res = self.run(node, plan)
        assert stage == "write-skipped"
        assert res.attempts == 2


class TestVerifyContainer:
    def test_planned_flips_are_detected(self):
        arr = np.linspace(0.0, 1.0, 256).reshape(32, 8)
        cc = ChunkedCompressor(get_compressor("gzip"), max_chunk_bytes=512,
                               executor="serial")
        container = cc.compress(arr, 1e-3)
        assert len(container.chunks) >= 3
        plan = plan_of(FaultSpec(FaultKind.BIT_FLIP, probability=1.0,
                                 targets=(0, 2)))
        engine = ResilienceEngine(plan)
        assert engine.verify_container(container, snapshot=0) == (0, 2)

    def test_no_flips_planned_is_noop(self):
        arr = np.linspace(0.0, 1.0, 64).reshape(8, 8)
        cc = ChunkedCompressor(get_compressor("gzip"), max_chunk_bytes=256,
                               executor="serial")
        container = cc.compress(arr, 1e-3)
        engine = ResilienceEngine(plan_of())
        assert engine.verify_container(container, snapshot=0) == ()
