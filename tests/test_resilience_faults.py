"""Unit tests for fault plans, specs and recovery policies."""

import numpy as np
import pytest

from repro.hardware.cpu import get_cpu
from repro.hardware.node import SimulatedNode
from repro.hardware.workload import write_workload
from repro.resilience import (
    FaultKind,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    RecoveryPolicy,
    RetryPolicy,
    example_plan,
)
from repro.resilience.engine import _degraded_write_frequency


class TestFaultSpec:
    def test_kind_coerced_from_string(self):
        spec = FaultSpec(kind="nfs-stall")
        assert spec.kind is FaultKind.NFS_STALL

    def test_probability_bounds(self):
        FaultSpec(FaultKind.NFS_STALL, probability=0.0)
        FaultSpec(FaultKind.NFS_STALL, probability=1.0)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.NFS_STALL, probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.NFS_STALL, probability=-0.1)

    def test_factor_kinds_need_strict_severity(self):
        # A slowdown/throttle severity of 0 or 1 is degenerate.
        for kind in (FaultKind.NFS_SLOWDOWN, FaultKind.DVFS_THROTTLE):
            with pytest.raises(ValueError):
                FaultSpec(kind, severity=1.0)
            with pytest.raises(ValueError):
                FaultSpec(kind, severity=0.0)
            FaultSpec(kind, severity=0.5)
        # Transient errors may waste the whole write (severity=1).
        FaultSpec(FaultKind.NFS_TRANSIENT_ERROR, severity=1.0)

    def test_attempts_validation(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(FaultKind.NFS_STALL, attempts=0)

    def test_negative_indices_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(FaultKind.WORKER_CRASH, targets=(-1,))
        with pytest.raises(FaultPlanError):
            FaultSpec(FaultKind.NFS_STALL, snapshots=(0, -2))

    def test_applies_to_gating(self):
        spec = FaultSpec(FaultKind.NFS_TRANSIENT_ERROR, snapshots=(1, 3),
                         attempts=2)
        assert spec.applies_to(1, 1)
        assert spec.applies_to(3, 2)
        assert not spec.applies_to(2, 1)   # wrong snapshot
        assert not spec.applies_to(1, 3)   # attempt past the limit

    def test_dict_round_trip(self):
        spec = FaultSpec(FaultKind.NFS_STALL, probability=0.5,
                         snapshots=(0, 2), attempts=2, stall_s=7.5)
        assert FaultSpec.from_dict(spec.as_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(FaultPlanError, match="unknown fault fields"):
            FaultSpec.from_dict({"kind": "nfs-stall", "chaos": True})

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultSpec.from_dict({"kind": "meteor-strike"})

    def test_kind_taxonomy(self):
        assert FaultKind.NFS_HARD_FAILURE.fails_attempt
        assert FaultKind.NFS_TRANSIENT_ERROR.fails_attempt
        assert not FaultKind.NFS_STALL.fails_attempt
        assert FaultKind.WORKER_CRASH.is_compress_fault
        assert not FaultKind.WORKER_CRASH.is_write_fault
        assert FaultKind.DVFS_THROTTLE.is_write_fault
        assert FaultKind.DVFS_THROTTLE.is_compress_fault


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = example_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        plan = example_plan()
        plan.to_file(path)
        assert FaultPlan.from_file(path) == plan

    def test_is_empty(self):
        assert FaultPlan().is_empty
        assert FaultPlan(specs=(
            FaultSpec(FaultKind.NFS_STALL, probability=0.0),
        )).is_empty
        assert not FaultPlan(specs=(
            FaultSpec(FaultKind.NFS_STALL, probability=0.1),
        )).is_empty

    def test_kinds_sorted_unique(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.NFS_STALL),
            FaultSpec(FaultKind.BIT_FLIP),
            FaultSpec(FaultKind.NFS_STALL, probability=0.5),
        ))
        assert plan.kinds() == ("bit-flip", "nfs-stall")

    def test_malformed_json_raises_plan_error(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json("{broken")

    def test_non_object_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json("[1, 2]")
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"faults": "oops"})

    def test_unknown_top_level_fields_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown top-level"):
            FaultPlan.from_dict({"seeds": 3})

    def test_specs_must_be_fault_specs(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(specs=({"kind": "nfs-stall"},))

    def test_plan_error_is_value_error(self):
        # The CLI's error handler catches ValueError; plan errors must
        # flow through it rather than crash with a traceback.
        assert issubclass(FaultPlanError, ValueError)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(FaultPlanError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_backoff_deterministic_and_capped(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_cap_s=4.0, jitter=0.1)
        values = [policy.backoff_s(a, seed=3, snapshot=0) for a in (1, 2, 3, 4, 5)]
        again = [policy.backoff_s(a, seed=3, snapshot=0) for a in (1, 2, 3, 4, 5)]
        assert values == again
        # Exponential growth up to the cap, within the jitter envelope.
        for attempt, value in enumerate(values, start=1):
            raw = min(4.0, 2.0 ** (attempt - 1))
            assert raw * 0.9 <= value <= raw * 1.1

    def test_backoff_varies_with_seed_and_snapshot(self):
        policy = RetryPolicy(jitter=0.5)
        a = policy.backoff_s(1, seed=0, snapshot=0)
        b = policy.backoff_s(1, seed=1, snapshot=0)
        c = policy.backoff_s(1, seed=0, snapshot=1)
        assert len({a, b, c}) == 3

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(backoff_base_s=2.0, backoff_cap_s=100.0, jitter=0.0)
        assert policy.backoff_s(3, seed=9, snapshot=9) == 8.0

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_s(0, seed=0, snapshot=0)

    def test_dict_round_trip(self):
        policy = RetryPolicy(max_attempts=5, backoff_base_s=0.5,
                             backoff_cap_s=8.0, jitter=0.25)
        assert RetryPolicy.from_dict(policy.as_dict()) == policy

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(FaultPlanError, match="unknown retry fields"):
            RetryPolicy.from_dict({"max_retries": 3})


class TestRecoveryPolicy:
    def test_defaults_from_none(self):
        assert RecoveryPolicy.from_dict(None) == RecoveryPolicy()

    def test_dict_round_trip(self):
        policy = RecoveryPolicy(
            retry=RetryPolicy(max_attempts=2), failover=False,
            degraded_retune=False, skip_on_exhaustion=False,
        )
        assert RecoveryPolicy.from_dict(policy.as_dict()) == policy

    def test_unknown_fields_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown policy fields"):
            RecoveryPolicy.from_dict({"fail_over": True})
        with pytest.raises(FaultPlanError):
            RecoveryPolicy.from_dict("retry hard")

    def test_example_plan_policy_parses(self):
        policy = RecoveryPolicy.from_dict(example_plan().policy_doc)
        assert policy.retry.max_attempts == 4
        assert policy.failover


class TestRetuneWriteFrequency:
    @pytest.fixture(scope="class")
    def node(self):
        return SimulatedNode(get_cpu("skylake"), seed=0)

    def test_returns_grid_frequency(self, node):
        wl = write_workload(10**8, 100e6, name="retune-test")
        freq = _degraded_write_frequency(node, wl, None)
        assert freq in np.asarray(node.cpu.available_frequencies())

    def test_cap_is_respected(self, node):
        wl = write_workload(10**8, 100e6, name="retune-test")
        grid = np.asarray(node.cpu.available_frequencies())
        cap = float(np.median(grid))
        freq = _degraded_write_frequency(node, wl, cap_ghz=cap)
        assert freq <= cap + 1e-9

    def test_minimizes_true_energy(self, node):
        wl = write_workload(10**8, 100e6, name="retune-test")
        freq = _degraded_write_frequency(node, wl, None)
        chosen = node.true_power_w(wl, freq) * node.true_runtime_s(wl, freq)
        for f in node.cpu.available_frequencies():
            other = node.true_power_w(wl, f) * node.true_runtime_s(wl, f)
            assert chosen <= other + 1e-9

    def test_cap_below_grid_falls_back_to_lowest(self, node):
        wl = write_workload(10**8, 100e6, name="retune-test")
        grid = np.asarray(node.cpu.available_frequencies())
        freq = _degraded_write_frequency(node, wl, cap_ghz=float(grid.min()) / 2)
        assert freq == float(grid.min())
