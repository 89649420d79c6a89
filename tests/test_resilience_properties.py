"""Property-based invariants of the fault-injection plane.

Three load-bearing properties, hammered with Hypothesis-generated
fault plans:

1. **Determinism** — the same plan (same seed) replayed on a fresh node
   produces a field-for-field identical campaign report.
2. **Additivity** — for retry-only faults (transient errors and stalls
   that resolve on the NFS path), the faulted campaign's energy is
   exactly the clean campaign's energy plus the reported overhead;
   retries can never make a campaign *cheaper*.
3. **No-op neutrality** — a plan whose faults all have probability zero
   takes the clean code path and produces a report equal to running
   with no plan at all, on every executor backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import SZCompressor
from repro.hardware.cpu import get_cpu
from repro.hardware.node import SimulatedNode
from repro.resilience import FaultKind, FaultPlan, FaultSpec
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

#: Kinds whose recovery stays on the NFS path (no failover, no retune),
#: so the surviving attempt is bit-identical to the clean run's write.
RETRY_ONLY_KINDS = (FaultKind.NFS_TRANSIENT_ERROR, FaultKind.NFS_STALL)

ALL_KINDS = tuple(FaultKind)


def campaign_report(plan):
    node = SimulatedNode(CPU, seed=0)
    return run_campaign(
        node, SZCompressor(), FIELD, RunConfig(1e-2, fault_plan=plan),
        CAMPAIGN, repeats=1,
    )


@st.composite
def fault_specs(draw, kinds=ALL_KINDS, probabilities=(0.0, 0.4, 1.0),
                max_attempts=None):
    kind = draw(st.sampled_from(kinds))
    severity = draw(st.sampled_from((0.2, 0.5, 0.8)))
    attempts_cap = max_attempts
    if attempts_cap is None:
        attempts = draw(st.one_of(st.none(), st.integers(1, 3)))
    else:
        attempts = draw(st.integers(1, attempts_cap))
    return FaultSpec(
        kind=kind,
        probability=draw(st.sampled_from(probabilities)),
        snapshots=draw(st.one_of(
            st.none(),
            st.sets(st.integers(0, CAMPAIGN.n_snapshots - 1),
                    min_size=1).map(tuple),
        )),
        attempts=attempts,
        severity=severity,
        stall_s=draw(st.sampled_from((0.5, 3.0))),
    )


def fault_plans(kinds=ALL_KINDS, probabilities=(0.0, 0.4, 1.0),
                max_attempts=None):
    return st.builds(
        FaultPlan,
        specs=st.lists(
            fault_specs(kinds=kinds, probabilities=probabilities,
                        max_attempts=max_attempts),
            min_size=0, max_size=3,
        ).map(tuple),
        seed=st.integers(0, 50),
    )


class TestDeterminism:
    @given(plan=fault_plans())
    @settings(max_examples=10, deadline=None)
    def test_same_seed_same_report(self, plan):
        assert campaign_report(plan) == campaign_report(plan)

    @given(plan=fault_plans(probabilities=(1.0,)))
    @settings(max_examples=6, deadline=None)
    def test_resilience_records_replay_identically(self, plan):
        first = campaign_report(plan)
        second = campaign_report(plan)
        for a, b in zip(first.snapshots, second.snapshots):
            assert a.resilience == b.resilience


class TestEnergyAdditivity:
    # attempts <= 2 with the default 3-attempt retry budget guarantees
    # every snapshot recovers on the NFS path itself (no failover leg,
    # which writes to a different - cheaper - target).
    @given(plan=fault_plans(kinds=RETRY_ONLY_KINDS, max_attempts=2))
    @settings(max_examples=10, deadline=None)
    def test_faulted_energy_is_clean_plus_overhead(self, plan):
        clean = campaign_report(None)
        faulted = campaign_report(plan)
        overhead = faulted.energy_overhead_j
        assert overhead >= 0.0
        assert faulted.total_energy_j == pytest.approx(
            clean.total_energy_j + overhead, rel=1e-12
        )
        assert faulted.snapshots_lost == 0

    @given(plan=fault_plans(kinds=RETRY_ONLY_KINDS, max_attempts=2))
    @settings(max_examples=10, deadline=None)
    def test_retries_never_decrease_energy_or_time(self, plan):
        clean = campaign_report(None)
        faulted = campaign_report(plan)
        assert faulted.total_energy_j >= clean.total_energy_j
        assert faulted.total_wall_s >= clean.total_wall_s
        assert faulted.attempts >= clean.attempts


class TestZeroFaultNeutrality:
    @given(plan=fault_plans(probabilities=(0.0,)))
    @settings(max_examples=10, deadline=None)
    def test_zero_probability_plan_equals_no_plan(self, plan):
        assert plan.is_empty
        assert campaign_report(plan) == campaign_report(None)

    def test_zero_fault_plan_identical_across_executors(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.NFS_HARD_FAILURE, probability=0.0),
            FaultSpec(FaultKind.WORKER_CRASH, probability=0.0),
        ), seed=13)
        points = (RunConfig(error_bound=1e-2),
                  RunConfig(error_bound=1e-3))
        planned = tuple(RunConfig(p.error_bound, fault_plan=plan)
                        for p in points)
        baseline = run_campaign_sweep(
            CPU, "sz", FIELD, points, CAMPAIGN, repeats=1, seed=0,
            executor="serial",
        )
        for executor in ("serial", "thread", "process"):
            withplan = run_campaign_sweep(
                CPU, "sz", FIELD, planned, CAMPAIGN, repeats=1, seed=0,
                executor=executor, workers=2,
            )
            assert withplan == baseline, executor
