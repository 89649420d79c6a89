"""Fault injection and recovery for the compress-and-dump pipeline.

A deterministic, seedable failure plane (:mod:`repro.resilience.faults`)
plus the recovery policy engine (:mod:`repro.resilience.engine`) that
the dumper, campaign runner and CLI thread fault plans through. See
``docs/RESILIENCE.md`` for the plan schema and the energy accounting of
retries.
"""

from repro.resilience.engine import (
    BACKOFF_POWER_FRACTION,
    STALL_POWER_FRACTION,
    CrashingSlabWrapper,
    FaultInjector,
    InjectedWorkerCrash,
    ResilienceEngine,
    SnapshotLostError,
)
from repro.resilience.faults import (
    FaultKind,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    example_plan,
)
from repro.resilience.policies import RecoveryPolicy, RetryPolicy
from repro.resilience.report import AttemptRecord, SnapshotResilience

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "FaultPlanError",
    "example_plan",
    "RetryPolicy",
    "RecoveryPolicy",
    "FaultInjector",
    "ResilienceEngine",
    "CrashingSlabWrapper",
    "InjectedWorkerCrash",
    "SnapshotLostError",
    "AttemptRecord",
    "SnapshotResilience",
    "STALL_POWER_FRACTION",
    "BACKOFF_POWER_FRACTION",
]
