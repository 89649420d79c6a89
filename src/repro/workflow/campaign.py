"""Checkpoint-campaign simulation: the paper's motivating scenario.

Section I motivates the study with HACC-style runs whose snapshot
volumes take hours to move. A :class:`CheckpointCampaign` describes
such a run — N snapshots of S bytes, separated by compute phases — and
:func:`run_campaign` plays it through a node's dump pipeline at chosen
frequencies, producing campaign-level energy/time totals. This is where
the paper's core argument becomes quantitative: the tuned I/O's runtime
penalty is diluted by the compute phases, while its energy saving is
not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from repro.cache import CanonicalForm, fingerprint, get_cache
from repro.compressors.base import Compressor, get_compressor
from repro.hardware.cpu import CpuSpec
from repro.hardware.node import SimulatedNode
from repro.iosim.dumper import (
    DataDumper,
    DumpReport,
    RatioMeasurement,
    measure_ratio,
)
from repro.iosim.nfs import NfsTarget
from repro.observability import get_registry, get_tracer
from repro.parallel import Executor, resolve_executor
from repro.utils.validation import check_nonnegative, check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.governor import GovernorReport, GovernorSpec
    from repro.resilience.faults import FaultPlan
    from repro.resilience.policies import RecoveryPolicy

__all__ = [
    "CheckpointCampaign",
    "CampaignReport",
    "CampaignPoint",
    "run_campaign",
    "run_campaign_sweep",
]


@dataclass(frozen=True)
class CheckpointCampaign:
    """A simulation run that periodically dumps compressed snapshots."""

    snapshot_bytes: int
    n_snapshots: int
    compute_interval_s: float
    #: Average node power during the compute phase, W (full-tilt cores).
    compute_power_w: float = 38.0

    def __post_init__(self):
        check_positive(self.snapshot_bytes, "snapshot_bytes")
        if self.n_snapshots < 1:
            raise ValueError(f"n_snapshots must be >= 1, got {self.n_snapshots}")
        check_nonnegative(self.compute_interval_s, "compute_interval_s")
        check_positive(self.compute_power_w, "compute_power_w")


@dataclass(frozen=True)
class CampaignReport:
    """Totals over an entire campaign."""

    snapshots: Tuple[DumpReport, ...]
    compute_time_s: float
    compute_energy_j: float
    #: Decision summary when the campaign ran under a governor; ``None``
    #: for explicitly pinned (or base-clock) runs.
    governor: Optional["GovernorReport"] = None

    @property
    def io_energy_j(self) -> float:
        return float(sum(s.total_energy_j for s in self.snapshots))

    @property
    def io_time_s(self) -> float:
        return float(sum(s.total_runtime_s for s in self.snapshots))

    @property
    def total_energy_j(self) -> float:
        return self.io_energy_j + self.compute_energy_j

    @property
    def total_wall_s(self) -> float:
        return self.io_time_s + self.compute_time_s

    @property
    def io_time_fraction(self) -> float:
        """Share of the campaign wall time spent in I/O."""
        return self.io_time_s / self.total_wall_s

    # -- resilience accounting (all zero-ish on clean runs) ----------------

    @property
    def attempts(self) -> int:
        """Total write attempts across all snapshots (≥ ``n_snapshots``)."""
        return sum(
            s.resilience.attempts if s.resilience else 1 for s in self.snapshots
        )

    @property
    def retried_bytes(self) -> int:
        """Bytes re-processed because an attempt failed or a slab died."""
        return sum(
            s.resilience.retried_bytes for s in self.snapshots if s.resilience
        )

    @property
    def energy_overhead_j(self) -> float:
        """Joules burned on failed attempts, stalls, backoff and re-runs."""
        return float(sum(
            s.resilience.energy_overhead_j for s in self.snapshots if s.resilience
        ))

    @property
    def snapshots_lost(self) -> int:
        """Snapshots dropped after recovery was exhausted."""
        return sum(
            1 for s in self.snapshots if s.resilience and s.resilience.lost
        )


def run_campaign(
    node: SimulatedNode,
    compressor: Compressor,
    sample_field: np.ndarray,
    error_bound: float,
    campaign: CheckpointCampaign,
    compress_freq_ghz: float | None = None,
    write_freq_ghz: float | None = None,
    nfs: NfsTarget | None = None,
    repeats: int = 3,
    chunk_bytes: Optional[int] = None,
    executor: "Executor | str" = "auto",
    workers: Optional[int] = None,
    fault_plan: Optional["FaultPlan"] = None,
    policy: Optional["RecoveryPolicy"] = None,
    governor=None,
    power_budget_w: Optional[float] = None,
    measurement: Optional[RatioMeasurement] = None,
) -> CampaignReport:
    """Play the campaign through the dump pipeline.

    Compute phases run at the base clock (simulations need full speed —
    the paper's premise); only the snapshot dumps are frequency-tuned.
    The sample's compression ratio does not change between snapshots,
    so it is measured once per campaign (:func:`measure_ratio`, before
    the first snapshot) and every snapshot's dump reuses it; pass a
    *measurement* of the same codec, sample, bound and chunking to skip
    even that one. With *chunk_bytes* set, the measurement shards the
    sample field through :mod:`repro.parallel` (*executor*/*workers*
    pick the backend), so traces show the chunk/slab stages. A
    *fault_plan* injects its faults per snapshot index; retries,
    failovers and losses land on the report's resilience properties,
    and a snapshot whose plan crashes slabs measures again on its own.
    A *governor* (a :class:`repro.governor.Governor`, spec or policy
    name) steers any stage without an explicit frequency, learning
    across snapshots; its decision summary lands on
    :attr:`CampaignReport.governor`. A *power_budget_w* caps the node's
    package watts: each phase's cap_ghz comes from inverting the node's
    P(f) curve (:func:`repro.powercap.phase_caps_for_budget`) and binds
    pinned and governed stages alike; ``None`` is bit-identical to an
    uncapped run.
    """
    from repro.governor import resolve_governor

    governor = resolve_governor(governor, node.cpu, power_curve=node.power_curve)
    phase_caps = None
    if power_budget_w is not None:
        from repro.powercap import phase_caps_for_budget

        phase_caps = phase_caps_for_budget(
            node.cpu, node.power_curve, power_budget_w, codec=compressor.name
        )
    dumper = DataDumper(
        node, nfs, repeats=repeats,
        chunk_bytes=chunk_bytes, executor=executor, workers=workers,
    )
    tracer = get_tracer()
    with tracer.span(
        "campaign.run",
        codec=compressor.name,
        snapshots=campaign.n_snapshots,
        snapshot_bytes=campaign.snapshot_bytes,
    ):
        if measurement is None:
            measurement = measure_ratio(
                compressor, sample_field, error_bound, chunk_bytes,
                executor, workers,
            )
        snapshots = []
        for index in range(campaign.n_snapshots):
            with tracer.span("campaign.snapshot", index=index) as sp:
                report = dumper.dump(
                    compressor,
                    sample_field,
                    error_bound,
                    campaign.snapshot_bytes,
                    compress_freq_ghz=compress_freq_ghz,
                    write_freq_ghz=write_freq_ghz,
                    fault_plan=fault_plan,
                    policy=policy,
                    snapshot_index=index,
                    governor=governor,
                    phase_caps=phase_caps,
                    measurement=measurement,
                )
                sp.set(
                    ratio=report.compression_ratio,
                    modeled_energy_j=report.total_energy_j,
                )
                if report.resilience is not None:
                    sp.set(
                        attempts=report.resilience.attempts,
                        lost=report.resilience.lost,
                    )
            snapshots.append(report)
    get_registry().counter(
        "repro_campaign_snapshots_total",
        help="snapshots dumped by checkpoint campaigns",
    ).inc(campaign.n_snapshots)
    compute_time = campaign.compute_interval_s * campaign.n_snapshots
    compute_energy = compute_time * campaign.compute_power_w
    return CampaignReport(
        snapshots=tuple(snapshots),
        compute_time_s=compute_time,
        compute_energy_j=compute_energy,
        governor=governor.report() if governor is not None else None,
    )


@dataclass(frozen=True)
class CampaignPoint:
    """One point of a campaign sweep: a bound and optional tuned clocks."""

    error_bound: float
    compress_freq_ghz: Optional[float] = None
    write_freq_ghz: Optional[float] = None
    #: Per-point governor spec; mutually exclusive with pinned clocks
    #: (a pinned stage ignores the governor by construction, so mixing
    #: them would silently half-apply the policy).
    governor: Optional["GovernorSpec"] = None
    #: Node package watt budget; phase caps derived from the node's
    #: P(f) curve bind every stage. Rides in the point so capped and
    #: uncapped runs can never alias in the result cache.
    power_budget_w: Optional[float] = None

    def __post_init__(self):
        check_positive(self.error_bound, "error_bound")
        if self.governor is not None and (
            self.compress_freq_ghz is not None or self.write_freq_ghz is not None
        ):
            raise ValueError(
                "a CampaignPoint cannot pin stage frequencies and carry a "
                "governor at the same time"
            )
        if self.power_budget_w is not None:
            check_positive(self.power_budget_w, "power_budget_w")


def _run_bound(
    cpu: CpuSpec,
    compressor: Compressor,
    sample_field: np.ndarray,
    campaign: CheckpointCampaign,
    nfs: Optional[NfsTarget],
    repeats: int,
    seed: int,
    fault_plan: Optional["FaultPlan"],
    chunk_bytes: Optional[int],
    points: Tuple[CampaignPoint, ...],
) -> Tuple[CampaignReport, ...]:
    """Play *points*, which share one error bound, on one measurement.

    Module-level so process-pool workers can pickle the task. Every
    point gets its own freshly seeded node, so results are independent
    of execution order and grouping — and therefore of the backend.
    """
    measurement = measure_ratio(
        compressor, sample_field, points[0].error_bound, chunk_bytes
    )
    return tuple(
        run_campaign(
            SimulatedNode(cpu, seed=seed),
            compressor,
            sample_field,
            point.error_bound,
            campaign,
            compress_freq_ghz=point.compress_freq_ghz,
            write_freq_ghz=point.write_freq_ghz,
            nfs=nfs,
            repeats=repeats,
            chunk_bytes=chunk_bytes,
            fault_plan=fault_plan,
            governor=point.governor,
            power_budget_w=point.power_budget_w,
            measurement=measurement,
        )
        for point in points
    )


def run_campaign_sweep(
    cpu: CpuSpec,
    compressor: "Compressor | str",
    sample_field: np.ndarray,
    points: Sequence["CampaignPoint | float"],
    campaign: CheckpointCampaign,
    nfs: Optional[NfsTarget] = None,
    repeats: int = 3,
    seed: int = 0,
    executor: "Executor | str" = "auto",
    workers: Optional[int] = None,
    fault_plan: Optional["FaultPlan"] = None,
    chunk_bytes: Optional[int] = None,
    governor: "GovernorSpec | str | None" = None,
    power_budget_w: Optional[float] = None,
) -> Tuple[CampaignReport, ...]:
    """Play the campaign at every sweep point, one task per error bound.

    Each point (a :class:`CampaignPoint`, or a bare error bound) runs on
    its own node seeded with *seed*, so a sweep's reports are mutually
    comparable and byte-identical across executor backends (a
    *fault_plan*'s triggers are keyed on logical coordinates, so faulted
    sweeps stay backend-identical too). Points that miss the cache fan
    out through :mod:`repro.parallel` as one task per distinct error
    bound: the task compresses the sample once and plays each of its
    points on that measurement, since clocks, governors and budgets do
    not change the ratio. *compressor* (an instance, with its
    configuration, or a registered name) runs in the tasks as given.
    *chunk_bytes* shards the ratio measurement (and joins the cache
    key, since it shapes the reports' parallel-stage annotations).

    *governor* (a :class:`repro.governor.GovernorSpec` or policy name)
    is the sweep-wide default: it fills every point that neither pins a
    stage frequency nor carries its own spec, *before* cache keys are
    computed — governed and ungoverned sweeps can never alias.

    *power_budget_w* is likewise the sweep-wide watt budget: it fills
    every point that doesn't carry its own, before cache keys are
    computed, so capped and uncapped sweeps never alias either. Because
    the budget travels inside the pure, picklable point, capped sweeps
    stay byte-identical across executor backends — including the
    distributed one — for free.
    """
    if not points:
        raise ValueError("points must be non-empty")
    resolved = tuple(
        p if isinstance(p, CampaignPoint) else CampaignPoint(error_bound=float(p))
        for p in points
    )
    if governor is not None:
        from repro.governor import GovernorSpec

        spec = (
            GovernorSpec(kind=governor) if isinstance(governor, str) else governor
        )
        if not isinstance(spec, GovernorSpec):
            raise ValueError(
                "sweep governor must be a GovernorSpec or policy name, "
                f"got {type(governor).__name__}"
            )
        resolved = tuple(
            replace(p, governor=spec)
            if (
                p.governor is None
                and p.compress_freq_ghz is None
                and p.write_freq_ghz is None
            )
            else p
            for p in resolved
        )
    if power_budget_w is not None:
        from repro.powercap import check_budget_w

        budget = check_budget_w(power_budget_w, "power_budget_w")
        resolved = tuple(
            replace(p, power_budget_w=budget) if p.power_budget_w is None else p
            for p in resolved
        )
    codec = get_compressor(compressor) if isinstance(compressor, str) else compressor
    chunk = None if chunk_bytes is None else int(chunk_bytes)

    # Incremental recomputation: every point is pure in (cpu, codec and
    # its configuration, field, campaign, nfs, repeats, seed, fault
    # plan, chunking, point) — each fresh-node run is content-
    # addressable. Lookups and stores happen here in the parent, so
    # cache state never depends on the executor backend; only the dirty
    # points fan out through the pool.
    cache = get_cache()
    reports: list = [None] * len(resolved)
    keys: list = []
    miss_indices = list(range(len(resolved)))
    if cache.enabled:
        miss_indices = []
        field = CanonicalForm(sample_field)  # one field digest per sweep
        for i, point in enumerate(resolved):
            key = fingerprint(
                kind="campaign.point",
                cpu=cpu,
                codec=codec,
                field=field,
                campaign=campaign,
                nfs=nfs,
                repeats=int(repeats),
                seed=int(seed),
                fault_plan=fault_plan,
                chunk=chunk,
                point=point,
            )
            keys.append(key)
            hit, value = cache.lookup(key, context="campaign.point")
            if hit:
                reports[i] = value
            else:
                miss_indices.append(i)

    groups: dict = {}
    for i in miss_indices:
        groups.setdefault(resolved[i].error_bound, []).append(i)
    fn = partial(
        _run_bound, cpu, codec, sample_field, campaign, nfs, int(repeats),
        int(seed), fault_plan, chunk,
    )
    pool = owned = None
    if groups:
        pool, owned = resolve_executor(
            executor,
            workers,
            n_tasks=len(groups),
            task_nbytes=sample_field.nbytes,
            codec_cost=4.0,
        )
    # Tasks may fan out to worker processes, whose spans are invisible
    # here; the sweep-level span still records the fan-out shape.
    with get_tracer().span(
        "campaign.sweep",
        points=len(resolved),
        cached=len(resolved) - len(miss_indices),
        executor=pool.name if pool is not None else "cache",
        workers=pool.workers if pool is not None else 0,
    ):
        if groups:
            try:
                fresh = pool.map(fn, [
                    tuple(resolved[i] for i in group) for group in groups.values()
                ])
            finally:
                if owned:
                    pool.close()
            for group, group_reports in zip(groups.values(), fresh):
                for i, report in zip(group, group_reports):
                    reports[i] = report
            if cache.enabled:
                for i in miss_indices:
                    cache.store(keys[i], reports[i], context="campaign.point")
    return tuple(reports)
