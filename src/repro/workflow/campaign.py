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

from dataclasses import dataclass
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
    RunConfig,
    measure_ratio,
)
from repro.iosim.nfs import NfsTarget
from repro.observability import get_registry, get_tracer
from repro.parallel import Executor, resolve_executor
from repro.utils.validation import check_nonnegative, check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.governor import Governor, GovernorReport

__all__ = [
    "CheckpointCampaign",
    "CampaignReport",
    "RunConfig",
    "run_campaign",
    "run_campaign_sweep",
]

#: Kept only because the benchmark harness under ``perfbench/`` imports
#: this name; it goes when that harness is next re-pinned.
CampaignPoint = RunConfig


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
    run: "RunConfig | float",
    campaign: CheckpointCampaign,
    nfs: NfsTarget | None = None,
    repeats: int = 3,
    chunk_bytes: Optional[int] = None,
    executor: "Executor | str" = "auto",
    workers: Optional[int] = None,
    governor: Optional["Governor"] = None,
    measurement: Optional[RatioMeasurement] = None,
) -> CampaignReport:
    """Play the campaign through the dump pipeline, every snapshot a
    dump of *run* (a :class:`RunConfig`, or a bare error bound).

    Compute phases run at the base clock (simulations need full speed —
    the paper's premise); only the snapshot dumps are frequency-tuned.
    The sample's compression ratio does not change between snapshots,
    so it is measured once per campaign (:func:`measure_ratio`, before
    the first snapshot) and every snapshot's dump reuses it; pass a
    *measurement* of the same codec, sample, bound and chunking to skip
    even that one. With *chunk_bytes* set, the measurement shards the
    sample field through :mod:`repro.parallel` (*executor*/*workers*
    pick the backend), so traces show the chunk/slab stages. The run's
    fault plan injects its faults per snapshot index; retries,
    failovers and losses land on the report's resilience properties,
    and a snapshot whose plan crashes slabs measures again on its own.
    The run's governor spec is built once for the campaign, so it
    learns across snapshots; a live *governor* steers instead, for a
    caller that reads its state afterwards. The decision summary lands
    on :attr:`CampaignReport.governor`.
    """
    run = RunConfig.of(run)
    if governor is None and run.governor is not None:
        governor = run.governor.make(node.cpu, power_curve=node.power_curve)
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
                compressor, sample_field, run.error_bound, chunk_bytes,
                executor, workers,
            )
        snapshots = []
        for index in range(campaign.n_snapshots):
            with tracer.span("campaign.snapshot", index=index) as sp:
                report = dumper.dump(
                    compressor,
                    sample_field,
                    run,
                    campaign.snapshot_bytes,
                    snapshot_index=index,
                    governor=governor,
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


def _run_bound(
    cpu: CpuSpec,
    compressor: Compressor,
    sample_field: np.ndarray,
    campaign: CheckpointCampaign,
    nfs: Optional[NfsTarget],
    repeats: int,
    seed: int,
    chunk_bytes: Optional[int],
    points: Tuple[RunConfig, ...],
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
            SimulatedNode(cpu, seed=seed), compressor, sample_field, point,
            campaign, nfs=nfs, repeats=repeats, chunk_bytes=chunk_bytes,
            measurement=measurement,
        )
        for point in points
    )


def run_campaign_sweep(
    cpu: CpuSpec,
    compressor: "Compressor | str",
    sample_field: np.ndarray,
    points: Sequence["RunConfig | float"],
    campaign: CheckpointCampaign,
    nfs: Optional[NfsTarget] = None,
    repeats: int = 3,
    seed: int = 0,
    executor: "Executor | str" = "auto",
    workers: Optional[int] = None,
    chunk_bytes: Optional[int] = None,
) -> Tuple[CampaignReport, ...]:
    """Play the campaign at every sweep point, one task per error bound.

    Each point (a :class:`RunConfig`, or a bare error bound) runs on its
    own node seeded with *seed*, so a sweep's reports are mutually
    comparable and byte-identical across executor backends (fault
    triggers are keyed on logical coordinates, so faulted sweeps stay
    backend-identical too). A point's clocks, governor, watt budget and
    fault plan all travel inside it, so they join its cache key whole:
    points that differ in any of them never alias. Points that miss the
    cache fan out through :mod:`repro.parallel` as one task per distinct
    error bound: the task compresses the sample once and plays each of
    its points on that measurement, since clocks, governors, budgets and
    faults do not change the ratio. *compressor* (an instance, with its
    configuration, or a registered name) runs in the tasks as given.
    *chunk_bytes* shards the ratio measurement (and joins the cache
    key, since it shapes the reports' parallel-stage annotations).
    """
    if not points:
        raise ValueError("points must be non-empty")
    resolved = tuple(RunConfig.of(p) for p in points)
    codec = get_compressor(compressor) if isinstance(compressor, str) else compressor
    chunk = None if chunk_bytes is None else int(chunk_bytes)

    # Incremental recomputation: every point is pure in (cpu, codec and
    # its configuration, field, campaign, nfs, repeats, seed, chunking,
    # point) — each fresh-node run is content-addressable. Lookups and
    # stores happen here in the parent, so cache state never depends on
    # the executor backend; only the dirty points fan out through the
    # pool.
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
        int(seed), chunk,
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
