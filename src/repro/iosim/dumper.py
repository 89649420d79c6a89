"""Compress-then-write data dumping pipeline (Section VI-B).

The paper's headline use case: compress a large floating-point field
with SZ, then push the compressed bytes to the NFS — each stage at its
own pinned frequency (Eqn. 3's piecewise recommendation). The real
codec runs on a working-scale field to obtain the true compression
ratio; costs then extrapolate linearly in bytes to the target size
(exactly how the paper reaches 512 GB by concatenating NYX snapshots).

A :class:`RunConfig` says what one dump runs: the error bound, the
stage clocks or a governor, a watt budget and a fault plan.
:meth:`DataDumper.dump` is the one reader of its clocks, budget and
plan; campaigns and sweeps pass it through whole.

The ratio depends only on the codec, the sample, the bound and the
chunking, not on clocks, governors, budgets or snapshot indices, so
:func:`measure_ratio` sets up one :class:`RatioMeasurement` that
:meth:`DataDumper.dump` accepts: a campaign, or a baseline and a tuned
dump of the same sample, pay for the codec once. The codec runs on the
measurement's first read, so a measurement that every dump replaces
(each of them crashes slabs) costs nothing. With *chunk_bytes* set, the
measurement shards the sample field into slabs and runs them through a
:mod:`repro.parallel` executor; the per-slab timing lands on
:attr:`DumpReport.parallel` so scaling can be tracked alongside the
energy numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.compressors.base import CompressedBuffer, Compressor
from repro.compressors.chunked import ChunkedBuffer, ChunkedCompressor
from repro.hardware.node import SimulatedNode
from repro.hardware.workload import compression_workload, stage_kind
from repro.iosim.nfs import NfsTarget
from repro.iosim.stage import StageReport, resolve_stage_frequency, run_stage
from repro.iosim.transit import transit_workload
from repro.observability import get_registry, get_tracer
from repro.parallel import Executor, ParallelStats
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.governor import Governor, GovernorSpec
    from repro.resilience.engine import ResilienceEngine
    from repro.resilience.faults import FaultPlan
    from repro.resilience.report import SnapshotResilience

__all__ = [
    "RunConfig",
    "DumpReport",
    "DataDumper",
    "RatioMeasurement",
    "measure_ratio",
]


@dataclass(frozen=True)
class RunConfig:
    """What one dump runs: an error bound and the settings it runs under.

    Frozen and picklable, so it travels to pool and fleet workers and is
    fingerprinted whole for the result cache: two runs that differ in
    any setting never share an entry. A bare float anywhere a run is
    taken means ``RunConfig(error_bound=float)``.
    """

    error_bound: float
    #: Per-stage pinned clocks (Eqn. 3); ``None`` runs the stage at
    #: fmax, or at the governor's pick.
    compress_freq_ghz: Optional[float] = None
    write_freq_ghz: Optional[float] = None
    #: The governor that picks the clocks, built next to the node that
    #: runs it. A policy name becomes ``GovernorSpec(kind=name)``.
    governor: Optional["GovernorSpec"] = None
    #: Node package watt budget; each phase is capped by inverting the
    #: node's P(f) curve, which binds pinned and governed stages alike.
    power_budget_w: Optional[float] = None
    #: Faults to inject, recovered per the plan's own policy.
    fault_plan: Optional["FaultPlan"] = None

    def __post_init__(self):
        check_positive(self.error_bound, "error_bound")
        if self.governor is not None:
            from repro.governor import GovernorSpec

            spec = self.governor
            if isinstance(spec, str):
                spec = GovernorSpec(kind=spec)
            if not isinstance(spec, GovernorSpec):
                raise ValueError(
                    "RunConfig.governor must be a GovernorSpec or policy "
                    f"name, got {type(self.governor).__name__}; pass a live "
                    "governor as the governor= argument of DataDumper.dump "
                    "or run_campaign"
                )
            object.__setattr__(self, "governor", spec)
            self.check_unpinned()
        if self.power_budget_w is not None:
            from repro.powercap.allocation import check_budget_w

            object.__setattr__(self, "power_budget_w", check_budget_w(
                self.power_budget_w, "power_budget_w"
            ))
        if self.fault_plan is not None:
            from repro.resilience.faults import FaultPlan

            if not isinstance(self.fault_plan, FaultPlan):
                raise ValueError(
                    "RunConfig.fault_plan must be a FaultPlan, "
                    f"got {type(self.fault_plan).__name__}"
                )

    @classmethod
    def of(cls, run: "RunConfig | float") -> "RunConfig":
        """*run* itself, or a bare error bound as a config."""
        return run if isinstance(run, cls) else cls(error_bound=float(run))

    def check_unpinned(self) -> None:
        """Raise unless both stages are free for a governor to steer: a
        pinned stage would ignore it and half-apply the policy."""
        if self.compress_freq_ghz is not None or self.write_freq_ghz is not None:
            raise ValueError(
                "a RunConfig cannot pin stage frequencies and carry a "
                "governor at the same time"
            )


@dataclass(frozen=True)
class DumpReport:
    """Full pipeline outcome: compression stage + write stage."""

    compress: StageReport
    write: StageReport
    compression_ratio: float
    error_bound: float
    #: Per-slab executor timing of the ratio measurement; ``None`` when
    #: the sample was compressed monolithically.
    parallel: Optional[ParallelStats] = None
    #: Fault/recovery accounting when the dump ran under a non-empty
    #: fault plan; ``None`` on clean runs (keeps clean reports
    #: bit-identical with pre-resilience ones).
    resilience: Optional["SnapshotResilience"] = None

    @property
    def total_energy_j(self) -> float:
        extra = self.resilience.energy_overhead_j if self.resilience else 0.0
        return self.compress.energy_j + self.write.energy_j + extra

    @property
    def total_runtime_s(self) -> float:
        extra = self.resilience.time_overhead_s if self.resilience else 0.0
        return self.compress.runtime_s + self.write.runtime_s + extra


class RatioMeasurement:
    """A sample field's compression at one codec and bound, whole or
    (with :attr:`chunked` set) in slabs.

    The codec runs on the first read of :attr:`buffer`, :attr:`parallel`
    or :attr:`ratio`; later reads return the same result.
    """

    def __init__(
        self,
        compressor: Compressor,
        sample_field: np.ndarray,
        error_bound: float,
        chunked: Optional[ChunkedCompressor] = None,
    ) -> None:
        self.codec = compressor.name
        self.error_bound = float(error_bound)
        self.sample_field = sample_field
        self.chunked = chunked
        self._compressor = compressor

    @cached_property
    def _result(self):
        if self.chunked is None:
            return self._compressor.compress(self.sample_field, self.error_bound), None
        buf = self.chunked.compress(self.sample_field, self.error_bound)
        return buf, self.chunked.last_stats

    @property
    def buffer(self) -> "CompressedBuffer | ChunkedBuffer":
        return self._result[0]

    @property
    def parallel(self) -> Optional[ParallelStats]:
        """Per-slab timing; ``None`` for a monolithic measurement."""
        return self._result[1]

    @property
    def ratio(self) -> float:
        return self.buffer.ratio


def measure_ratio(
    compressor: Compressor,
    sample_field: np.ndarray,
    error_bound: float,
    chunk_bytes: Optional[int] = None,
    executor: "Executor | str" = "auto",
    workers: Optional[int] = None,
    engine: Optional["ResilienceEngine"] = None,
    snapshot_index: int = 0,
) -> RatioMeasurement:
    """Measure *sample_field* at *error_bound*, whole or (with
    *chunk_bytes*) in slabs through :class:`ChunkedCompressor` on
    *executor*/*workers*; the codec runs on the first read.

    An *engine* injects the slab crashes its plan schedules for
    *snapshot_index* and re-runs the crashed slabs within its retry
    budget; the re-run slabs land on ``parallel.retried_tasks``.
    """
    if chunk_bytes is None:
        return RatioMeasurement(compressor, sample_field, error_bound)
    chunked = ChunkedCompressor(
        compressor, max_chunk_bytes=chunk_bytes,
        executor=executor, workers=workers,
    )
    if engine is not None:
        wrapper = engine.injector.slab_wrapper(
            snapshot_index, chunked.slab_count(sample_field)
        )
        if wrapper.any_planned:
            chunked.retries = engine.policy.retry.max_attempts - 1
            chunked.slab_wrapper = wrapper
    return RatioMeasurement(compressor, sample_field, error_bound, chunked)


def _slab_faults_planned(
    engine: Optional["ResilienceEngine"],
    snapshot_index: int,
    measurement: RatioMeasurement,
) -> bool:
    """Whether the plan crashes slabs of a chunked measurement here.

    Counts the slabs without reading the measurement, so a snapshot
    that measures again never forces the shared one to run.
    """
    if engine is None or measurement.chunked is None:
        return False
    n_slabs = measurement.chunked.slab_count(measurement.sample_field)
    return engine.injector.slab_wrapper(snapshot_index, n_slabs).any_planned


class DataDumper:
    """Runs the compress-then-write pipeline on a simulated node.

    Each stage is executed *repeats* times and averaged, mirroring the
    paper's measurement protocol — a single noisy run would drown the
    few-percent savings Fig. 6 compares.
    """

    def __init__(
        self,
        node: SimulatedNode,
        nfs: NfsTarget | None = None,
        repeats: int = 10,
        chunk_bytes: Optional[int] = None,
        executor: "Executor | str" = "auto",
        workers: Optional[int] = None,
    ) -> None:
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        if chunk_bytes is not None:
            check_positive(chunk_bytes, "chunk_bytes")
        self.node = node
        self.nfs = nfs if nfs is not None else NfsTarget()
        self.repeats = int(repeats)
        self.chunk_bytes = None if chunk_bytes is None else int(chunk_bytes)
        self.executor = executor
        self.workers = workers

    def dump(
        self,
        compressor: Compressor,
        sample_field: np.ndarray,
        run: "RunConfig | float",
        target_bytes: int,
        snapshot_index: int = 0,
        governor: Optional["Governor"] = None,
        measurement: Optional[RatioMeasurement] = None,
    ) -> DumpReport:
        """Compress *target_bytes* worth of data (character taken from
        *sample_field*) and write the result to the NFS.

        Parameters
        ----------
        compressor:
            A real codec; it runs on *sample_field* to obtain the true
            compression ratio at the run's error bound, unless
            *measurement* already holds it.
        sample_field:
            Working-scale field representative of the full dataset.
        run:
            The :class:`RunConfig` (or a bare error bound). Its pinned
            clocks set the stages, unpinned ones run at fmax; its
            governor spec is built for this node, unless *governor* is
            given; its watt budget caps each phase through
            :func:`repro.powercap.phase_caps_for_budget` (an infeasible
            phase pins fmin, and a governor records
            ``capped_below_fmin``); its fault plan injects deterministic
            faults, recovered per the plan's policy. An empty plan takes
            the exact clean code path, so its report is bit-identical to
            no plan.
        target_bytes:
            Full-experiment size (e.g. 512 GB) the costs extrapolate to.
        snapshot_index:
            Logical snapshot coordinate for fault triggering (campaigns
            pass their loop index so each snapshot draws its own faults).
        governor:
            A live :class:`repro.governor.Governor` to steer both stages
            instead of one built from the run's spec, so its state
            (decisions, telemetry) outlives the dump. It is consulted at
            each phase boundary and fed the stage's measurement
            afterwards; resilience DVFS-throttle caps and budget caps
            bind it like everything else. Pinned clocks reject it.
        measurement:
            This codec's :func:`measure_ratio` of *sample_field* at the
            run's bound, with this dumper's chunking, to reuse instead
            of compressing again. A snapshot whose fault plan crashes
            slabs measures on its own without reading it, so the crashed
            slabs are re-run and charged; bit flips are checked against
            the shared buffer, which stays unmodified.
        """
        run = RunConfig.of(run)
        check_positive(target_bytes, "target_bytes")
        kind = stage_kind("compress", compressor.name)
        if measurement is not None and (
            measurement.codec, measurement.error_bound
        ) != (compressor.name, float(run.error_bound)):
            raise ValueError(
                f"measurement of {measurement.codec} at "
                f"{measurement.error_bound:g} cannot serve a "
                f"{compressor.name} dump at {float(run.error_bound):g}"
            )
        node = self.node
        if governor is not None:
            run.check_unpinned()
        elif run.governor is not None:
            governor = run.governor.make(node.cpu, power_curve=node.power_curve)

        phase_caps = None
        if run.power_budget_w is not None:
            from repro.powercap import phase_caps_for_budget

            phase_caps = phase_caps_for_budget(
                node.cpu, node.power_curve, run.power_budget_w,
                codec=compressor.name,
            )

        engine: Optional["ResilienceEngine"] = None
        if run.fault_plan is not None and not run.fault_plan.is_empty:
            from repro.resilience.engine import ResilienceEngine

            engine = ResilienceEngine(run.fault_plan)

        tracer = get_tracer()
        with tracer.span(
            "dump",
            codec=compressor.name,
            error_bound=float(run.error_bound),
            target_bytes=int(target_bytes),
        ):
            return self._dump_traced(
                compressor, kind, sample_field, run, target_bytes, tracer,
                engine, int(snapshot_index), governor, phase_caps,
                measurement,
            )

    def _dump_traced(
        self, compressor, kind, sample_field, run, target_bytes, tracer,
        engine, snapshot_index, governor, phase_caps, measurement,
    ) -> DumpReport:
        error_bound = run.error_bound
        with tracer.span("dump.ratio", bytes_in=sample_field.nbytes) as sp:
            if measurement is None or _slab_faults_planned(
                engine, snapshot_index, measurement
            ):
                measurement = measure_ratio(
                    compressor, sample_field, error_bound, self.chunk_bytes,
                    self.executor, self.workers, engine, snapshot_index,
                )
            ratio = measurement.ratio
            sp.set(ratio=ratio)
        buf, parallel = measurement.buffer, measurement.parallel
        retried_slabs = parallel.retried_tasks if parallel else ()
        compressed_bytes = max(1, int(round(target_bytes / ratio)))

        flipped_chunks: Tuple[int, ...] = ()
        if engine is not None and hasattr(buf, "chunks"):
            flipped_chunks = engine.verify_container(buf, snapshot_index)

        cpu = self.node.cpu
        cap_freq = None
        compress_faults = []
        if engine is not None:
            cap = engine.injector.compress_frequency_cap(snapshot_index)
            if cap is not None:
                from repro.resilience.faults import FaultKind

                engine._count_fault(FaultKind.DVFS_THROTTLE)
                compress_faults.append(FaultKind.DVFS_THROTTLE.value)
                # The highest grid clock under the cap; fmin when the
                # cap lies below the DVFS floor.
                cap_freq = cpu.floor_frequency(cap * cpu.fmax_ghz)

        # A watt-budget phase cap merges with any thermal cap (the
        # tighter one binds). Budget caps may be 0.0 — "infeasible" —
        # which the stage-clock rule pins to fmin.
        budget_cap_c = None if phase_caps is None else phase_caps.get("compress")
        budget_cap_w = None if phase_caps is None else phase_caps.get("write")
        if budget_cap_c is not None:
            cap_freq = (
                budget_cap_c if cap_freq is None else min(cap_freq, budget_cap_c)
            )
        # Both clocks are decided before either stage runs.
        f_c = resolve_stage_frequency(
            cpu, "compress", run.compress_freq_ghz, governor, cap_freq
        )
        f_w = resolve_stage_frequency(
            cpu, "write", run.write_freq_ghz, governor, budget_cap_w
        )

        wl_c = compression_workload(
            kind, target_bytes, error_bound, name=f"{compressor.name}-dump"
        )
        compress = run_stage(
            self.node, wl_c, f_c, self.repeats, "compress", target_bytes,
            "dump.compress", bytes_in=int(target_bytes),
        )

        resilience: Optional["SnapshotResilience"] = None
        if engine is None:
            wl_w = transit_workload(compressed_bytes, self.nfs, name="dump-write")
            write = run_stage(
                self.node, wl_w, f_w, self.repeats, "write", compressed_bytes,
                "dump.write", bytes_in=compressed_bytes,
            )
        else:
            with tracer.span("dump.write", bytes_in=compressed_bytes) as sp:
                write, resilience = engine.run_write(
                    self.node, self.nfs, compressed_bytes, f_w,
                    snapshot_index, self.repeats,
                )
                sp.set(freq_ghz=write.freq_ghz, modeled_runtime_s=write.runtime_s,
                       modeled_energy_j=write.energy_j, outcome=write.stage)
            resilience = self._charge_compress_faults(
                resilience, buf, sample_field.nbytes, target_bytes,
                compress.runtime_s, compress.energy_j, retried_slabs,
                flipped_chunks, tuple(compress_faults), parallel,
            )

        stages = (("compress", compress), ("write", write))
        if governor is not None:
            for phase, report in stages:
                if not report.runtime_s:
                    # A skipped write never ran: it drew no power to
                    # learn from, and a 0 W sample would skew the fits.
                    continue
                governor.observe(
                    phase, report.freq_ghz, report.power_w,
                    report.runtime_s, report.bytes_processed,
                )

        registry = get_registry()
        for phase, report in stages:
            labels = {"stage": phase}
            registry.counter(
                "repro_dump_energy_joules_total", labels,
                help="modeled energy of dump pipeline stages",
            ).inc(report.energy_j)
            registry.counter(
                "repro_dump_runtime_seconds_total", labels,
                help="modeled runtime of dump pipeline stages",
            ).inc(report.runtime_s)
        registry.counter(
            "repro_nfs_write_bytes_total",
            help="bytes pushed through the modeled NFS write path",
        ).inc(compressed_bytes)
        registry.counter(
            "repro_nfs_write_seconds_total",
            help="modeled reference-clock seconds spent in NFS writes",
        ).inc(write.runtime_s)

        return DumpReport(
            compress=compress,
            write=write,
            compression_ratio=ratio,
            error_bound=error_bound,
            parallel=parallel,
            resilience=resilience,
        )

    def _charge_compress_faults(
        self, resilience, buf, sample_nbytes, target_bytes,
        t_c, e_c, retried_slabs, flipped_chunks, compress_faults, parallel,
    ):
        """Fold compress-side fault costs into the write-side accounting.

        A crashed slab worker or a corrupted chunk re-runs its slab, so
        it costs that slab's share of the (extrapolated) compress-stage
        energy and time on top of the clean run.
        """
        energy = 0.0
        time_s = 0.0
        nbytes = 0
        faults = list(compress_faults)
        for index in retried_slabs:
            share = (
                parallel.tasks[index].bytes_in / sample_nbytes
                if parallel and sample_nbytes else 0.0
            )
            energy += share * e_c
            time_s += share * t_c
            nbytes += int(round(share * target_bytes))
            faults.append("worker-crash")
        for index in flipped_chunks:
            share = (
                buf.chunks[index].original_nbytes / sample_nbytes
                if sample_nbytes else 0.0
            )
            energy += share * e_c
            time_s += share * t_c
            nbytes += int(round(share * target_bytes))
            faults.append("bit-flip")
        if not faults:
            return resilience
        return replace(
            resilience,
            retried_bytes=resilience.retried_bytes + nbytes,
            energy_overhead_j=resilience.energy_overhead_j + energy,
            time_overhead_s=resilience.time_overhead_s + time_s,
            faults=tuple(faults) + resilience.faults,
        )
