"""End-to-end tuned I/O pipeline: characterize → model → tune → apply.

This is the library's headline API. It runs the paper's full
methodology on a pair of simulated nodes:

1. **Characterize** — compression and data-transit frequency sweeps
   (Section IV's measurement campaign).
2. **Model** — max-clock scaling, per-partition ``a·f^b + c`` power
   fits (Tables IV/V) and leading-loads runtime fits.
3. **Tune** — per-architecture, per-stage frequency recommendations
   (Eqn. 3 or model-optimal).
4. **Apply** — compress-and-dump a target workload at base clock and at
   the tuned frequencies, reporting the energy saved (Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cache import fingerprint, get_cache
from repro.compressors.base import Compressor, get_compressor
from repro.core.energy import SavingsReport, compare_reports
from repro.core.partitions import (
    COMPRESSION_PARTITIONS,
    TRANSIT_PARTITIONS,
    fit_partition_models,
)
from repro.core.power_model import PowerModel
from repro.core.runtime_model import RuntimeModel, fit_runtime_model
from repro.core.samples import SampleSet
from repro.core.scaling import add_scaled_columns
from repro.core.tuning import TuningPolicy, TuningRecommendation, recommend_from_models
from repro.data.registry import load_field
from repro.hardware.node import SimulatedNode
from repro.hardware.workload import WorkloadKind
from repro.iosim.dumper import DataDumper, DumpReport, measure_ratio
from repro.iosim.nfs import NfsTarget
from repro.observability import get_tracer

__all__ = ["PipelineOutcome", "TunedIOPipeline"]

_TRANSIT_GROUP_KEYS = ("cpu", "size_gb")


def _cached_fit(kind: str, samples: SampleSet, spec, compute):
    """Memoize a model fit on the content of its input samples.

    Fitting is pure in (samples, partition/arch spec), so the key is a
    fingerprint of every record plus the spec; identical sweeps reuse
    the fitted ``P(f)=a·f^b+c`` / runtime models without recomputation.
    All fits share the ``pipeline.fit`` metric context, which is what
    the differential harness watches to prove a warm run refits nothing.
    """
    cache = get_cache()
    if not cache.enabled:
        return compute()
    key = fingerprint(kind=kind, records=[dict(r) for r in samples], spec=spec)
    return cache.get_or_compute(key, compute, context="pipeline.fit")


@dataclass
class PipelineOutcome:
    """Everything the pipeline produced."""

    compression_samples: SampleSet
    transit_samples: SampleSet
    compression_models: Dict[str, PowerModel]
    transit_models: Dict[str, PowerModel]
    compression_runtime: Dict[str, RuntimeModel]
    transit_runtime: Dict[str, RuntimeModel]
    recommendations: Tuple[TuningRecommendation, ...] = ()

    def model_table(self, which: str = "compression") -> Tuple[Dict[str, object], ...]:
        """Table IV (``"compression"``) or Table V (``"transit"``) rows."""
        models = {"compression": self.compression_models, "transit": self.transit_models}[
            which
        ]
        return tuple(m.as_table_row() for m in models.values())


class TunedIOPipeline:
    """Drives the characterize → model → tune → apply loop."""

    def __init__(
        self,
        nodes: Sequence[SimulatedNode],
        nfs: Optional[NfsTarget] = None,
    ) -> None:
        if not nodes:
            raise ValueError("at least one node is required")
        self.nodes = tuple(nodes)
        self.nfs = nfs if nfs is not None else NfsTarget()
        self._nodes_by_arch = {n.cpu.arch: n for n in self.nodes}

    # -- step 1+2: characterize and model --------------------------------

    def characterize(self, config=None) -> PipelineOutcome:
        """Run sweeps and fit all models; returns the outcome bundle."""
        from repro.workflow.sweep import SweepConfig, compression_sweep, transit_sweep

        config = config if config is not None else SweepConfig()
        tracer = get_tracer()
        with tracer.span("pipeline.characterize", nodes=len(self.nodes)):
            with tracer.span("pipeline.sweep", which="compression"):
                comp = add_scaled_columns(compression_sweep(self.nodes, config))
            with tracer.span("pipeline.sweep", which="transit"):
                tran = add_scaled_columns(
                    transit_sweep(self.nodes, config, self.nfs),
                    group_keys=_TRANSIT_GROUP_KEYS,
                )

            with tracer.span("pipeline.fit"):
                comp_models = _cached_fit(
                    "fit.compression.power", comp, COMPRESSION_PARTITIONS,
                    lambda: fit_partition_models(comp, COMPRESSION_PARTITIONS),
                )
                tran_models = _cached_fit(
                    "fit.transit.power", tran, TRANSIT_PARTITIONS,
                    lambda: fit_partition_models(tran, TRANSIT_PARTITIONS),
                )

                comp_runtime = {
                    arch: _cached_fit(
                        "fit.compression.runtime", comp.filter(cpu=arch), arch,
                        lambda arch=arch: fit_runtime_model(
                            f"compress-{arch}", comp.filter(cpu=arch)
                        ),
                    )
                    for arch in comp.unique("cpu")
                }
                tran_runtime = {
                    arch: _cached_fit(
                        "fit.transit.runtime", tran.filter(cpu=arch), arch,
                        lambda arch=arch: fit_runtime_model(
                            f"write-{arch}", tran.filter(cpu=arch)
                        ),
                    )
                    for arch in tran.unique("cpu")
                }
        return PipelineOutcome(
            compression_samples=comp,
            transit_samples=tran,
            compression_models=comp_models,
            transit_models=tran_models,
            compression_runtime=comp_runtime,
            transit_runtime=tran_runtime,
        )

    # -- step 3: tune ------------------------------------------------------

    def recommend(
        self, outcome: PipelineOutcome, policy: Optional[TuningPolicy] = None
    ) -> PipelineOutcome:
        """Attach per-architecture, per-stage recommendations.

        With *policy* (e.g. :data:`~repro.core.tuning.PAPER_POLICY`) the
        fixed Eqn. 3 factors are evaluated; without it the
        model-optimal energy frequency is chosen per architecture.
        """
        recs = []
        with get_tracer().span(
            "pipeline.recommend",
            policy=type(policy).__name__ if policy is not None else "optimal",
        ):
            for node in self.nodes:
                arch = node.cpu.arch
                arch_name = arch.capitalize()
                comp_power = outcome.compression_models.get(arch_name)
                tran_power = outcome.transit_models.get(arch_name)
                if comp_power is None or tran_power is None:
                    raise KeyError(
                        f"no per-architecture models for {arch!r}; "
                        "run characterize() with both-architecture sweeps"
                    )
                recs.append(
                    recommend_from_models(
                        node.cpu, "compress", comp_power,
                        outcome.compression_runtime[arch], policy,
                    )
                )
                recs.append(
                    recommend_from_models(
                        node.cpu, "write", tran_power,
                        outcome.transit_runtime[arch], policy,
                    )
                )
            outcome.recommendations = tuple(recs)
        return outcome

    # -- step 4: apply ------------------------------------------------------

    def apply(
        self,
        outcome: PipelineOutcome,
        arch: str,
        compressor: "Compressor | str" = "sz",
        dataset: str = "nyx",
        field_name: str = "velocity_x",
        error_bound: float = 1e-2,
        target_bytes: int = int(512e9),
        data_scale: int = 16,
        seed: int = 0,
        chunk_bytes: Optional[int] = None,
        executor: str = "auto",
        workers: Optional[int] = None,
        fault_plan=None,
        governor=None,
    ) -> SavingsReport:
        """Dump *target_bytes* at base clock and at the tuned frequencies.

        Returns the Fig. 6-style savings comparison for one error bound.
        With *chunk_bytes* set, the ratio measurement shards the sample
        field into slabs executed through :mod:`repro.parallel`
        (*executor*/*workers* select and size the backend); per-slab
        timing is surfaced on each report's ``parallel`` attribute.
        A *fault_plan* (:class:`~repro.resilience.FaultPlan`) applies to
        both the baseline and the tuned dump, so the savings comparison
        stays like-for-like under injected faults.

        *governor* (a :class:`repro.governor.Governor`,
        :class:`repro.governor.GovernorSpec` or policy name) replaces
        the fitted recommendations for the tuned dump: the governor
        picks each stage's clock online, so ``recommend()`` is not
        required beforehand. The baseline dump stays ungoverned — the
        comparison remains "base clock vs. controlled".
        """
        node = self._nodes_by_arch.get(arch)
        if node is None:
            raise KeyError(f"no node with architecture {arch!r}")
        governor = _resolve_governor(governor, node)
        if governor is None:
            recs = {r.stage: r for r in outcome.recommendations if r.cpu == arch}
            if set(recs) != {"compress", "write"}:
                raise ValueError(
                    f"recommendations for {arch!r} missing; call recommend() first"
                )
        codec = get_compressor(compressor) if isinstance(compressor, str) else compressor
        sample = load_field(dataset, field_name, scale=data_scale, seed=seed)
        dumper = DataDumper(
            node, self.nfs,
            chunk_bytes=chunk_bytes, executor=executor, workers=workers,
        )

        tracer = get_tracer()
        with tracer.span(
            "pipeline.apply", arch=arch, codec=codec.name,
            target_bytes=int(target_bytes),
        ):
            # Both dumps compress the same sample at the same bound.
            measurement = measure_ratio(
                codec, sample, error_bound, chunk_bytes, executor, workers
            )
            with tracer.span("pipeline.apply.baseline"):
                baseline = dumper.dump(
                    codec, sample, error_bound, target_bytes,
                    fault_plan=fault_plan, measurement=measurement,
                )
            with tracer.span("pipeline.apply.tuned"):
                if governor is not None:
                    tuned = dumper.dump(
                        codec, sample, error_bound, target_bytes,
                        fault_plan=fault_plan, governor=governor,
                        measurement=measurement,
                    )
                else:
                    tuned = dumper.dump(
                        codec,
                        sample,
                        error_bound,
                        target_bytes,
                        compress_freq_ghz=recs["compress"].freq_ghz,
                        write_freq_ghz=recs["write"].freq_ghz,
                        fault_plan=fault_plan,
                        measurement=measurement,
                    )
        return compare_reports(baseline, tuned)


def _resolve_governor(governor, node: SimulatedNode):
    """Accept a live Governor, a GovernorSpec, or a policy name."""
    if governor is None:
        return None
    from repro.governor import resolve_governor

    return resolve_governor(governor, node.cpu, power_curve=node.power_curve)
