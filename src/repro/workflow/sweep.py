"""Frequency sweeps over (CPU × compressor × dataset × error bound).

Reproduces the measurement campaign of Section IV: every combination is
run across the DVFS grid with ``perf``-style 10-repeat averaging. The
real codecs run once per (dataset, bound) to record true compression
ratios; power/runtime comes from the simulated node (see DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cache import describe_node, fingerprint, get_cache
from repro.compressors.base import get_compressor
from repro.core.samples import SampleSet
from repro.data.registry import load_field
from repro.hardware.cpu import BROADWELL_D1548, SKYLAKE_4114, CpuSpec
from repro.hardware.node import SimulatedNode
from repro.hardware.perf import PerfStat
from repro.hardware.powercurves import PowerCurve
from repro.hardware.workload import compression_workload, stage_kind
from repro.iosim.nfs import NfsTarget
from repro.iosim.transit import transit_workload

__all__ = ["SweepConfig", "default_nodes", "compression_sweep", "transit_sweep", "decompression_sweep", "read_sweep"]

#: The paper's error bounds (Section III-A).
PAPER_ERROR_BOUNDS = (1e-1, 1e-2, 1e-3, 1e-4)

#: One representative field per Table I dataset.
DEFAULT_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("cesm-atm", "T"),
    ("hacc", "x"),
    ("nyx", "velocity_x"),
)


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of a measurement campaign."""

    compressors: Tuple[str, ...] = ("sz", "zfp")
    datasets: Tuple[Tuple[str, str], ...] = DEFAULT_FIELDS
    error_bounds: Tuple[float, ...] = PAPER_ERROR_BOUNDS
    transit_sizes_gb: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)
    repeats: int = 10
    data_scale: int = 16
    seed: int = 0
    #: Take every n-th DVFS grid frequency (1 = the paper's full 50 MHz sweep).
    frequency_stride: int = 1
    #: Skip running the real codecs (ratios recorded as NaN). Useful
    #: when only power/runtime curves are needed.
    measure_ratios: bool = True

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if self.frequency_stride < 1:
            raise ValueError(f"frequency_stride must be >= 1, got {self.frequency_stride}")
        if not self.compressors or not self.datasets or not self.error_bounds:
            raise ValueError("compressors, datasets and error_bounds must be non-empty")


def default_nodes(
    power_curve: Optional[PowerCurve] = None, seed: int = 0
) -> Tuple[SimulatedNode, SimulatedNode]:
    """The paper's two nodes (Table II) with decorrelated noise streams."""
    return (
        SimulatedNode(BROADWELL_D1548, power_curve=power_curve, seed=seed),
        SimulatedNode(SKYLAKE_4114, power_curve=power_curve, seed=seed + 1),
    )


def _frequency_grid(cpu: CpuSpec, stride: int) -> np.ndarray:
    grid = cpu.available_frequencies()
    # Keep both endpoints: fmin anchors the curve, fmax anchors scaling.
    subset = grid[::stride]
    if subset[-1] != grid[-1]:
        subset = np.append(subset, grid[-1])
    return subset


def _cached_node_block(context: str, node: SimulatedNode, key_parts: Dict,
                       runner):
    """Run one node's sweep block through the result cache.

    The per-node block (not the per-cell sample) is the cacheable unit:
    cells share the node's sequential noise stream, so a cell served
    out of order would desynchronize the RNG. The cached entry stores
    the records *and* the node's post-block RNG state and pinned
    frequency; a hit replays both, leaving the node exactly where a
    cold run would have left it — downstream sweeps on the same node
    stay byte-identical either way.
    """
    cache = get_cache()
    if not cache.enabled:
        return runner()
    key = fingerprint(kind=context, node=describe_node(node), **key_parts)

    def compute():
        records = runner()
        return {
            "records": records,
            "rng_state": node._rng.bit_generator.state,
            "freq_ghz": node.frequency_ghz,
        }

    entry = cache.get_or_compute(key, compute, context=context)
    node._rng.bit_generator.state = entry["rng_state"]
    node.set_frequency(entry["freq_ghz"])
    return entry["records"]


def _measured_ratios(
    arrays: Dict[Tuple[str, str], np.ndarray], config: SweepConfig
) -> Dict[Tuple[str, str, str, float], float]:
    """True compression ratios per (codec, dataset, field, bound).

    The real codecs are the expensive, perfectly deterministic part of
    a sweep, so each (codec, array, bound) cell goes through the cache
    keyed on the array's content digest.
    """
    ratios: Dict[Tuple[str, str, str, float], float] = {}
    if not config.measure_ratios:
        return ratios
    cache = get_cache()
    for codec_name in config.compressors:
        codec = get_compressor(codec_name)
        for (ds, fl), arr in arrays.items():
            for eb in config.error_bounds:
                def compute(codec=codec, arr=arr, eb=eb):
                    return float(codec.compress(arr, eb).ratio)

                if cache.enabled:
                    key = fingerprint(
                        kind="sweep.ratio", codec=codec_name,
                        error_bound=eb, data=arr,
                    )
                    ratio = cache.get_or_compute(
                        key, compute, context="sweep.ratio"
                    )
                else:
                    ratio = compute()
                ratios[(codec_name, ds, fl, eb)] = ratio
    return ratios


def compression_sweep(
    nodes: Sequence[SimulatedNode],
    config: SweepConfig = SweepConfig(),
) -> SampleSet:
    """Run the full compression measurement campaign.

    Returns one record per (cpu, compressor, dataset-field, error bound,
    frequency) with averaged power/runtime/energy, the raw repeats, and
    the true compression ratio. Per-node blocks and per-cell codec
    ratios are served through :mod:`repro.cache` when warm.
    """
    samples = SampleSet()
    arrays: Dict[Tuple[str, str], np.ndarray] = {
        (ds, fl): load_field(ds, fl, scale=config.data_scale, seed=config.seed)
        for ds, fl in config.datasets
    }
    ratios = _measured_ratios(arrays, config)

    for node in nodes:
        def run_block(node=node):
            perf = PerfStat(node, repeats=config.repeats)
            freqs = _frequency_grid(node.cpu, config.frequency_stride)
            records = []
            for codec_name in config.compressors:
                kind = stage_kind("compress", codec_name)
                for (ds, fl), arr in arrays.items():
                    for eb in config.error_bounds:
                        wl = compression_workload(
                            kind, arr.nbytes, eb,
                            name=f"{codec_name}:{ds}/{fl}@eb={eb:g}",
                        )
                        for sample in perf.sweep(wl, freqs):
                            records.append(
                                {
                                    "cpu": sample.cpu,
                                    "compressor": codec_name,
                                    "dataset": ds,
                                    "field": fl,
                                    "error_bound": eb,
                                    "freq_ghz": sample.freq_ghz,
                                    "power_w": sample.power_w,
                                    "runtime_s": sample.runtime_s,
                                    "energy_j": sample.energy_j,
                                    "power_samples": sample.power_samples,
                                    "runtime_samples": sample.runtime_samples,
                                    "ratio": ratios.get(
                                        (codec_name, ds, fl, eb), float("nan")
                                    ),
                                }
                            )
            return records

        samples.extend(
            _cached_node_block(
                "sweep.compression", node, {"config": config}, run_block
            )
        )
    return samples


def transit_sweep(
    nodes: Sequence[SimulatedNode],
    config: SweepConfig = SweepConfig(),
    nfs: Optional[NfsTarget] = None,
) -> SampleSet:
    """Run the data-transit measurement campaign (Section IV-B)."""
    nfs = nfs if nfs is not None else NfsTarget()
    samples = SampleSet()
    for node in nodes:
        def run_block(node=node):
            perf = PerfStat(node, repeats=config.repeats)
            freqs = _frequency_grid(node.cpu, config.frequency_stride)
            records = []
            for size_gb in config.transit_sizes_gb:
                wl = transit_workload(
                    int(size_gb * 1e9), nfs, name=f"write@{size_gb:g}GB"
                )
                for sample in perf.sweep(wl, freqs):
                    records.append(
                        {
                            "cpu": sample.cpu,
                            "size_gb": size_gb,
                            "freq_ghz": sample.freq_ghz,
                            "power_w": sample.power_w,
                            "runtime_s": sample.runtime_s,
                            "energy_j": sample.energy_j,
                            "power_samples": sample.power_samples,
                            "runtime_samples": sample.runtime_samples,
                        }
                    )
            return records

        samples.extend(
            _cached_node_block(
                "sweep.transit", node, {"config": config, "nfs": nfs},
                run_block,
            )
        )
    return samples


def decompression_sweep(
    nodes: Sequence[SimulatedNode],
    config: SweepConfig = SweepConfig(),
) -> SampleSet:
    """Restore-path extension: measure decompression across frequencies.

    Mirrors :func:`compression_sweep` with decoder workloads; record
    schema is identical so the same scaling/fitting machinery applies.
    """
    from repro.hardware.workload import decompression_workload

    samples = SampleSet()
    arrays: Dict[Tuple[str, str], np.ndarray] = {
        (ds, fl): load_field(ds, fl, scale=config.data_scale, seed=config.seed)
        for ds, fl in config.datasets
    }
    for node in nodes:
        def run_block(node=node):
            perf = PerfStat(node, repeats=config.repeats)
            freqs = _frequency_grid(node.cpu, config.frequency_stride)
            records = []
            for codec_name in config.compressors:
                kind = stage_kind("decompress", codec_name)
                for (ds, fl), arr in arrays.items():
                    for eb in config.error_bounds:
                        wl = decompression_workload(
                            kind, arr.nbytes, eb,
                            name=f"{codec_name}:dec:{ds}/{fl}@eb={eb:g}",
                        )
                        for sample in perf.sweep(wl, freqs):
                            records.append(
                                {
                                    "cpu": sample.cpu,
                                    "compressor": codec_name,
                                    "dataset": ds,
                                    "field": fl,
                                    "error_bound": eb,
                                    "freq_ghz": sample.freq_ghz,
                                    "power_w": sample.power_w,
                                    "runtime_s": sample.runtime_s,
                                    "energy_j": sample.energy_j,
                                    "power_samples": sample.power_samples,
                                    "runtime_samples": sample.runtime_samples,
                                }
                            )
            return records

        samples.extend(
            _cached_node_block(
                "sweep.decompression", node, {"config": config}, run_block
            )
        )
    return samples


def read_sweep(
    nodes: Sequence[SimulatedNode],
    config: SweepConfig = SweepConfig(),
    nfs: Optional[NfsTarget] = None,
) -> SampleSet:
    """Restore-path extension: measure NFS reads across frequencies."""
    from repro.hardware.workload import read_workload

    nfs = nfs if nfs is not None else NfsTarget()
    samples = SampleSet()
    for node in nodes:
        def run_block(node=node):
            perf = PerfStat(node, repeats=config.repeats)
            freqs = _frequency_grid(node.cpu, config.frequency_stride)
            records = []
            for size_gb in config.transit_sizes_gb:
                wl = read_workload(
                    int(size_gb * 1e9), nfs.effective_bandwidth_bps(),
                    name=f"read@{size_gb:g}GB",
                )
                for sample in perf.sweep(wl, freqs):
                    records.append(
                        {
                            "cpu": sample.cpu,
                            "size_gb": size_gb,
                            "freq_ghz": sample.freq_ghz,
                            "power_w": sample.power_w,
                            "runtime_s": sample.runtime_s,
                            "energy_j": sample.energy_j,
                            "power_samples": sample.power_samples,
                            "runtime_samples": sample.runtime_samples,
                        }
                    )
            return records

        samples.extend(
            _cached_node_block(
                "sweep.read", node, {"config": config, "nfs": nfs}, run_block
            )
        )
    return samples
