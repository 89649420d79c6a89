"""Workload descriptors: what a node executes and how it scales with DVFS.

A workload carries (a) the bytes it touches, (b) its reference runtime
on Broadwell at base clock, and (c) its *compute fraction* — the share
of that runtime that scales with core frequency under the classic
leading-loads decomposition

    t(f) = t_ref * [ (1 - s) + s * f_max / f ]

(memory/IO-bound time is frequency-invariant, core-bound time stretches
as 1/f). The paper's observed runtime penalties (+7.5 % at −12.5 % for
compression, +9.3 % at −15 % for writing, near-flat Skylake writes)
calibrate the per-(kind, arch) sensitivities in
:data:`FREQUENCY_SENSITIVITY`.

Reference throughputs approximate single-core rates of the C codecs the
paper ran (SZ ≈ 240 MB/s, ZFP ≈ 190 MB/s at 2 GHz Broadwell), with a
work factor that grows for finer error bounds — matching Fig. 6's
runtime-magnitude trend.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.hardware.cpu import CpuSpec
from repro.utils.validation import check_in_range, check_positive

__all__ = [
    "WorkloadKind",
    "Workload",
    "FREQUENCY_SENSITIVITY",
    "REFERENCE_THROUGHPUT_MBPS",
    "compression_workload",
    "decompression_workload",
    "write_workload",
    "read_workload",
    "error_bound_work_factor",
    "CODECS",
    "stage_kind",
]


class WorkloadKind(enum.Enum):
    """The single-core workload classes.

    ``COMPRESS_*`` and ``WRITE`` are what the paper characterizes;
    ``DECOMPRESS_*`` and ``READ`` extend the model to the restore path
    (read-then-decompress), the natural counterpart of data dumping the
    paper leaves to future work.
    """

    COMPRESS_SZ = "compress-sz"
    COMPRESS_ZFP = "compress-zfp"
    DECOMPRESS_SZ = "decompress-sz"
    DECOMPRESS_ZFP = "decompress-zfp"
    WRITE = "write"
    READ = "read"

    @property
    def is_compression(self) -> bool:
        return self in (WorkloadKind.COMPRESS_SZ, WorkloadKind.COMPRESS_ZFP)

    @property
    def is_decompression(self) -> bool:
        return self in (WorkloadKind.DECOMPRESS_SZ, WorkloadKind.DECOMPRESS_ZFP)

    @property
    def is_codec(self) -> bool:
        """Codec stages (compression or decompression) vs. pure I/O."""
        return self.is_compression or self.is_decompression


#: Codecs with a workload model.
CODECS = ("sz", "zfp")

#: Workload kind of each I/O stage, by codec for the codec stages. A
#: compress stage that names no codec is modeled as SZ, the paper's
#: headline codec; an idle node is costed on the write path.
_STAGE_KINDS = {
    ("compress", None): WorkloadKind.COMPRESS_SZ,
    ("compress", "sz"): WorkloadKind.COMPRESS_SZ,
    ("compress", "zfp"): WorkloadKind.COMPRESS_ZFP,
    ("decompress", "sz"): WorkloadKind.DECOMPRESS_SZ,
    ("decompress", "zfp"): WorkloadKind.DECOMPRESS_ZFP,
    ("write", None): WorkloadKind.WRITE,
    ("read", None): WorkloadKind.READ,
    ("idle", None): WorkloadKind.WRITE,
}


def stage_kind(stage: str, codec: "str | None" = None) -> WorkloadKind:
    """The workload kind an I/O *stage* runs as.

    *codec* selects the kind of a ``compress`` or ``decompress`` stage
    and is ignored by the I/O stages (``write``, ``read``, ``idle``).
    Raises :class:`KeyError` for a codec or stage with no model.
    """
    if stage not in ("compress", "decompress"):
        codec = None
    try:
        return _STAGE_KINDS[stage, codec]
    except KeyError:
        what = f"stage {stage!r}" if codec is None else f"codec {codec!r}"
        raise KeyError(f"no workload kind for {what}") from None


#: Leading-loads compute fraction per (kind, arch). Calibration (§V):
#: compression lands at +7.5 % runtime for a 12.5 % frequency cut
#: averaged over both chips; data writing at +9.3 % for 15 % with the
#: Skylake side nearly flat (the paper's "stagnant scaling").
FREQUENCY_SENSITIVITY = {
    (WorkloadKind.COMPRESS_SZ, "broadwell"): 0.55,
    (WorkloadKind.COMPRESS_SZ, "skylake"): 0.50,
    (WorkloadKind.COMPRESS_ZFP, "broadwell"): 0.57,
    (WorkloadKind.COMPRESS_ZFP, "skylake"): 0.52,
    (WorkloadKind.WRITE, "broadwell"): 0.75,
    (WorkloadKind.WRITE, "skylake"): 0.30,
    # Restore path (extension): decompression is slightly more
    # memory-bound than compression (no prediction search, straight
    # Huffman/plane decode); reads behave like writes.
    (WorkloadKind.DECOMPRESS_SZ, "broadwell"): 0.50,
    (WorkloadKind.DECOMPRESS_SZ, "skylake"): 0.45,
    (WorkloadKind.DECOMPRESS_ZFP, "broadwell"): 0.52,
    (WorkloadKind.DECOMPRESS_ZFP, "skylake"): 0.47,
    (WorkloadKind.READ, "broadwell"): 0.70,
    (WorkloadKind.READ, "skylake"): 0.28,
    # The extension CPU (Cascade Lake; "do the trends hold elsewhere?").
    (WorkloadKind.COMPRESS_SZ, "cascadelake"): 0.52,
    (WorkloadKind.COMPRESS_ZFP, "cascadelake"): 0.54,
    (WorkloadKind.DECOMPRESS_SZ, "cascadelake"): 0.47,
    (WorkloadKind.DECOMPRESS_ZFP, "cascadelake"): 0.49,
    (WorkloadKind.WRITE, "cascadelake"): 0.55,
    (WorkloadKind.READ, "cascadelake"): 0.50,
}

#: Single-core throughput at Broadwell base clock, MB/s (1 MB = 1e6 B).
#: Decompression is faster than compression for both codecs (as for the
#: real SZ/ZFP C implementations).
REFERENCE_THROUGHPUT_MBPS = {
    WorkloadKind.COMPRESS_SZ: 240.0,
    WorkloadKind.COMPRESS_ZFP: 190.0,
    WorkloadKind.DECOMPRESS_SZ: 380.0,
    WorkloadKind.DECOMPRESS_ZFP: 310.0,
    WorkloadKind.WRITE: 560.0,
    WorkloadKind.READ: 620.0,
}


def error_bound_work_factor(error_bound: float) -> float:
    """Relative compression work vs. the coarsest bound the paper uses.

    Finer bounds quantize more finely, lengthen Huffman codes and touch
    more unpredictable values; empirically SZ/ZFP slow down tens of
    percent from 1e-1 to 1e-4. Modeled as +12 % work per decade below
    1e-1 (clamped at the 1e-1 baseline for coarser bounds).
    """
    check_positive(error_bound, "error_bound")
    decades = max(0.0, math.log10(0.1 / error_bound))
    return 1.0 + 0.12 * decades


def _systematic_power_factor(token: str, spread: float = 0.10) -> float:
    """Deterministic per-workload modulation of *dynamic* power, ``1 ± spread``.

    Real workloads exercise the core differently (cache behaviour,
    vector width, branchiness), shifting the switching power by several
    percent around the per-kind curve while leaving static power alone.
    A hash of the workload identity gives a reproducible stand-in for
    that systematic, non-noise variation — it survives max-clock
    scaling and is what keeps the fitted models of Tables IV/V from
    being artificially perfect.
    """
    h = 0x811C9DC5
    for ch in token.encode():
        h = ((h ^ ch) * 0x01000193) & 0xFFFFFFFF
    unit = (h / 0xFFFFFFFF) * 2.0 - 1.0
    return 1.0 + spread * unit


@dataclass(frozen=True)
class Workload:
    """A unit of single-core work a :class:`SimulatedNode` can execute."""

    kind: WorkloadKind
    name: str
    bytes_processed: int
    reference_runtime_s: float
    #: Default compute fraction when the (kind, arch) table has no entry.
    compute_fraction: float = 0.5
    #: Systematic multiplier on the kind's *dynamic* power term (see
    #: :func:`_systematic_power_factor`).
    dynamic_power_factor: float = 1.0
    #: When set, bypasses the (kind, arch) sensitivity table — used by
    #: the cluster model, where shared-bandwidth contention moves the
    #: bottleneck off the CPU and flattens the DVFS response.
    sensitivity_override: "float | None" = None
    #: Amdahl parallel fraction when run on multiple cores. Codec work
    #: shards near-perfectly over independent chunks; I/O stages are a
    #: single stream and default to 0 (no speedup from extra cores).
    parallel_fraction: float = 0.0

    def __post_init__(self):
        if self.bytes_processed <= 0:
            raise ValueError(f"bytes_processed must be positive, got {self.bytes_processed}")
        check_positive(self.reference_runtime_s, "reference_runtime_s")
        check_in_range(self.compute_fraction, 0.0, 1.0, "compute_fraction")
        check_in_range(self.dynamic_power_factor, 0.5, 1.5, "dynamic_power_factor")
        if self.sensitivity_override is not None:
            check_in_range(self.sensitivity_override, 0.0, 1.0, "sensitivity_override")
        check_in_range(self.parallel_fraction, 0.0, 1.0, "parallel_fraction")

    def sensitivity(self, cpu: CpuSpec) -> float:
        """Compute fraction applicable on *cpu*."""
        if self.sensitivity_override is not None:
            return self.sensitivity_override
        return FREQUENCY_SENSITIVITY.get((self.kind, cpu.arch), self.compute_fraction)

    def runtime_s(self, cpu: CpuSpec, freq_ghz: float) -> float:
        """Leading-loads runtime on *cpu* pinned at *freq_ghz*.

        The reference runtime is defined on Broadwell at base clock
        (2.0 GHz, perf factor 1). Porting to another CPU speeds up only
        the *compute* share — the memory/network share is hardware on
        the other side of the core and must not shrink with a faster
        chip (otherwise a cluster of fast clients would exceed the NFS
        server's physical capacity). The frequency stretch is the same
        leading-loads form as before, so scaled runtime curves are
        unaffected by the cross-CPU conversion.
        """
        freq_ghz = cpu.snap_frequency(freq_ghz)
        s = self.sensitivity(cpu)
        core_speed = cpu.perf_ghz_factor * cpu.fmax_ghz / 2.0  # vs Broadwell
        t_at_base_clock = self.reference_runtime_s * ((1.0 - s) + s / core_speed)
        return t_at_base_clock * ((1.0 - s) + s * cpu.fmax_ghz / freq_ghz)

    def multicore_runtime_s(self, cpu: CpuSpec, freq_ghz: float, cores: int) -> float:
        """Amdahl-scaled runtime on *cores* cores (extension study).

        Only the parallel fraction of the work divides across cores;
        the serial remainder (Huffman table builds, stream assembly,
        the single I/O stream) does not.
        """
        if not 1 <= cores <= cpu.cores:
            raise ValueError(f"cores must lie in [1, {cpu.cores}], got {cores}")
        t1 = self.runtime_s(cpu, freq_ghz)
        p = self.parallel_fraction
        return t1 * ((1.0 - p) + p / cores)


def compression_workload(
    kind: WorkloadKind,
    nbytes: int,
    error_bound: float,
    name: str = "",
) -> Workload:
    """Build a compression workload for *nbytes* of floating-point data.

    The reference runtime is ``nbytes / throughput`` stretched by the
    error-bound work factor.
    """
    if not kind.is_compression:
        raise ValueError(f"{kind} is not a compression workload kind")
    throughput = REFERENCE_THROUGHPUT_MBPS[kind] * 1e6
    runtime = nbytes / throughput * error_bound_work_factor(error_bound)
    label = name or f"{kind.value}@eb={error_bound:g}"
    return Workload(
        kind=kind,
        name=label,
        bytes_processed=int(nbytes),
        reference_runtime_s=runtime,
        dynamic_power_factor=_systematic_power_factor(f"{kind.value}|{label}"),
        parallel_fraction=0.95,
    )


def decompression_workload(
    kind: WorkloadKind,
    nbytes: int,
    error_bound: float,
    name: str = "",
) -> Workload:
    """Build a decompression workload producing *nbytes* of output.

    Cost scales with the reconstructed volume (each element is decoded
    once), stretched by the same error-bound work factor as compression
    (finer bounds mean longer codes to decode).
    """
    if not kind.is_decompression:
        raise ValueError(f"{kind} is not a decompression workload kind")
    throughput = REFERENCE_THROUGHPUT_MBPS[kind] * 1e6
    runtime = nbytes / throughput * error_bound_work_factor(error_bound)
    label = name or f"{kind.value}@eb={error_bound:g}"
    return Workload(
        kind=kind,
        name=label,
        bytes_processed=int(nbytes),
        reference_runtime_s=runtime,
        dynamic_power_factor=_systematic_power_factor(f"{kind.value}|{label}"),
        parallel_fraction=0.95,
    )


def read_workload(nbytes: int, effective_bandwidth_bps: float, name: str = "") -> Workload:
    """Build an NFS read workload (the restore path's I/O stage)."""
    check_positive(effective_bandwidth_bps, "effective_bandwidth_bps")
    runtime = nbytes / effective_bandwidth_bps
    label = name or f"read@{nbytes / 1e9:.2f}GB"
    return Workload(
        kind=WorkloadKind.READ,
        name=label,
        bytes_processed=int(nbytes),
        reference_runtime_s=runtime,
        dynamic_power_factor=_systematic_power_factor(f"read|{label}", spread=0.06),
    )


def write_workload(nbytes: int, effective_bandwidth_bps: float, name: str = "") -> Workload:
    """Build a data-writing workload.

    *effective_bandwidth_bps* is the achievable single-core NFS write
    rate at base clock (see :class:`repro.iosim.nfs.NfsTarget`); the
    CPU-side copy/protocol work is what stretches under DVFS.
    """
    check_positive(effective_bandwidth_bps, "effective_bandwidth_bps")
    runtime = nbytes / effective_bandwidth_bps
    label = name or f"write@{nbytes / 1e9:.2f}GB"
    return Workload(
        kind=WorkloadKind.WRITE,
        name=label,
        bytes_processed=int(nbytes),
        reference_runtime_s=runtime,
        dynamic_power_factor=_systematic_power_factor(f"write|{label}", spread=0.06),
    )
