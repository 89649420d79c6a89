"""Shared driver: run a governed compress→write campaign on one node.

Both the convergence tests and ``benchmarks/governor_regret.py`` need
the same experiment — N snapshots through the two-phase dump loop with
a governor picking each phase's clock — without paying for the full
codec pipeline. This driver runs the workload model directly on a
:class:`~repro.hardware.node.SimulatedNode`.

Accounting is deliberately split: the governor *observes* the node's
noisy RAPL-style measurements (that is what it would see in
production), while the returned totals use the noise-free ground-truth
curves, so a regret comparison between two policies reflects their
decisions, not their measurement luck.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.governor.phases import Phase
from repro.governor.policies import Governor, GovernorReport
from repro.hardware.node import SimulatedNode
from repro.hardware.workload import (
    WorkloadKind,
    compression_workload,
    write_workload,
)
from repro.iosim.stage import resolve_stage_frequency, run_stage

__all__ = ["GovernedIOResult", "simulate_governed_io"]

#: Achievable single-core NFS write rate at base clock, B/s (the
#: paper's ~1 GbE CloudLab testbed).
DEFAULT_WRITE_BANDWIDTH_BPS = 110e6


@dataclass(frozen=True)
class GovernedIOResult:
    """Ground-truth totals of one governed campaign."""

    snapshots: int
    energy_j: float
    runtime_s: float
    #: Noise-free per-phase (energy_j, runtime_s) splits.
    compress_energy_j: float
    write_energy_j: float
    report: GovernorReport

    @property
    def mean_power_w(self) -> float:
        return self.energy_j / self.runtime_s


def simulate_governed_io(
    node: SimulatedNode,
    governor: Governor,
    snapshots: int = 24,
    snapshot_bytes: int = 256_000_000,
    error_bound: float = 1e-3,
    compression_ratio: float = 8.0,
    write_bandwidth_bps: float = DEFAULT_WRITE_BANDWIDTH_BPS,
) -> GovernedIOResult:
    """Dump *snapshots* checkpoints under *governor* control.

    Each snapshot compresses ``snapshot_bytes`` (SZ model) and writes
    the ``snapshot_bytes / compression_ratio`` output; the governor is
    consulted at each phase boundary and fed the measured sample
    afterwards.
    """
    if snapshots < 1:
        raise ValueError(f"snapshots must be >= 1, got {snapshots}")
    if compression_ratio <= 0:
        raise ValueError(
            f"compression_ratio must be positive, got {compression_ratio}"
        )
    compress_wl = compression_workload(
        WorkloadKind.COMPRESS_SZ, snapshot_bytes, error_bound
    )
    compressed_bytes = max(int(snapshot_bytes / compression_ratio), 1)
    write_wl = write_workload(compressed_bytes, write_bandwidth_bps)

    energy = {Phase.COMPRESS: 0.0, Phase.WRITE: 0.0}
    runtime = 0.0
    for _ in range(snapshots):
        for phase, workload in (
            (Phase.COMPRESS, compress_wl),
            (Phase.WRITE, write_wl),
        ):
            freq = resolve_stage_frequency(node.cpu, phase, governor=governor)
            measured = run_stage(
                node, workload, freq, 1, phase.value,
                workload.bytes_processed, f"governed.{phase.value}",
            )
            governor.observe(
                phase,
                measured.freq_ghz,
                measured.power_w,
                measured.runtime_s,
                workload.bytes_processed,
            )
            t = node.true_runtime_s(workload)
            energy[phase] += node.true_power_w(workload) * t
            runtime += t

    return GovernedIOResult(
        snapshots=snapshots,
        energy_j=energy[Phase.COMPRESS] + energy[Phase.WRITE],
        runtime_s=runtime,
        compress_energy_j=energy[Phase.COMPRESS],
        write_energy_j=energy[Phase.WRITE],
        report=governor.report(),
    )
