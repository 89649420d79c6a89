"""Burst-buffer tier: dump to local NVMe, drain to the NFS asynchronously.

Liu et al. ([10] in the paper) analyse exactly this bottleneck
structure: applications absorb snapshots into a fast near-node tier and
a background drainer trickles them to the parallel file system. The
energy question changes shape — the *application-visible* dump is the
fast NVMe write, while the drain burns server-side time that overlaps
compute and can itself be frequency-tuned.

:class:`BurstBufferTarget` models the fast tier; :class:`TieredDumper`
runs compress → NVMe-write (application-visible) and reports the NFS
drain stage separately so campaign accounting can overlap it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compressors.base import Compressor
from repro.hardware.node import SimulatedNode
from repro.hardware.workload import compression_workload, stage_kind, write_workload
from repro.iosim.dumper import measure_ratio
from repro.iosim.nfs import NfsTarget
from repro.iosim.stage import StageReport, resolve_stage_frequency, run_stage
from repro.utils.validation import check_positive

__all__ = ["BurstBufferTarget", "TieredDumpReport", "TieredDumper"]


@dataclass(frozen=True)
class BurstBufferTarget:
    """Near-node NVMe tier."""

    #: Sustained local write rate at reference clock, MB/s.
    nvme_mbps: float = 2400.0
    #: Per-op overhead is negligible on the local path.
    cpu_copy_mbps: float = 1600.0

    def __post_init__(self):
        check_positive(self.nvme_mbps, "nvme_mbps")
        check_positive(self.cpu_copy_mbps, "cpu_copy_mbps")

    def effective_bandwidth_bps(self) -> float:
        """Client-visible absorb rate (device ∧ copy path), B/s."""
        return min(self.nvme_mbps, self.cpu_copy_mbps) * 1e6


@dataclass(frozen=True)
class TieredDumpReport:
    """Outcome of a compress → burst-buffer → drain dump."""

    compress: StageReport
    absorb: StageReport
    drain: StageReport
    compression_ratio: float
    error_bound: float

    @property
    def application_visible_runtime_s(self) -> float:
        """Time the application is blocked (compress + NVMe absorb)."""
        return self.compress.runtime_s + self.absorb.runtime_s

    @property
    def total_energy_j(self) -> float:
        """All energy, including the overlapped drain."""
        return self.compress.energy_j + self.absorb.energy_j + self.drain.energy_j


class TieredDumper:
    """Runs the two-tier dump on a simulated node."""

    def __init__(
        self,
        node: SimulatedNode,
        burst_buffer: BurstBufferTarget | None = None,
        nfs: NfsTarget | None = None,
        repeats: int = 5,
    ) -> None:
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        self.node = node
        self.bb = burst_buffer if burst_buffer is not None else BurstBufferTarget()
        self.nfs = nfs if nfs is not None else NfsTarget()
        self.repeats = int(repeats)

    def dump(
        self,
        compressor: Compressor,
        sample_field: np.ndarray,
        error_bound: float,
        target_bytes: int,
        compress_freq_ghz: float | None = None,
        absorb_freq_ghz: float | None = None,
        drain_freq_ghz: float | None = None,
    ) -> TieredDumpReport:
        """Compress, absorb into the burst buffer, then drain to the NFS.

        The drain is the same compressed volume pushed through the NFS
        path (it still costs CPU on whichever core drives it). Because
        it overlaps compute, its *runtime* is free — but its energy is
        not, and since the write path is CPU-bound, running it at f_min
        actually costs more energy (the runtime stretch outweighs the
        power drop). The default is therefore the base clock; pass the
        site's energy-optimal write frequency for the real deployment.
        """
        check_positive(target_bytes, "target_bytes")
        kind = stage_kind("compress", compressor.name)
        ratio = measure_ratio(compressor, sample_field, error_bound).ratio
        compressed = max(1, int(round(target_bytes / ratio)))

        compress, absorb, drain = (
            run_stage(
                self.node, workload,
                resolve_stage_frequency(self.node.cpu, phase, pinned),
                self.repeats, workload.name, workload.bytes_processed, span,
            )
            for span, phase, pinned, workload in (
                ("tiered.compress", "compress", compress_freq_ghz,
                 compression_workload(
                     kind, target_bytes, error_bound, name="tiered-compress")),
                ("tiered.absorb", "write", absorb_freq_ghz, write_workload(
                    compressed, self.bb.effective_bandwidth_bps(),
                    name="bb-absorb")),
                ("tiered.drain", "write", drain_freq_ghz, write_workload(
                    compressed, self.nfs.effective_bandwidth_bps(),
                    name="nfs-drain")),
            )
        )
        return TieredDumpReport(
            compress=compress,
            absorb=absorb,
            drain=drain,
            compression_ratio=ratio,
            error_bound=error_bound,
        )
