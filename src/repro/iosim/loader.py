"""Read-then-decompress restore pipeline (extension of Section VI-B).

The inverse of :class:`~repro.iosim.dumper.DataDumper`: fetch the
compressed bytes from the NFS, then decompress back to the full volume.
Stage order and the per-stage frequency control mirror the dumper so
the same tuning methodology applies to the restore path the paper
leaves to future work.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor
from repro.hardware.node import SimulatedNode
from repro.hardware.workload import decompression_workload, read_workload, stage_kind
from repro.iosim.dumper import DumpReport, measure_ratio
from repro.iosim.nfs import NfsTarget
from repro.iosim.stage import StageReport, resolve_stage_frequency, run_stage
from repro.utils.validation import check_positive

__all__ = ["RestoreReport", "DataLoader"]


class RestoreReport(DumpReport):
    """Restore outcome; reuses the dump report structure with the
    ``compress`` slot holding the decompression stage and ``write``
    holding the read stage."""

    @property
    def decompress(self) -> StageReport:
        return self.compress

    @property
    def read(self) -> StageReport:
        return self.write


class DataLoader:
    """Runs the read-then-decompress pipeline on a simulated node."""

    def __init__(
        self, node: SimulatedNode, nfs: NfsTarget | None = None, repeats: int = 10
    ) -> None:
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        self.node = node
        self.nfs = nfs if nfs is not None else NfsTarget()
        self.repeats = int(repeats)

    def restore(
        self,
        compressor: Compressor,
        sample_field: np.ndarray,
        error_bound: float,
        target_bytes: int,
        read_freq_ghz: float | None = None,
        decompress_freq_ghz: float | None = None,
    ) -> RestoreReport:
        """Read and decompress *target_bytes* worth of reconstructed data.

        The real codec runs on *sample_field* to obtain the compressed
        size that must be fetched from the NFS.
        """
        check_positive(target_bytes, "target_bytes")
        kind = stage_kind("decompress", compressor.name)
        ratio = measure_ratio(compressor, sample_field, error_bound).ratio
        compressed_bytes = max(1, int(round(target_bytes / ratio)))

        cpu = self.node.cpu
        wl_r = read_workload(compressed_bytes, self.nfs.effective_bandwidth_bps(),
                             name="restore-read")
        read = run_stage(
            self.node, wl_r, resolve_stage_frequency(cpu, "read", read_freq_ghz),
            self.repeats, "read", compressed_bytes, "restore.read",
        )
        wl_d = decompression_workload(
            kind, target_bytes, error_bound, name=f"{compressor.name}-restore",
        )
        decompress = run_stage(
            self.node, wl_d,
            resolve_stage_frequency(cpu, "decompress", decompress_freq_ghz),
            self.repeats, "decompress", target_bytes, "restore.decompress",
        )
        return RestoreReport(
            compress=decompress,
            write=read,
            compression_ratio=ratio,
            error_bound=error_bound,
        )
