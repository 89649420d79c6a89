"""Multi-field snapshot dumps.

Fig. 6 dumps one concatenated field; a real simulation snapshot carries
several fields with *different* error-bound requirements (velocities
tolerate more loss than densities). :class:`SnapshotSpec` describes
such a bundle; :class:`SnapshotDumper` compresses each field with the
real codec at its own bound, then writes the combined compressed volume
— one pipeline invocation per snapshot, matching how HACC-style codes
actually checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.compressors.base import Compressor
from repro.hardware.node import SimulatedNode
from repro.hardware.workload import compression_workload, stage_kind
from repro.iosim.dumper import measure_ratio
from repro.iosim.nfs import NfsTarget
from repro.iosim.stage import StageReport, resolve_stage_frequency, run_stage
from repro.iosim.transit import transit_workload
from repro.utils.validation import check_positive

__all__ = ["SnapshotField", "SnapshotSpec", "SnapshotDumpReport", "SnapshotDumper"]


@dataclass(frozen=True)
class SnapshotField:
    """One field of a snapshot: data geometry plus its fidelity need."""

    name: str
    sample: np.ndarray
    error_bound: float
    target_bytes: int

    def __post_init__(self):
        check_positive(self.error_bound, "error_bound")
        check_positive(self.target_bytes, "target_bytes")


@dataclass(frozen=True)
class SnapshotSpec:
    """A bundle of fields dumped together."""

    fields: Tuple[SnapshotField, ...]

    def __post_init__(self):
        if not self.fields:
            raise ValueError("a snapshot needs at least one field")
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in snapshot: {names}")

    @property
    def total_bytes(self) -> int:
        return sum(f.target_bytes for f in self.fields)


@dataclass(frozen=True)
class SnapshotDumpReport:
    """Outcome of one snapshot dump."""

    per_field: Dict[str, StageReport]
    write: StageReport
    ratios: Dict[str, float]
    total_uncompressed: int
    total_compressed: int

    @property
    def compress_energy_j(self) -> float:
        return sum(s.energy_j for s in self.per_field.values())

    @property
    def compress_runtime_s(self) -> float:
        return sum(s.runtime_s for s in self.per_field.values())

    @property
    def total_energy_j(self) -> float:
        return self.compress_energy_j + self.write.energy_j

    @property
    def total_runtime_s(self) -> float:
        return self.compress_runtime_s + self.write.runtime_s

    @property
    def overall_ratio(self) -> float:
        return self.total_uncompressed / max(self.total_compressed, 1)


class SnapshotDumper:
    """Compress every field at its own bound, then write the bundle."""

    def __init__(
        self, node: SimulatedNode, nfs: NfsTarget | None = None, repeats: int = 5
    ) -> None:
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        self.node = node
        self.nfs = nfs if nfs is not None else NfsTarget()
        self.repeats = int(repeats)

    def dump(
        self,
        compressor: Compressor,
        spec: SnapshotSpec,
        compress_freq_ghz: float | None = None,
        write_freq_ghz: float | None = None,
    ) -> SnapshotDumpReport:
        """Dump the snapshot at the given per-stage frequencies."""
        kind = stage_kind("compress", compressor.name)
        cpu = self.node.cpu
        f_c = resolve_stage_frequency(cpu, "compress", compress_freq_ghz)
        f_w = resolve_stage_frequency(cpu, "write", write_freq_ghz)

        per_field: Dict[str, StageReport] = {}
        ratios: Dict[str, float] = {}
        total_compressed = 0
        for field in spec.fields:
            ratio = measure_ratio(compressor, field.sample, field.error_bound).ratio
            ratios[field.name] = ratio
            total_compressed += max(1, int(round(field.target_bytes / ratio)))
            wl = compression_workload(
                kind, field.target_bytes, field.error_bound,
                name=f"snap:{field.name}",
            )
            per_field[field.name] = run_stage(
                self.node, wl, f_c, self.repeats, wl.name, wl.bytes_processed,
                "snapshot.compress", field=field.name,
            )

        wl_w = transit_workload(total_compressed, self.nfs, name="snap-write")
        write = run_stage(
            self.node, wl_w, f_w, self.repeats, wl_w.name, wl_w.bytes_processed,
            "snapshot.write",
        )
        return SnapshotDumpReport(
            per_field=per_field,
            write=write,
            ratios=ratios,
            total_uncompressed=spec.total_bytes,
            total_compressed=total_compressed,
        )
