"""Data-transit experiments: writing fixed-size buffers over the NFS.

Reproduces Section IV-B's protocol: allocate 1-16 GB of floating-point
data, copy it to the NFS mount with a single core, and measure energy
and runtime across the DVFS range, 10 repeats per point.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.hardware.node import SimulatedNode
from repro.hardware.perf import PerfStat, PowerSample
from repro.hardware.workload import Workload, write_workload
from repro.iosim.nfs import NfsTarget
from repro.utils.validation import check_positive

__all__ = ["transit_workload", "TransitExperiment", "DEFAULT_TRANSIT_SIZES_GB"]

#: The paper's transit sizes: 1 GB to 16 GB (powers of two).
DEFAULT_TRANSIT_SIZES_GB = (1.0, 2.0, 4.0, 8.0, 16.0)


def transit_workload(nbytes: int, nfs: NfsTarget, name: str = "") -> Workload:
    """A single-core NFS write of *nbytes* through *nfs*."""
    return write_workload(nbytes, nfs.effective_bandwidth_bps(), name=name)


class TransitExperiment:
    """Sweeps NFS writes of several sizes across the frequency range."""

    def __init__(
        self,
        node: SimulatedNode,
        nfs: NfsTarget | None = None,
        repeats: int = 10,
    ) -> None:
        self.node = node
        self.nfs = nfs if nfs is not None else NfsTarget()
        self.perf = PerfStat(node, repeats=repeats)

    def run(
        self,
        sizes_gb: Sequence[float] = DEFAULT_TRANSIT_SIZES_GB,
        frequencies=None,
    ) -> Tuple[PowerSample, ...]:
        """Measure every (size, frequency) point; returns all samples."""
        samples = []
        for size_gb in sizes_gb:
            check_positive(size_gb, "size_gb")
            nbytes = int(size_gb * 1e9)
            wl = transit_workload(nbytes, self.nfs, name=f"write@{size_gb:g}GB")
            samples.extend(self.perf.sweep(wl, frequencies))
        return tuple(samples)
