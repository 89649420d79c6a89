"""Network-file-system data-transit simulation.

The paper writes data to an NFS over 10 Gbps Ethernet with a single
core; this package models that path — effective bandwidth as the
minimum of network, disk, and CPU copy rates — and provides the
compress-then-write pipeline of Section VI-B.
"""

from repro.iosim.nfs import NfsTarget
from repro.iosim.transit import TransitExperiment, transit_workload
from repro.iosim.stage import StageReport
from repro.iosim.dumper import (
    DataDumper,
    DumpReport,
    RatioMeasurement,
    RunConfig,
    measure_ratio,
)
from repro.iosim.loader import DataLoader, RestoreReport
from repro.iosim.cluster import Cluster, ClusterDumpReport
from repro.iosim.burstbuffer import BurstBufferTarget, TieredDumper, TieredDumpReport
from repro.iosim.snapshot import SnapshotDumper, SnapshotField, SnapshotSpec

__all__ = [
    "NfsTarget",
    "TransitExperiment",
    "transit_workload",
    "RunConfig",
    "DataDumper",
    "DumpReport",
    "StageReport",
    "RatioMeasurement",
    "measure_ratio",
    "DataLoader",
    "RestoreReport",
    "Cluster",
    "ClusterDumpReport",
    "BurstBufferTarget",
    "TieredDumper",
    "TieredDumpReport",
    "SnapshotDumper",
    "SnapshotField",
    "SnapshotSpec",
]
