"""Cluster-scale data dumping with shared-NFS contention.

The paper studies one node; at exascale, many nodes dump snapshots
concurrently through shared storage. This extension models N identical
clients writing to one :class:`~repro.iosim.nfs.NfsTarget`:

* compression is node-local — costs are independent of N;
* writes contend for the server capacity (network ∧ disk). Each client
  sustains ``min(cpu_copy_rate, capacity / N)``; once the shared side
  saturates, the client CPU stops being the bottleneck, so the write
  stage's DVFS sensitivity is derated by
  :meth:`~repro.iosim.nfs.NfsTarget.cpu_bound_fraction`.

The interesting emergent behaviour (see the extension bench): under
contention, lowering the write frequency becomes *free* — runtime is
pinned by the network — so per-node tuning savings grow with N.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.powercap.controller import PowercapReport

from repro.compressors.base import Compressor
from repro.hardware.cpu import CpuSpec
from repro.hardware.node import SimulatedNode
from repro.hardware.workload import compression_workload, stage_kind, write_workload
from repro.iosim.dumper import DumpReport, measure_ratio
from repro.iosim.nfs import NfsTarget
from repro.iosim.stage import resolve_stage_frequency, run_stage
from repro.utils.validation import check_positive

__all__ = ["ClusterDumpReport", "Cluster", "SimulatedCluster"]


@dataclass(frozen=True)
class ClusterDumpReport:
    """Aggregate outcome of a synchronized cluster dump."""

    per_node: Tuple[DumpReport, ...]
    nodes: int
    cpu_bound_fraction: float
    #: Sealed power-cap receipt when the dump ran under a watt budget
    #: (``power_budget_w``), else None.
    powercap: Optional["PowercapReport"] = None

    @property
    def total_energy_j(self) -> float:
        """Cluster-wide energy (sum over nodes)."""
        return float(sum(r.total_energy_j for r in self.per_node))

    @property
    def makespan_s(self) -> float:
        """Wall time of the synchronized dump (slowest node per phase)."""
        return float(
            max(r.compress.runtime_s for r in self.per_node)
            + max(r.write.runtime_s for r in self.per_node)
        )

    @property
    def aggregate_write_bandwidth_bps(self) -> float:
        """Achieved cluster write bandwidth during the write phase."""
        total_bytes = sum(r.write.bytes_processed for r in self.per_node)
        write_time = max(r.write.runtime_s for r in self.per_node)
        return total_bytes / write_time


class SimulatedCluster:
    """N identical simulated nodes sharing one NFS target, optionally
    under a fleet-wide watt budget and per-node governors.

    Node *i* runs on its own RNG (``seed + i``), so a fleet dump is N
    node dumps played phase-major. With ``power_budget_w`` set, a
    :class:`~repro.powercap.controller.ClusterCapController` splits
    ``budget - nfs_reserve`` watts across the nodes, re-solving at the
    compress -> write phase boundary from the per-node power telemetry
    recorded during the compress phase, and every stage frequency is
    clamped to its node's ``cap_ghz``. With ``governor`` set (a kind
    from :data:`repro.governor.GOVERNOR_KINDS`), each node runs its own
    governor and the caps flow through ``Governor.decide(cap_ghz=...)``
    — infeasible caps surface as ``capped_below_fmin`` trace tags.
    :data:`Cluster` is this class; with neither option every node runs
    at the pinned clocks (or the base clock).
    """

    def __init__(
        self,
        cpu: CpuSpec,
        n_nodes: int,
        nfs: Optional[NfsTarget] = None,
        seed: int = 0,
        repeats: int = 5,
        power_budget_w: Optional[float] = None,
        policy: str = "waterfill",
        nfs_reserve_w: Optional[float] = None,
        hysteresis: Optional[float] = None,
        work_weights: Optional[Sequence[float]] = None,
        governor: Optional[str] = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        self.nfs = nfs if nfs is not None else NfsTarget()
        self.nodes = tuple(
            SimulatedNode(cpu, seed=seed + i) for i in range(n_nodes)
        )
        self.repeats = int(repeats)
        self.node_ids = tuple(f"node{i:03d}" for i in range(self.n_nodes))
        self.controller = None
        self._governors = None
        if governor is not None:
            from repro.governor import make_governor

            self._governors = tuple(
                make_governor(governor, cpu, seed=seed + i,
                              power_curve=node.power_curve)
                for i, node in enumerate(self.nodes)
            )
        if power_budget_w is not None:
            from repro.powercap import (
                DEFAULT_CAP_HYSTERESIS,
                DEFAULT_NFS_RESERVE_W,
                ClusterCapController,
            )

            weights = (
                (1.0,) * self.n_nodes
                if work_weights is None
                else tuple(float(w) for w in work_weights)
            )
            if len(weights) != self.n_nodes:
                raise ValueError(
                    f"work_weights must have one entry per node, got "
                    f"{len(weights)} for {self.n_nodes} nodes"
                )
            self.controller = ClusterCapController(
                power_budget_w,
                policy=policy,
                nfs_reserve_w=(
                    DEFAULT_NFS_RESERVE_W if nfs_reserve_w is None
                    else nfs_reserve_w
                ),
                hysteresis=(
                    DEFAULT_CAP_HYSTERESIS if hysteresis is None
                    else hysteresis
                ),
            )
            for node_id, node, work in zip(self.node_ids, self.nodes, weights):
                self.controller.join(
                    node_id, node.cpu, node.power_curve, work=work
                )

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def dump_all(
        self,
        compressor: Compressor,
        sample_field: np.ndarray,
        error_bound: float,
        bytes_per_node: int,
        compress_freq_ghz: float | None = None,
        write_freq_ghz: float | None = None,
    ) -> ClusterDumpReport:
        """Every node compresses and writes *bytes_per_node* concurrently.

        Frequencies default to the base clock; the same pinned values
        apply cluster-wide (the realistic deployment: one tuning policy
        rolled out fleet-wide). Each phase runs fleet-wide before the
        next: a capped fleet opens the phase's allocation epoch, then
        each node resolves its clock, runs its stage and feeds its
        governor and the controller. Every node of the fleet must still
        be a member of its controller.
        """
        check_positive(bytes_per_node, "bytes_per_node")
        kind = stage_kind("compress", compressor.name)
        if self._governors is not None and (
            compress_freq_ghz is not None or write_freq_ghz is not None
        ):
            raise ValueError(
                "cannot pin stage frequencies and run per-node governors "
                "at the same time"
            )
        if self.controller is not None:
            departed = sorted(
                set(self.node_ids) - set(self.controller.node_ids())
            )
            if departed:
                raise ValueError(
                    f"nodes {departed} left the power-cap controller; "
                    "re-join them before dumping"
                )

        ratio = measure_ratio(compressor, sample_field, error_bound).ratio
        compressed_bytes = max(1, int(round(bytes_per_node / ratio)))

        n = self.n_nodes
        bw = self.nfs.effective_bandwidth_bps(concurrent_clients=n)
        cpu_frac = self.nfs.cpu_bound_fraction(concurrent_clients=n)
        wl_c = compression_workload(
            kind, bytes_per_node, error_bound,
            name=f"{compressor.name}-cluster-dump",
        )
        wl_w = write_workload(compressed_bytes, bw, name=f"cluster-write/{n}")
        # Contention derates how much the client CPU matters.
        base_s = wl_w.sensitivity(self.nodes[0].cpu)
        wl_w = replace(wl_w, sensitivity_override=base_s * cpu_frac)

        stages = []
        for phase, pinned, nbytes, workload in (
            ("compress", compress_freq_ghz, bytes_per_node, wl_c),
            ("write", write_freq_ghz, compressed_bytes, wl_w),
        ):
            # The phase boundary is an allocation epoch: the controller
            # re-solves against the phase's power curve and the demand
            # telemetry streamed during the previous phase.
            caps = None
            if self.controller is not None:
                caps = self.controller.begin_phase(phase)
            reports = []
            for i, (node_id, node) in enumerate(zip(self.node_ids, self.nodes)):
                governor = None if self._governors is None else self._governors[i]
                freq = resolve_stage_frequency(
                    node.cpu, phase, pinned, governor,
                    None if caps is None else caps[node_id].governor_cap_ghz,
                )
                report = run_stage(
                    node, workload, freq, self.repeats, phase, nbytes,
                    f"cluster.{phase}", node_id=node_id,
                )
                if governor is not None:
                    governor.observe(
                        phase, report.freq_ghz, report.power_w,
                        report.runtime_s, nbytes,
                    )
                if self.controller is not None:
                    self.controller.record_demand(node_id, report.power_w)
                reports.append(report)
            stages.append(reports)

        return ClusterDumpReport(
            per_node=tuple(
                DumpReport(
                    compress=compress, write=write,
                    compression_ratio=ratio, error_bound=error_bound,
                )
                for compress, write in zip(*stages)
            ),
            nodes=n,
            cpu_bound_fraction=cpu_frac,
            powercap=(
                None if self.controller is None else self.controller.report()
            ),
        )


#: The plain fleet: a :class:`SimulatedCluster` with no budget and no
#: governors.
Cluster = SimulatedCluster
