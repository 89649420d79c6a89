"""``fleet_dump``: a capped 96-node cluster dump with node churn.

One operation builds
``SimulatedCluster(BROADWELL_D1548, 96 nodes, power_budget_w=1536,
policy="waterfill", governor="adaptive")`` from scratch, runs
``dump_all`` (zfp, 64 GB per node), lets every 12th node leave and
rejoin through ``cluster.controller`` and runs ``dump_all`` again.
Every join re-solves water-filling over all nodes, so the power-cap
allocator dominates; the codec runs once per dump, on a 1 MB sample,
and nothing touches the cache, an executor or the service.
"""

from __future__ import annotations

import time
from statistics import median

from common import Workload, pinned
from repro.compressors import ZFPCompressor
from repro.data import load_field
from repro.hardware.cpu import BROADWELL_D1548
from repro.iosim.cluster import SimulatedCluster

NODES = 96
BUDGET_W = 1536.0
CHURN_EVERY = 12
BYTES_PER_NODE = int(64e9)
ERROR_BOUND = 1e-2


class FleetDump(Workload):
    name = "fleet_dump"

    def setup(self) -> None:
        self.sample = load_field("nyx", "velocity_x", scale=8, seed=self.seed)
        self.pins = pinned(self.name, self.seed)
        self.digests = None
        # Warm-up: the same flow on an 8-node fleet with the same watts
        # per node.
        self._flow(8)

    def _flow(self, nodes: int):
        cluster = SimulatedCluster(
            BROADWELL_D1548, nodes, seed=self.seed,
            power_budget_w=BUDGET_W * nodes / NODES,
            policy="waterfill", governor="adaptive",
        )
        codec = ZFPCompressor()
        first = cluster.dump_all(codec, self.sample, ERROR_BOUND, BYTES_PER_NODE)
        controller = cluster.controller
        for i in range(0, nodes, CHURN_EVERY):
            node = cluster.nodes[i]
            controller.leave(cluster.node_ids[i])
            controller.join(cluster.node_ids[i], node.cpu, node.power_curve)
        second = cluster.dump_all(codec, self.sample, ERROR_BOUND, BYTES_PER_NODE)
        return controller, first, second

    def cycle(self) -> None:
        self.attempted += 1
        try:
            with self.rec.op(f"{len(self.latencies)}", "op.fleet_dump"):
                cpu = self.cpu_seconds()
                t0 = time.perf_counter()
                controller, first, second = self._flow(NODES)
                elapsed = time.perf_counter() - t0
                cpu = self.cpu_seconds() - cpu
        except Exception as exc:  # one failed operation, not the run
            self.fail(f"{type(exc).__name__}: {exc}")
            return
        self.latencies.append(elapsed)
        self.op_cpu.append(cpu)
        self._check(controller, first, second)

    def _check(self, controller, first, second) -> None:
        limit = controller.budget_w - controller.nfs_reserve_w
        # Trace watts are rounded to 1e-6 W per node.
        over = [
            entry["epoch"] for entry in controller.trace
            if sum(c["watts"] for c in entry["caps"].values())
            > limit + 1e-6 * len(entry["caps"])
        ]
        if over:
            self.fail(f"caps exceed budget minus NFS reserve at epochs {over}")
            return
        receipts = {
            "first_trace_sha256": first.powercap.trace_sha256,
            "second_trace_sha256": second.powercap.trace_sha256,
        }
        if self.digests is None:
            self.digests = receipts
        expected = self.digests if self.pins is None else self.pins
        if receipts != expected:
            self.fail(f"power-cap receipts {receipts} != {expected}")

    def named_metrics(self, elapsed_s):
        return {"fleet_dump_s": (median(self.latencies), "s")}
