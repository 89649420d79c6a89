"""Extension bench: cluster-scale dumping through a shared NFS.

Exascale framing of the paper's single-node result: N clients dump
concurrently. Asserts the emergent contention behaviour and that the
tuning rule keeps saving energy fleet-wide.
"""

from conftest import emit

from repro.compressors import SZCompressor
from repro.data import load_field
from repro.hardware.cpu import SKYLAKE_4114
from repro.iosim.cluster import Cluster
from repro.iosim.nfs import NfsTarget
from repro.workflow.report import render_table


def test_bench_extension_cluster(benchmark, ctx):
    arr = load_field("nyx", "velocity_x", scale=ctx.config.data_scale)
    nfs = NfsTarget()
    cpu = SKYLAKE_4114
    f_c = cpu.snap_frequency(0.875 * cpu.fmax_ghz)
    f_w = cpu.snap_frequency(0.85 * cpu.fmax_ghz)

    def run():
        rows = []
        for n in (1, 4, 16):
            cluster = Cluster(cpu, n_nodes=n, nfs=nfs, seed=7, repeats=3)
            base = cluster.dump_all(SZCompressor(), arr, 1e-2, int(64e9))
            tuned = cluster.dump_all(SZCompressor(), arr, 1e-2, int(64e9),
                                     compress_freq_ghz=f_c, write_freq_ghz=f_w)
            w_base = max(r.write.runtime_s for r in base.per_node)
            w_tuned = max(r.write.runtime_s for r in tuned.per_node)
            rows.append(
                {
                    "nodes": n,
                    "cpu_bound_frac": base.cpu_bound_fraction,
                    "agg_mb_s": base.aggregate_write_bandwidth_bps / 1e6,
                    "saved_pct": (1 - tuned.total_energy_j
                                  / base.total_energy_j) * 100,
                    "write_slowdown_pct": (w_tuned / w_base - 1) * 100,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(render_table(rows, title="EXTENSION — cluster dump scaling (Skylake, 64 GB/node)"))

    by_n = {r["nodes"]: r for r in rows}
    # Contention grows; aggregate bandwidth respects the server cap.
    assert by_n[16]["cpu_bound_frac"] < by_n[4]["cpu_bound_frac"] < 1.0 + 1e-9
    assert all(r["agg_mb_s"] <= nfs.shared_capacity_mbps * 1.05 for r in rows)
    # Tuning saves at every scale, and the write-stage slowdown
    # collapses once the network is the bottleneck.
    assert all(r["saved_pct"] > 0 for r in rows)
    assert by_n[16]["write_slowdown_pct"] < by_n[1]["write_slowdown_pct"]
    assert by_n[16]["write_slowdown_pct"] < 2.0
