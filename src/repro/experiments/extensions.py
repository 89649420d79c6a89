"""Extension experiments, packaged like the paper's tables/figures.

Each ``run_*`` returns structured rows; :func:`main` renders the chosen
study. Wired into ``repro-tool experiment ext-*`` so the extension
results regenerate the same way the paper's do.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.compressors import SZCompressor
from repro.core.breakeven import breakeven_clients
from repro.core.multicore import optimal_configuration
from repro.core.tuning import PAPER_POLICY
from repro.data.registry import load_field
from repro.experiments.context import ExperimentContext
from repro.hardware.cpu import BROADWELL_D1548, SKYLAKE_4114
from repro.hardware.node import SimulatedNode
from repro.hardware.workload import WorkloadKind, compression_workload
from repro.iosim.cluster import Cluster
from repro.iosim.dumper import DataDumper, RunConfig, measure_ratio
from repro.iosim.loader import DataLoader
from repro.iosim.nfs import NfsTarget
from repro.workflow.report import render_table

__all__ = [
    "run_restore",
    "run_cluster",
    "run_breakeven",
    "run_multicore",
    "main",
    "EXTENSION_STUDIES",
]


def run_restore(ctx: Optional[ExperimentContext] = None) -> List[Dict[str, object]]:
    """Dump-vs-restore tuning comparison (both archs, two bounds)."""
    ctx = ctx if ctx is not None else ExperimentContext()
    arr = load_field("nyx", "velocity_x", scale=ctx.config.data_scale)
    rows = []
    for arch in ("broadwell", "skylake"):
        node = ctx.node(arch)
        cpu = node.cpu
        f_codec = PAPER_POLICY.frequency_for(cpu, WorkloadKind.COMPRESS_SZ)
        f_io = PAPER_POLICY.frequency_for(cpu, WorkloadKind.WRITE)
        dumper, loader = DataDumper(node), DataLoader(node)
        for eb in (1e-1, 1e-3):
            measurement = measure_ratio(SZCompressor(), arr, eb)
            dump_base = dumper.dump(SZCompressor(), arr, eb, int(512e9),
                                    measurement=measurement)
            tuned_run = RunConfig(eb, compress_freq_ghz=f_codec,
                                  write_freq_ghz=f_io)
            dump_tuned = dumper.dump(SZCompressor(), arr, tuned_run, int(512e9),
                                     measurement=measurement)
            rest_base = loader.restore(SZCompressor(), arr, eb, int(512e9))
            rest_tuned = loader.restore(SZCompressor(), arr, eb, int(512e9),
                                        read_freq_ghz=f_io,
                                        decompress_freq_ghz=f_codec)
            rows.append(
                {
                    "arch": arch,
                    "eb": eb,
                    "dump_saved_pct": (1 - dump_tuned.total_energy_j
                                       / dump_base.total_energy_j) * 100,
                    "restore_saved_pct": (1 - rest_tuned.total_energy_j
                                          / rest_base.total_energy_j) * 100,
                    "restore_vs_dump_energy": rest_base.total_energy_j
                    / dump_base.total_energy_j,
                }
            )
    return rows


def run_cluster(ctx: Optional[ExperimentContext] = None) -> List[Dict[str, object]]:
    """Shared-NFS contention scaling (Skylake, Eqn. 3)."""
    ctx = ctx if ctx is not None else ExperimentContext()
    arr = load_field("nyx", "velocity_x", scale=ctx.config.data_scale)
    nfs = NfsTarget()
    cpu = SKYLAKE_4114
    rows = []
    for n in (1, 4, 16):
        cluster = Cluster(cpu, n_nodes=n, nfs=nfs, seed=7, repeats=3)
        base = cluster.dump_all(SZCompressor(), arr, 1e-2, int(64e9))
        tuned = cluster.dump_all(
            SZCompressor(), arr, 1e-2, int(64e9),
            compress_freq_ghz=PAPER_POLICY.frequency_for(cpu, WorkloadKind.COMPRESS_SZ),
            write_freq_ghz=PAPER_POLICY.frequency_for(cpu, WorkloadKind.WRITE),
        )
        rows.append(
            {
                "nodes": n,
                "cpu_bound_frac": base.cpu_bound_fraction,
                "agg_write_mb_s": base.aggregate_write_bandwidth_bps / 1e6,
                "saved_pct": (1 - tuned.total_energy_j / base.total_energy_j) * 100,
            }
        )
    return rows


def run_breakeven(ctx: Optional[ExperimentContext] = None) -> List[Dict[str, object]]:
    """Compress-or-not crossover client counts per (codec, bound)."""
    ctx = ctx if ctx is not None else ExperimentContext()
    arr = load_field("nyx", "velocity_x", scale=ctx.config.data_scale)
    rows = []
    for eb in (1e-1, 1e-2, 1e-3):
        ratio = SZCompressor().compress(arr, eb).ratio
        n = breakeven_clients(BROADWELL_D1548, WorkloadKind.COMPRESS_SZ, ratio, eb)
        rows.append(
            {
                "eb": eb,
                "ratio": ratio,
                "clients_for_compress_win": n if n is not None else ">4096",
            }
        )
    return rows


def run_multicore(ctx: Optional[ExperimentContext] = None) -> List[Dict[str, object]]:
    """(cores × frequency) co-tuning optimum vs Eqn. 3 single core."""
    wl = compression_workload(WorkloadKind.COMPRESS_SZ, int(64e9), 1e-2)
    rows = []
    for cpu in (BROADWELL_D1548, SKYLAKE_4114):
        node = SimulatedNode(cpu, power_noise=0.0, runtime_noise=0.0)
        f_eqn3 = PAPER_POLICY.frequency_for(cpu, WorkloadKind.COMPRESS_SZ)
        e_eqn3 = node.true_runtime_s(wl, f_eqn3) * node.true_power_w(wl, f_eqn3)
        best = optimal_configuration(node, wl)
        rows.append(
            {
                "arch": cpu.arch,
                "eqn3_energy_kj": e_eqn3 / 1e3,
                "opt_cores": best.cores,
                "opt_freq_ghz": best.freq_ghz,
                "opt_energy_kj": best.energy_j / 1e3,
                "energy_factor": e_eqn3 / best.energy_j,
            }
        )
    return rows


EXTENSION_STUDIES = {
    "ext-restore": (run_restore, "EXT — restore-path tuning"),
    "ext-cluster": (run_cluster, "EXT — shared-NFS cluster scaling"),
    "ext-breakeven": (run_breakeven, "EXT — compress-or-not crossover"),
    "ext-multicore": (run_multicore, "EXT — (cores x frequency) co-tuning"),
}


def main(name: str, ctx: Optional[ExperimentContext] = None) -> str:
    """Run one named extension study and print its rows."""
    if name not in EXTENSION_STUDIES:
        raise KeyError(
            f"unknown extension study {name!r}; available: {sorted(EXTENSION_STUDIES)}"
        )
    fn, title = EXTENSION_STUDIES[name]
    text = render_table(fn(ctx), title=title)
    print(text)
    return text
