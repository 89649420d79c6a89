"""Extension bench: multi-core frequency/width co-tuning.

The paper's single-core framing leaves the second knob — core count —
on the table. This bench quantifies how much: the (cores × frequency)
energy optimum vs the paper's Eqn. 3 single-core rule, per chip.
"""

from conftest import emit

from repro.core.multicore import optimal_configuration, pareto_front, sweep_configurations
from repro.hardware.node import SimulatedNode
from repro.hardware.cpu import BROADWELL_D1548, SKYLAKE_4114
from repro.hardware.workload import WorkloadKind, compression_workload
from repro.workflow.report import render_table


def test_bench_extension_multicore(benchmark):
    wl = compression_workload(WorkloadKind.COMPRESS_SZ, int(64e9), 1e-2)

    def run():
        rows = []
        for cpu in (BROADWELL_D1548, SKYLAKE_4114):
            node = SimulatedNode(cpu, power_noise=0.0, runtime_noise=0.0)
            f_eqn3 = cpu.snap_frequency(0.875 * cpu.fmax_ghz)
            t_e3 = node.true_runtime_s(wl, f_eqn3, cores=1)
            e_e3 = t_e3 * node.true_power_w(wl, f_eqn3, cores=1)
            best = optimal_configuration(node, wl)
            front = pareto_front(sweep_configurations(node, wl))
            rows.append(
                {
                    "arch": cpu.arch,
                    "eqn3_energy_kj": e_e3 / 1e3,
                    "eqn3_runtime_s": t_e3,
                    "opt_cores": best.cores,
                    "opt_freq_ghz": best.freq_ghz,
                    "opt_energy_kj": best.energy_j / 1e3,
                    "opt_runtime_s": best.runtime_s,
                    "pareto_points": len(front),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(render_table(rows, title="EXTENSION — (cores x frequency) co-tuning, 64 GB SZ stage"))

    for r in rows:
        # The wide-and-slow optimum dominates single-core Eqn. 3 on
        # both axes, by a large energy factor.
        assert r["opt_cores"] > 1
        assert r["opt_energy_kj"] < 0.4 * r["eqn3_energy_kj"], r
        assert r["opt_runtime_s"] < r["eqn3_runtime_s"], r
        # The optimum does not run flat-out: frequency still matters.
        cpu = BROADWELL_D1548 if r["arch"] == "broadwell" else SKYLAKE_4114
        assert r["opt_freq_ghz"] < cpu.fmax_ghz

    benchmark.extra_info["broadwell_opt"] = (
        f"{rows[0]['opt_cores']}c @ {rows[0]['opt_freq_ghz']} GHz"
    )
