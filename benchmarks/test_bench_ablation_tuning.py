"""Ablation bench #2: Eqn. 3 static rule vs model-driven optimum.

Compares applied (not just predicted) 512 GB dump savings under the
paper's fixed factors and under per-architecture energy-optimal
frequencies, including a slowdown-capped variant.
"""

from conftest import emit

from repro.core.tuning import recommend
from repro.workflow.report import render_table


def test_bench_ablation_tuning(benchmark, ctx):
    pipe = ctx.pipeline
    outcome = ctx.outcome  # recommended with PAPER_POLICY

    def applied_savings():
        rows = []
        for arch in ("broadwell", "skylake"):
            node = ctx.node(arch)
            comp_model = outcome.compression_models[arch.capitalize()]
            tran_model = outcome.transit_models[arch.capitalize()]
            comp_rt = outcome.compression_runtime[arch]
            tran_rt = outcome.transit_runtime[arch]

            f_opt_c = recommend(node.cpu, "compress", comp_model, comp_rt).freq_ghz
            f_opt_w = recommend(node.cpu, "write", tran_model, tran_rt).freq_ghz
            f_cap_c = recommend(node.cpu, "compress", comp_model, comp_rt,
                                max_slowdown=0.10).freq_ghz

            from repro.iosim.dumper import DataDumper, RunConfig
            from repro.compressors import SZCompressor
            from repro.data import load_field

            dumper = DataDumper(node, ctx.pipeline.nfs)
            arr = load_field("nyx", "velocity_x", scale=ctx.config.data_scale)
            base = dumper.dump(SZCompressor(), arr, 1e-2, int(512e9))
            for name, fc, fw in (
                ("eqn3", 0.875 * node.cpu.fmax_ghz, 0.85 * node.cpu.fmax_ghz),
                ("model-optimal", f_opt_c, f_opt_w),
                ("optimal<=10%slow", f_cap_c, f_opt_w),
            ):
                run = RunConfig(1e-2, compress_freq_ghz=fc, write_freq_ghz=fw)
                tuned = dumper.dump(SZCompressor(), arr, run, int(512e9))
                rows.append(
                    {
                        "arch": arch,
                        "policy": name,
                        "f_compress": tuned.compress.freq_ghz,
                        "f_write": tuned.write.freq_ghz,
                        "saved_kj": (base.total_energy_j - tuned.total_energy_j) / 1e3,
                        "saving_pct": (1 - tuned.total_energy_j / base.total_energy_j) * 100,
                        "slowdown_pct": (tuned.total_runtime_s / base.total_runtime_s - 1) * 100,
                    }
                )
        return rows

    rows = benchmark.pedantic(applied_savings, rounds=1, iterations=1)
    emit(render_table(rows, title="ABLATION — Eqn. 3 vs model-driven frequency selection"))

    by = {(r["arch"], r["policy"]): r for r in rows}
    for arch in ("broadwell", "skylake"):
        # Every policy saves energy under the calibrated ground truth.
        for policy in ("eqn3", "model-optimal", "optimal<=10%slow"):
            assert by[(arch, policy)]["saved_kj"] > 0
        # Model-optimal matches or beats the static rule (within the
        # couple-of-percent measurement noise of a single application).
        assert (by[(arch, "model-optimal")]["saving_pct"]
                >= by[(arch, "eqn3")]["saving_pct"] - 2.0)
