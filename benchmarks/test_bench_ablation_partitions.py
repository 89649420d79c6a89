"""Ablation bench #3: partition granularity.

Quantifies the paper's Table IV observation — hardware choice dominates
the power model — as held-out prediction error: every partition model
predicts a fresh (differently-seeded) sweep of each architecture.
"""

from conftest import emit

from repro.core.scaling import add_scaled_columns
from repro.workflow.report import render_table
from repro.workflow.sweep import SweepConfig, compression_sweep, default_nodes


def test_bench_ablation_partitions(benchmark, ctx):
    models = ctx.outcome.compression_models

    def heldout_errors():
        heldout_cfg = SweepConfig(
            repeats=ctx.config.repeats,
            data_scale=ctx.config.data_scale,
            seed=ctx.config.seed + 99,
            frequency_stride=2,
            measure_ratios=False,
        )
        fresh = add_scaled_columns(compression_sweep(default_nodes(seed=99), heldout_cfg))
        rows = []
        for target_arch in ("broadwell", "skylake"):
            subset = fresh.filter(cpu=target_arch)
            for name, model in models.items():
                gof = model.evaluate(subset)
                rows.append(
                    {
                        "target": target_arch,
                        "model": name,
                        "heldout_rmse": gof.rmse,
                        "heldout_sse": gof.sse,
                    }
                )
        return rows

    rows = benchmark.pedantic(heldout_errors, rounds=1, iterations=1)
    emit(render_table(rows, title="ABLATION — held-out prediction error by partition"))

    by = {(r["target"], r["model"]): r["heldout_rmse"] for r in rows}
    for arch, own in (("broadwell", "Broadwell"), ("skylake", "Skylake")):
        other = "Skylake" if own == "Broadwell" else "Broadwell"
        # Matching-architecture model beats the pooled and the
        # per-compressor models on its own architecture...
        assert by[(arch, own)] < by[(arch, "Total")]
        assert by[(arch, own)] < by[(arch, "SZ")]
        assert by[(arch, own)] < by[(arch, "ZFP")]
        # ...and vastly beats the mismatched architecture's model.
        assert by[(arch, other)] > 2 * by[(arch, own)]
