"""Bench: leave-one-dataset-out cross-validation of the power models.

Fig. 5 generalized: every partition model scored on every held-out
dataset. The per-architecture models must keep beating the pooled model
out of sample — otherwise Table IV's conclusion would be an artifact of
in-sample fitting.
"""

from conftest import emit

from repro.workflow.report import render_table
from repro.workflow.validation import leave_one_dataset_out, loocv_rows


def test_bench_crossvalidation(benchmark, ctx):
    samples = ctx.outcome.compression_samples

    results = benchmark.pedantic(
        leave_one_dataset_out, args=(samples,), rounds=1, iterations=1
    )
    rows = loocv_rows(results)
    emit(render_table(rows, title="CROSS-VALIDATION — held-out-dataset RMSE per model"))

    datasets = sorted({k[1] for k in results})
    for ds in datasets:
        arch_best = min(results[("Broadwell", ds)], results[("Skylake", ds)])
        assert arch_best < results[("Total", ds)], ds
        # Out-of-sample error of the architecture models stays small.
        assert arch_best < 0.05

    pooled_worst = max(results[("Total", ds)] for ds in datasets)
    benchmark.extra_info["pooled_worst_rmse"] = pooled_worst
