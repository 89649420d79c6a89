"""Ablation bench #4: SZ predictor choice (Lorenzo vs regression vs auto).

SZ2's design carries two predictors; this quantifies why on the Table I
fields: Lorenzo dominates rough data, the regression hyperplanes win on
piecewise-smooth data, and exact auto-selection never loses to either.
"""

from conftest import emit

from repro.compressors import SZCompressor
from repro.data import load_field
from repro.workflow.report import render_table

FIELDS = (
    ("cesm-atm", "T"),
    ("cesm-atm", "CLDHGH"),
    ("nyx", "velocity_x"),
    ("hurricane-isabel", "P"),
)


def test_bench_ablation_predictor(benchmark):
    def run():
        rows = []
        for ds, fl in FIELDS:
            arr = load_field(ds, fl, scale=16)
            sizes = {}
            for predictor in ("lorenzo", "regression", "auto"):
                buf = SZCompressor(predictor=predictor).compress(arr, 1e-3)
                sizes[predictor] = buf.nbytes
            rows.append(
                {
                    "field": f"{ds}/{fl}",
                    "lorenzo_ratio": arr.nbytes / sizes["lorenzo"],
                    "regression_ratio": arr.nbytes / sizes["regression"],
                    "auto_ratio": arr.nbytes / sizes["auto"],
                    "auto_pick": "regression"
                    if sizes["auto"] == sizes["regression"] != sizes["lorenzo"]
                    else "lorenzo",
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(render_table(rows, title="ABLATION — SZ predictor choice (eb=1e-3)"))

    for r in rows:
        best = max(r["lorenzo_ratio"], r["regression_ratio"])
        # Exact selection: auto matches the better single predictor.
        assert r["auto_ratio"] >= best * (1 - 1e-9), r
    # Both predictors must win somewhere, otherwise the second one is
    # dead weight — this guards the synthetic fields' diversity too.
    lorenzo_wins = sum(r["lorenzo_ratio"] > r["regression_ratio"] for r in rows)
    assert 0 < lorenzo_wins < len(rows)
