"""Ablation bench #1: calibrated vs physical power ground truth.

Does the tuning methodology survive a ground-truth power curve that was
NOT calibrated from the paper's own fits? Finding: the model-driven
policy does (it re-fits whatever the hardware exposes); the fixed
Eqn. 3 rule does not always (the physical Broadwell curve is too
shallow at 0.875·f_max to beat the runtime penalty).
"""

from conftest import emit

from repro.core.pipeline import TunedIOPipeline
from repro.core.tuning import PAPER_POLICY
from repro.hardware.powercurves import CalibratedPowerCurve, PhysicalPowerCurve
from repro.workflow.report import render_table
from repro.workflow.sweep import SweepConfig, default_nodes

ABLATION_CONFIG = SweepConfig(repeats=5, frequency_stride=2)


def characterize(curve):
    pipe = TunedIOPipeline(default_nodes(power_curve=curve))
    return pipe, pipe.characterize(ABLATION_CONFIG)


def test_bench_ablation_powercurve(benchmark):
    outcomes = benchmark.pedantic(
        lambda: {name: characterize(curve()) for name, curve in
                 (("calibrated", CalibratedPowerCurve), ("physical", PhysicalPowerCurve))},
        rounds=1, iterations=1,
    )

    rows = []
    for curve_name, (pipe, outcome) in outcomes.items():
        for policy_name, policy in (("eqn3", PAPER_POLICY), ("model-optimal", None)):
            tuned = pipe.recommend(outcome, policy)
            for rec in tuned.recommendations:
                rows.append(
                    {
                        "curve": curve_name,
                        "policy": policy_name,
                        "cpu": rec.cpu,
                        "stage": rec.stage,
                        "freq_ghz": rec.freq_ghz,
                        "energy_saving_pct": rec.predicted_energy_saving * 100,
                    }
                )
    emit(render_table(rows, title="ABLATION — ground-truth power curve vs tuning policy"))

    # The model-driven policy never predicts a loss under either curve.
    for r in rows:
        if r["policy"] == "model-optimal":
            assert r["energy_saving_pct"] >= -1e-6, r
    # Under the calibrated curve, Eqn. 3 saves energy everywhere.
    for r in rows:
        if r["curve"] == "calibrated" and r["policy"] == "eqn3":
            assert r["energy_saving_pct"] > 0, r
    # Under the physical curve, Eqn. 3 fails somewhere — the finding
    # that motivates model-driven tuning.
    eqn3_physical = [r["energy_saving_pct"] for r in rows
                     if r["curve"] == "physical" and r["policy"] == "eqn3"]
    assert min(eqn3_physical) < 0
