"""Fig. 5 — Broadwell power model validated on Hurricane-ISABEL.

The paper holds out the Hurricane-ISABEL dataset (six 100×500×500
fields: PRECIP, P, TC, U, V, W), compresses it with SZ and ZFP at a
1e-4 bound across the Broadwell frequency range, and evaluates how well
the *previously fitted* Broadwell model predicts the new scaled-power
measurements. Paper result: SSE = 0.1463, RMSE = 0.0256 — the model
generalizes to unseen data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.power_model import PowerModel
from repro.core.samples import SampleSet
from repro.core.scaling import add_scaled_columns
from repro.experiments.context import ExperimentContext
from repro.utils.stats import GoodnessOfFit
from repro.workflow.report import render_series
from repro.workflow.sweep import SweepConfig, compression_sweep

__all__ = ["run", "main", "ValidationResult", "PAPER_SSE", "PAPER_RMSE"]

PAPER_SSE = 0.1463
PAPER_RMSE = 0.0256

_ISABEL_FIELDS: Tuple[Tuple[str, str], ...] = tuple(
    ("hurricane-isabel", f) for f in ("PRECIP", "P", "TC", "U", "V", "W")
)


@dataclass(frozen=True)
class ValidationResult:
    """Held-out validation outcome."""

    model: PowerModel
    gof: GoodnessOfFit
    samples: SampleSet

    def curve(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(frequencies, observed scaled power, model prediction)."""
        ordered = self.samples.sort_by("freq_ghz")
        f = ordered.column("freq_ghz").astype(np.float64)
        obs = ordered.column("scaled_power_w").astype(np.float64)
        return f, obs, self.model.predict(f)


def run(ctx: Optional[ExperimentContext] = None) -> ValidationResult:
    """Sweep ISABEL on Broadwell and score the fitted Broadwell model."""
    ctx = ctx if ctx is not None else ExperimentContext()
    model = ctx.outcome.compression_models["Broadwell"]

    base = ctx.config
    isabel_cfg = SweepConfig(
        compressors=base.compressors,
        datasets=_ISABEL_FIELDS,
        error_bounds=(1e-4,),
        repeats=base.repeats,
        data_scale=base.data_scale,
        seed=base.seed + 1,  # held-out data: decorrelate from training
        frequency_stride=base.frequency_stride,
        measure_ratios=False,
    )
    node = ctx.node("broadwell")
    samples = add_scaled_columns(compression_sweep([node], isabel_cfg))
    gof = model.evaluate(samples)
    return ValidationResult(model=model, gof=gof, samples=samples)


def main(ctx: Optional[ExperimentContext] = None) -> str:
    """Render the validation curve and its GF statistics."""
    result = run(ctx)
    f, obs, pred = result.curve()
    # Average observations per frequency for a readable series.
    uniq = np.unique(f)
    obs_mean = np.array([obs[f == u].mean() for u in uniq])
    pred_mean = np.array([pred[f == u].mean() for u in uniq])
    text = render_series(
        uniq,
        {"observed": obs_mean, "model": pred_mean},
        title="FIG. 5 — Broadwell model on held-out Hurricane-ISABEL",
    )
    text += (
        f"\n\nGF: SSE={result.gof.sse:.4f} RMSE={result.gof.rmse:.4f} "
        f"(paper: SSE={PAPER_SSE}, RMSE={PAPER_RMSE})"
    )
    print(text)
    return text


if __name__ == "__main__":
    main()
