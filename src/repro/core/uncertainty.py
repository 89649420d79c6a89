"""Bootstrap uncertainty for the fitted power models.

The paper reports point estimates for (a, b, c); with only tens of
frequency points and visible measurement scatter, the exponent in
particular is weakly identified (a grid of b values fits almost equally
well — the reason the Skylake rows vary wildly between fits). The
bootstrap quantifies that: refit on resampled records and report
percentile intervals for each parameter and a pointwise prediction
band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.regression import fit_power_law
from repro.core.samples import SampleSet

__all__ = ["ParameterInterval", "BootstrapResult", "bootstrap_power_fit"]


@dataclass(frozen=True)
class ParameterInterval:
    """Point estimate plus a percentile confidence interval."""

    estimate: float
    lower: float
    upper: float

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class BootstrapResult:
    """Bootstrap distribution summary of an ``a·f^b + c`` fit."""

    a: ParameterInterval
    b: ParameterInterval
    c: ParameterInterval
    #: Frequencies of the prediction band.
    band_freqs: np.ndarray
    #: Pointwise lower/upper prediction band (same percentiles).
    band_lower: np.ndarray
    band_upper: np.ndarray
    n_boot: int
    confidence: float


def bootstrap_power_fit(
    samples: SampleSet,
    value_key: str = "scaled_power_w",
    n_boot: int = 200,
    confidence: float = 0.95,
    seed: int = 0,
) -> BootstrapResult:
    """Nonparametric bootstrap over sample records.

    Records are resampled with replacement; each replicate is refit
    with the same estimator as the headline models. Intervals are
    percentile-based.
    """
    if n_boot < 10:
        raise ValueError(f"n_boot must be >= 10, got {n_boot}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    f = samples.column("freq_ghz").astype(np.float64)
    y = samples.column(value_key).astype(np.float64)
    if f.size < 8:
        raise ValueError(f"need at least 8 samples to bootstrap, got {f.size}")

    point = fit_power_law(f, y)
    rng = np.random.default_rng(seed)
    band_freqs = np.linspace(f.min(), f.max(), 25)

    params = np.empty((n_boot, 3))
    bands = np.empty((n_boot, band_freqs.size))
    for i in range(n_boot):
        idx = rng.integers(0, f.size, size=f.size)
        # Degenerate resamples (too few distinct frequencies) are
        # re-drawn; the fit needs leverage across the curve.
        while np.unique(f[idx]).size < 4:
            idx = rng.integers(0, f.size, size=f.size)
        fit = fit_power_law(f[idx], y[idx])
        params[i] = (fit.a, fit.b, fit.c)
        bands[i] = fit.predict(band_freqs)

    lo_q = 100 * (1 - confidence) / 2
    hi_q = 100 - lo_q

    def interval(estimate: float, column: np.ndarray) -> ParameterInterval:
        lo, hi = np.percentile(column, [lo_q, hi_q])
        return ParameterInterval(estimate=estimate, lower=float(lo), upper=float(hi))

    return BootstrapResult(
        a=interval(point.a, params[:, 0]),
        b=interval(point.b, params[:, 1]),
        c=interval(point.c, params[:, 2]),
        band_freqs=band_freqs,
        band_lower=np.percentile(bands, lo_q, axis=0),
        band_upper=np.percentile(bands, hi_q, axis=0),
        n_boot=n_boot,
        confidence=confidence,
    )
