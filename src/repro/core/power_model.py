"""The fitted power-consumption model ``P(f) = a·f^b + c`` (Eqn. 2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.regression import fit_power_law
from repro.core.samples import SampleSet
from repro.utils.stats import GoodnessOfFit, goodness_of_fit

__all__ = ["PowerModel"]


@dataclass(frozen=True)
class PowerModel:
    """A scaled-power model over a frequency domain.

    Predictions are in scaled-power units (fraction of the max-clock
    power); multiply by a reference wattage to obtain absolute power.
    """

    name: str
    a: float
    b: float
    c: float
    fmin_ghz: float
    fmax_ghz: float
    gof: GoodnessOfFit

    def __post_init__(self):
        if not 0 < self.fmin_ghz < self.fmax_ghz:
            raise ValueError(
                f"invalid model domain [{self.fmin_ghz}, {self.fmax_ghz}] GHz"
            )

    @classmethod
    def fit(cls, name: str, samples: SampleSet, value_key: str = "scaled_power_w") -> "PowerModel":
        """Fit from a sample set carrying scaled power values."""
        f = samples.column("freq_ghz").astype(np.float64)
        p = samples.column(value_key).astype(np.float64)
        fit = fit_power_law(f, p)
        return cls(
            name=name,
            a=fit.a,
            b=fit.b,
            c=fit.c,
            fmin_ghz=float(f.min()),
            fmax_ghz=float(f.max()),
            gof=fit.gof,
        )

    def predict(self, freq_ghz) -> np.ndarray:
        """Scaled power at *freq_ghz* (scalar or array)."""
        f = np.asarray(freq_ghz, dtype=np.float64)
        return self.a * f**self.b + self.c

    def evaluate(self, samples: SampleSet, value_key: str = "scaled_power_w") -> GoodnessOfFit:
        """GF statistics of this model against an independent sample set.

        Used for the Fig. 5 Hurricane-ISABEL validation.
        """
        f = samples.column("freq_ghz").astype(np.float64)
        observed = samples.column(value_key).astype(np.float64)
        return goodness_of_fit(observed, self.predict(f))

    def savings_at(self, freq_ghz: float) -> float:
        """Predicted fractional power saving vs. the max clock."""
        ref = float(self.predict(self.fmax_ghz))
        return 1.0 - float(self.predict(freq_ghz)) / ref

    def equation(self) -> str:
        """Table IV/V style equation string."""
        return f"{self.a:.4g}*f^{self.b:.4g} + {self.c:.4g}"

    def as_table_row(self) -> Dict[str, object]:
        """One row of Table IV/V."""
        return {
            "model": self.name,
            "equation": self.equation(),
            "sse": self.gof.sse,
            "rmse": self.gof.rmse,
            "r2": self.gof.r2,
        }

    @property
    def params(self) -> Tuple[float, float, float]:
        return (self.a, self.b, self.c)
