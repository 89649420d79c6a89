"""Unit tests for the tuning objective family."""

import numpy as np
import pytest

from repro.core.objectives import Objective, objective_curve, solve_frequency
from repro.core.power_model import PowerModel
from repro.core.runtime_model import RuntimeModel
from repro.hardware.cpu import BROADWELL_D1548
from repro.utils.stats import GoodnessOfFit

GOF = GoodnessOfFit(0.0, 0.0, 1.0)
POWER = PowerModel("Broadwell", 0.0064, 5.315, 0.7429, 0.8, 2.0, GOF)
RUNTIME = RuntimeModel("compress", 0.55, 2.0, GOF)


def optimum(*objective):
    """The solver on POWER/RUNTIME over the Broadwell grid."""
    grid = BROADWELL_D1548.available_frequencies()
    return solve_frequency(grid, POWER.predict(grid), RUNTIME.predict(grid), *objective)


class TestObjective:
    def test_delay_exponents(self):
        assert Objective.POWER.delay_exponent == 0
        assert Objective.ENERGY.delay_exponent == 1
        assert Objective.EDP.delay_exponent == 2
        assert Objective.ED2P.delay_exponent == 3

    def test_parse_by_value(self):
        assert Objective("edp") is Objective.EDP


class TestObjectiveCurve:
    def test_energy_matches_product(self):
        f = np.array([1.0, 1.5, 2.0])
        e = objective_curve(POWER, RUNTIME, f, Objective.ENERGY)
        assert np.allclose(e, POWER.predict(f) * RUNTIME.predict(f))

    def test_power_objective_ignores_runtime(self):
        f = np.array([1.0, 1.5, 2.0])
        p = objective_curve(POWER, RUNTIME, f, Objective.POWER)
        assert np.allclose(p, POWER.predict(f))

    def test_invalid_objective_type(self):
        with pytest.raises(TypeError):
            objective_curve(POWER, RUNTIME, [1.0], "energy")


class TestOptimalFrequency:
    def test_power_objective_picks_fmin(self):
        f = optimum(Objective.POWER)
        assert f == pytest.approx(0.8)

    def test_delay_aversion_monotone_in_frequency(self):
        # More delay-averse objectives never pick lower frequencies.
        freqs = [
            optimum(obj)
            for obj in (Objective.POWER, Objective.ENERGY, Objective.EDP,
                        Objective.ED2P)
        ]
        assert freqs == sorted(freqs)

    def test_ed2p_near_base_clock(self):
        f = optimum(Objective.ED2P)
        assert f >= 0.9 * 2.0

    def test_default_is_energy(self):
        assert optimum() == pytest.approx(optimum(Objective.ENERGY))
