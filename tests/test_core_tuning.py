"""Unit tests for the tuning policies and optimizers."""

import numpy as np
import pytest

from repro.core.objectives import objective_curve
from repro.core.power_model import PowerModel
from repro.core.runtime_model import RuntimeModel
from repro.core.tuning import (
    PAPER_POLICY,
    TuningPolicy,
    recommend,
    recommend_from_models,
)
from repro.hardware.cpu import BROADWELL_D1548, SKYLAKE_4114
from repro.hardware.workload import WorkloadKind
from repro.utils.stats import GoodnessOfFit

GOF = GoodnessOfFit(0.0, 0.0, 1.0)
BW_POWER = PowerModel("Broadwell", 0.0064, 5.315, 0.7429, 0.8, 2.0, GOF)
BW_RUNTIME = RuntimeModel("compress-broadwell", 0.55, 2.0, GOF)


def optimal_energy(power_model, runtime_model, cpu, max_slowdown=None):
    """The model-optimal energy frequency for a compress stage."""
    return recommend(
        cpu, "compress", power_model, runtime_model, max_slowdown=max_slowdown
    ).freq_ghz


class TestPaperPolicy:
    def test_eqn3_factors(self):
        assert PAPER_POLICY.compress_factor == 0.875
        assert PAPER_POLICY.write_factor == 0.85

    def test_factor_for_kind(self):
        assert PAPER_POLICY.factor_for(WorkloadKind.COMPRESS_SZ) == 0.875
        assert PAPER_POLICY.factor_for(WorkloadKind.COMPRESS_ZFP) == 0.875
        assert PAPER_POLICY.factor_for(WorkloadKind.WRITE) == 0.85

    def test_frequency_snapped_to_grid(self):
        f = PAPER_POLICY.frequency_for(BROADWELL_D1548, WorkloadKind.COMPRESS_SZ)
        assert f == pytest.approx(1.75)  # 0.875 * 2.0
        f = PAPER_POLICY.frequency_for(SKYLAKE_4114, WorkloadKind.WRITE)
        assert f == pytest.approx(1.85)  # 0.85 * 2.2 = 1.87 → snap 1.85

    @pytest.mark.parametrize("factor", [0.0, 1.0, -0.5, 1.5])
    def test_invalid_factors(self, factor):
        with pytest.raises(ValueError):
            TuningPolicy(compress_factor=factor, write_factor=0.85)


class TestEnergyCurve:
    def test_product_of_models(self):
        f = np.array([1.0, 1.5, 2.0])
        e = objective_curve(BW_POWER, BW_RUNTIME, f)
        assert np.allclose(e, BW_POWER.predict(f) * BW_RUNTIME.predict(f))

    def test_energy_below_one_in_sweet_spot(self):
        # Somewhere below fmax, scaled energy dips under 1.
        grid = BROADWELL_D1548.available_frequencies()
        e = objective_curve(BW_POWER, BW_RUNTIME, grid)
        ref = objective_curve(BW_POWER, BW_RUNTIME, np.array([2.0]))[0]
        assert e.min() < ref


class TestOptimalEnergyFrequency:
    def test_interior_optimum(self):
        f = optimal_energy(BW_POWER, BW_RUNTIME, BROADWELL_D1548)
        assert 0.8 < f < 2.0  # neither endpoint

    def test_memory_bound_workload_prefers_lower_frequency(self):
        # With near-flat runtime the optimum sits well below the base
        # clock (though not necessarily at fmin: the power plateau makes
        # mid-range frequencies equally cheap while still finishing
        # slightly sooner).
        flat_runtime = RuntimeModel("w", 0.05, 2.0, GOF)
        f_flat = optimal_energy(BW_POWER, flat_runtime, BROADWELL_D1548)
        f_steep = optimal_energy(
            BW_POWER, RuntimeModel("w", 0.9, 2.0, GOF), BROADWELL_D1548
        )
        assert f_flat < 0.75 * 2.0
        assert f_flat <= f_steep

    def test_fully_io_bound_zero_sensitivity_prefers_fmin(self):
        frozen_runtime = RuntimeModel("w", 0.0, 2.0, GOF)
        f = optimal_energy(BW_POWER, frozen_runtime, BROADWELL_D1548)
        assert f == pytest.approx(0.8)

    def test_compute_bound_workload_prefers_higher_frequency(self):
        steep_runtime = RuntimeModel("w", 1.0, 2.0, GOF)
        f_steep = optimal_energy(BW_POWER, steep_runtime, BROADWELL_D1548)
        f_mild = optimal_energy(BW_POWER, BW_RUNTIME, BROADWELL_D1548)
        assert f_steep >= f_mild

    def test_slowdown_cap_respected(self):
        f = optimal_energy(
            BW_POWER, BW_RUNTIME, BROADWELL_D1548, max_slowdown=0.05
        )
        assert BW_RUNTIME.predict(f) <= 1.05 + 1e-9

    def test_impossible_cap_raises(self):
        steep = RuntimeModel("w", 1.0, 2.0, GOF)
        with pytest.raises(ValueError, match="no frequency satisfies"):
            optimal_energy(
                BW_POWER, steep, BROADWELL_D1548, max_slowdown=-0.5
            )


class TestRecommendFromModels:
    def test_policy_recommendation(self):
        rec = recommend_from_models(
            BROADWELL_D1548, "compress", BW_POWER, BW_RUNTIME, PAPER_POLICY
        )
        assert rec.freq_ghz == pytest.approx(1.75)
        assert rec.freq_factor == pytest.approx(0.875)
        # Paper's Broadwell compression numbers: ~13 % power, ~7.9 % slow.
        assert rec.predicted_power_saving == pytest.approx(0.13, abs=0.02)
        assert rec.predicted_slowdown == pytest.approx(0.079, abs=0.01)
        assert rec.predicted_energy_saving > 0

    def test_model_optimal_recommendation(self):
        rec = recommend_from_models(
            BROADWELL_D1548, "compress", BW_POWER, BW_RUNTIME, policy=None
        )
        # Must do at least as well as Eqn. 3 on modeled energy.
        eqn3 = recommend_from_models(
            BROADWELL_D1548, "compress", BW_POWER, BW_RUNTIME, PAPER_POLICY
        )
        assert rec.predicted_energy_saving >= eqn3.predicted_energy_saving - 1e-12

    def test_invalid_stage(self):
        with pytest.raises(ValueError, match="stage"):
            recommend_from_models(BROADWELL_D1548, "decompress", BW_POWER, BW_RUNTIME)
