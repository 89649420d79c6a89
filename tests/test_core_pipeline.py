"""Integration-level tests for the end-to-end pipeline."""

import pytest

from repro.core.pipeline import TunedIOPipeline
from repro.core.tuning import PAPER_POLICY
from repro.workflow.sweep import SweepConfig, default_nodes

#: Small-but-representative campaign for tests.
FAST = SweepConfig(
    datasets=(("nyx", "velocity_x"), ("cesm-atm", "T"), ("hacc", "x")),
    error_bounds=(1e-1, 1e-3),
    transit_sizes_gb=(1.0, 4.0),
    repeats=4,
    data_scale=32,
    frequency_stride=3,
)


@pytest.fixture(scope="module")
def outcome():
    pipe = TunedIOPipeline(default_nodes())
    out = pipe.characterize(FAST)
    return pipe, pipe.recommend(out, PAPER_POLICY)


class TestCharacterize:
    def test_sample_counts(self, outcome):
        _, out = outcome
        # 2 cpus x 2 codecs x 3 fields x 2 bounds x per-cpu grid points.
        per_cpu = {
            "broadwell": len(range(0, 25, 3)) + (0 if (25 - 1) % 3 == 0 else 1),
            "skylake": len(range(0, 29, 3)) + (0 if (29 - 1) % 3 == 0 else 1),
        }
        expected = sum(2 * 3 * 2 * n for n in per_cpu.values())
        assert len(out.compression_samples) == expected

    def test_all_models_fitted(self, outcome):
        _, out = outcome
        assert set(out.compression_models) == {"Total", "SZ", "ZFP", "Broadwell", "Skylake"}
        assert set(out.transit_models) == {"Total", "Broadwell", "Skylake"}
        assert set(out.compression_runtime) == {"broadwell", "skylake"}

    def test_per_arch_models_fit_best(self, outcome):
        _, out = outcome
        total = out.compression_models["Total"].gof.rmse
        assert out.compression_models["Broadwell"].gof.rmse < total
        assert out.compression_models["Skylake"].gof.rmse < total

    def test_recovered_parameters_near_ground_truth(self, outcome):
        _, out = outcome
        bw = out.compression_models["Broadwell"]
        assert bw.b == pytest.approx(5.315, rel=0.25)
        assert bw.c == pytest.approx(0.7429, abs=0.03)
        sky = out.compression_models["Skylake"]
        assert sky.b == pytest.approx(23.31, rel=0.25)

    def test_runtime_sensitivities_recovered(self, outcome):
        _, out = outcome
        assert out.compression_runtime["broadwell"].sensitivity == pytest.approx(0.56, abs=0.06)
        assert out.transit_runtime["skylake"].sensitivity == pytest.approx(0.30, abs=0.06)
        assert out.transit_runtime["broadwell"].sensitivity == pytest.approx(0.75, abs=0.06)

    def test_model_table_shape(self, outcome):
        _, out = outcome
        rows = out.model_table("compression")
        assert len(rows) == 5
        assert all({"model", "equation", "sse", "rmse", "r2"} <= set(r) for r in rows)


class TestRecommend:
    def test_four_recommendations(self, outcome):
        _, out = outcome
        assert len(out.recommendations) == 4
        stages = {(r.cpu, r.stage) for r in out.recommendations}
        assert stages == {
            ("broadwell", "compress"), ("broadwell", "write"),
            ("skylake", "compress"), ("skylake", "write"),
        }

    def test_eqn3_factors_applied(self, outcome):
        _, out = outcome
        for r in out.recommendations:
            expected = 0.875 if r.stage == "compress" else 0.85
            assert r.freq_factor == pytest.approx(expected, abs=0.02)

    def test_positive_power_savings(self, outcome):
        _, out = outcome
        for r in out.recommendations:
            assert 0.05 < r.predicted_power_saving < 0.30
            assert 0.0 < r.predicted_slowdown < 0.20


class TestApply:
    def test_savings_report(self, outcome):
        pipe, out = outcome
        rep = pipe.apply(out, arch="skylake", error_bound=1e-1,
                         target_bytes=int(64e9), data_scale=32)
        assert rep.baseline_energy_j > 0
        assert rep.energy_saving_fraction > 0.05  # tuned genuinely wins
        assert rep.runtime_increase_fraction > 0

    def test_unknown_arch(self, outcome):
        pipe, out = outcome
        with pytest.raises(KeyError):
            pipe.apply(out, arch="epyc")

    def test_apply_without_recommend_rejected(self):
        pipe = TunedIOPipeline(default_nodes())
        out = pipe.characterize(FAST)
        with pytest.raises(ValueError, match="recommendations"):
            pipe.apply(out, arch="broadwell")

    def test_empty_nodes_rejected(self):
        with pytest.raises(ValueError):
            TunedIOPipeline(())
