"""Unit tests for the sweep orchestration."""

import math

import pytest

from repro.core.samples import SampleSet
from repro.workflow.sweep import (
    SweepConfig,
    compression_sweep,
    default_nodes,
    transit_sweep,
)

FAST = SweepConfig(
    compressors=("sz",),
    datasets=(("nyx", "velocity_x"),),
    error_bounds=(1e-2,),
    transit_sizes_gb=(1.0,),
    repeats=2,
    data_scale=32,
    frequency_stride=4,
)


class TestSweepConfig:
    def test_defaults_match_paper(self):
        cfg = SweepConfig()
        assert cfg.error_bounds == (1e-1, 1e-2, 1e-3, 1e-4)
        assert cfg.repeats == 10
        assert cfg.transit_sizes_gb == (1.0, 2.0, 4.0, 8.0, 16.0)
        assert cfg.compressors == ("sz", "zfp")

    @pytest.mark.parametrize("kwargs", [
        {"repeats": 0},
        {"frequency_stride": 0},
        {"compressors": ()},
        {"error_bounds": ()},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)


class TestDefaultNodes:
    def test_two_archs(self):
        nodes = default_nodes()
        assert [n.cpu.arch for n in nodes] == ["broadwell", "skylake"]

    def test_decorrelated_noise(self):
        a, b = default_nodes(seed=0)
        assert a._rng.bit_generator.state != b._rng.bit_generator.state


class TestCompressionSweep:
    @pytest.fixture(scope="class")
    def samples(self):
        return compression_sweep(default_nodes(), FAST)

    def test_record_schema(self, samples):
        required = {
            "cpu", "compressor", "dataset", "field", "error_bound",
            "freq_ghz", "power_w", "runtime_s", "energy_j",
            "power_samples", "runtime_samples", "ratio",
        }
        assert required <= set(samples[0])

    def test_grid_endpoints_present(self, samples):
        bw = samples.filter(cpu="broadwell")
        freqs = set(bw.column("freq_ghz").tolist())
        assert 0.8 in freqs and 2.0 in freqs

    def test_ratio_recorded(self, samples):
        assert all(r["ratio"] > 1.0 for r in samples)

    def test_ratio_skipped_when_disabled(self):
        cfg = SweepConfig(
            compressors=("sz",), datasets=(("nyx", "velocity_x"),),
            error_bounds=(1e-2,), repeats=1, data_scale=32,
            frequency_stride=8, measure_ratios=False,
        )
        samples = compression_sweep(default_nodes()[:1], cfg)
        assert all(math.isnan(r["ratio"]) for r in samples)

    def test_repeat_vectors_length(self, samples):
        assert all(len(r["power_samples"]) == 2 for r in samples)

    def test_returns_sampleset(self, samples):
        assert isinstance(samples, SampleSet)


class TestTransitSweep:
    def test_record_schema(self):
        samples = transit_sweep(default_nodes()[:1], FAST)
        required = {"cpu", "size_gb", "freq_ghz", "power_w", "runtime_s", "energy_j"}
        assert required <= set(samples[0])
        assert "compressor" not in samples[0]

    def test_one_series_per_size(self):
        cfg = SweepConfig(
            compressors=("sz",), datasets=(("nyx", "velocity_x"),),
            transit_sizes_gb=(1.0, 2.0), repeats=1, data_scale=32,
            frequency_stride=8,
        )
        samples = transit_sweep(default_nodes()[:1], cfg)
        assert samples.unique("size_gb") == (1.0, 2.0)
