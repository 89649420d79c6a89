"""Unit tests for the restore-path sweeps (decompression + read)."""

import pytest

from repro.core.partitions import COMPRESSION_PARTITIONS, fit_partition_models
from repro.core.scaling import add_scaled_columns
from repro.workflow.sweep import (
    SweepConfig,
    compression_sweep,
    decompression_sweep,
    default_nodes,
    read_sweep,
)

FAST = SweepConfig(
    compressors=("sz", "zfp"),
    datasets=(("nyx", "velocity_x"),),
    error_bounds=(1e-2,),
    transit_sizes_gb=(1.0,),
    repeats=2,
    data_scale=32,
    frequency_stride=4,
    measure_ratios=False,
)


class TestDecompressionSweep:
    @pytest.fixture(scope="class")
    def samples(self):
        return decompression_sweep(default_nodes(), FAST)

    def test_schema_matches_compression(self, samples):
        comp = compression_sweep(default_nodes(), FAST)
        assert set(samples[0]) | {"ratio"} == set(comp[0])

    def test_decompression_faster_than_compression(self, samples):
        comp = compression_sweep(default_nodes(), FAST)
        for cpu in ("broadwell", "skylake"):
            t_dec = samples.filter(cpu=cpu, compressor="sz").column("runtime_s").mean()
            t_comp = comp.filter(cpu=cpu, compressor="sz").column("runtime_s").mean()
            assert t_dec < t_comp

    def test_partition_models_fit_on_restore_data(self, samples):
        scaled = add_scaled_columns(samples)
        models = fit_partition_models(scaled, COMPRESSION_PARTITIONS)
        # Same structural conclusion on the restore path.
        assert models["Broadwell"].gof.rmse < models["Total"].gof.rmse
        assert models["Skylake"].gof.rmse < models["Total"].gof.rmse

    def test_critical_slope_shape(self, samples):
        scaled = add_scaled_columns(samples)
        bw = scaled.filter(cpu="broadwell").sort_by("freq_ghz")
        p = bw.column("scaled_power_w")
        f = bw.column("freq_ghz")
        assert p[f.argmax()] >= p.max() - 1e-9


class TestReadSweep:
    @pytest.fixture(scope="class")
    def samples(self):
        return read_sweep(default_nodes(), FAST)

    def test_schema(self, samples):
        assert {"cpu", "size_gb", "freq_ghz", "power_w", "runtime_s"} <= set(samples[0])

    def test_skylake_read_runtime_stagnant(self, samples):
        scaled = add_scaled_columns(samples, group_keys=("cpu", "size_gb"))
        sky = scaled.filter(cpu="skylake").sort_by("freq_ghz")
        bw = scaled.filter(cpu="broadwell").sort_by("freq_ghz")
        assert sky.column("scaled_runtime_s").max() < bw.column("scaled_runtime_s").max()

    def test_read_draws_less_power_than_write(self, samples):
        from repro.workflow.sweep import transit_sweep

        writes = transit_sweep(default_nodes(), FAST)
        for cpu in ("broadwell", "skylake"):
            p_read = samples.filter(cpu=cpu).column("power_w").mean()
            p_write = writes.filter(cpu=cpu).column("power_w").mean()
            assert p_read < p_write
