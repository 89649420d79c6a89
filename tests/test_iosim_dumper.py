"""Unit tests for the compress-then-write dumper."""

import pytest

from repro.compressors import SZCompressor, ZFPCompressor
from repro.data import load_field
from repro.hardware.cpu import BROADWELL_D1548, get_cpu
from repro.hardware.node import SimulatedNode
from repro.iosim.dumper import DataDumper, RunConfig, measure_ratio
from repro.observability import get_registry
from repro.resilience import FaultKind, FaultPlan, FaultSpec, RecoveryPolicy


@pytest.fixture(scope="module")
def sample():
    return load_field("nyx", "velocity_x", scale=32)


@pytest.fixture
def dumper():
    node = SimulatedNode(BROADWELL_D1548, power_noise=0.0, runtime_noise=0.0, seed=0)
    return DataDumper(node, repeats=1)


class TestDump:
    def test_report_structure(self, dumper, sample):
        rep = dumper.dump(SZCompressor(), sample, 1e-2, int(100e9))
        assert rep.compress.stage == "compress"
        assert rep.write.stage == "write"
        assert rep.compression_ratio > 1.0
        assert rep.total_energy_j == pytest.approx(
            rep.compress.energy_j + rep.write.energy_j
        )
        assert rep.total_runtime_s == pytest.approx(
            rep.compress.runtime_s + rep.write.runtime_s
        )

    def test_write_bytes_reduced_by_ratio(self, dumper, sample):
        rep = dumper.dump(SZCompressor(), sample, 1e-1, int(100e9))
        assert rep.write.bytes_processed == pytest.approx(
            100e9 / rep.compression_ratio, rel=0.01
        )

    def test_default_frequencies_are_base_clock(self, dumper, sample):
        rep = dumper.dump(SZCompressor(), sample, 1e-2, int(10e9))
        assert rep.compress.freq_ghz == 2.0
        assert rep.write.freq_ghz == 2.0

    def test_per_stage_frequencies_applied(self, dumper, sample):
        rep = dumper.dump(
            SZCompressor(), sample,
            RunConfig(1e-2, compress_freq_ghz=1.75, write_freq_ghz=1.7),
            int(10e9),
        )
        assert rep.compress.freq_ghz == pytest.approx(1.75)
        assert rep.write.freq_ghz == pytest.approx(1.7)

    def test_tuning_reduces_energy_noise_free(self, dumper, sample):
        base = dumper.dump(SZCompressor(), sample, 1e-2, int(100e9))
        tuned = dumper.dump(
            SZCompressor(), sample,
            RunConfig(1e-2, compress_freq_ghz=1.75, write_freq_ghz=1.7),
            int(100e9),
        )
        assert tuned.total_energy_j < base.total_energy_j
        assert tuned.total_runtime_s > base.total_runtime_s

    def test_finer_bound_more_total_energy(self, dumper, sample):
        coarse = dumper.dump(SZCompressor(), sample, 1e-1, int(100e9))
        fine = dumper.dump(SZCompressor(), sample, 1e-4, int(100e9))
        assert fine.total_energy_j > coarse.total_energy_j
        assert fine.compression_ratio < coarse.compression_ratio

    def test_zfp_supported(self, dumper, sample):
        rep = dumper.dump(ZFPCompressor(), sample, 1e-2, int(10e9))
        assert rep.compression_ratio > 1.0

    def test_energy_scales_with_target(self, dumper, sample):
        small = dumper.dump(SZCompressor(), sample, 1e-2, int(50e9))
        large = dumper.dump(SZCompressor(), sample, 1e-2, int(200e9))
        assert large.total_energy_j == pytest.approx(4 * small.total_energy_j, rel=0.01)

    def test_invalid_target(self, dumper, sample):
        with pytest.raises(ValueError):
            dumper.dump(SZCompressor(), sample, 1e-2, 0)

    def test_invalid_repeats(self):
        node = SimulatedNode(BROADWELL_D1548)
        with pytest.raises(ValueError):
            DataDumper(node, repeats=0)


class TestChunkedDump:
    def _dumper(self, **kwargs):
        node = SimulatedNode(
            BROADWELL_D1548, power_noise=0.0, runtime_noise=0.0, seed=0
        )
        return DataDumper(node, repeats=1, **kwargs)

    def test_monolithic_report_has_no_parallel_stats(self, sample):
        rep = self._dumper().dump(SZCompressor(), sample, 1e-2, int(10e9))
        assert rep.parallel is None

    def test_chunked_dump_records_slab_stats(self, sample):
        dumper = self._dumper(chunk_bytes=1 << 12, executor="serial")
        rep = dumper.dump(SZCompressor(), sample, 1e-2, int(10e9))
        assert rep.parallel is not None
        assert rep.parallel.executor == "serial"
        assert rep.parallel.n_tasks > 1
        assert rep.parallel.bytes_in == sample.nbytes
        assert rep.compression_ratio > 1.0

    def test_chunked_energy_matches_monolithic_closely(self, sample):
        # Slab headers shave a little off the ratio but the energy
        # pipeline must stay consistent with the monolithic path.
        mono = self._dumper().dump(SZCompressor(), sample, 1e-2, int(10e9))
        chunked = self._dumper(chunk_bytes=1 << 14, executor="thread",
                               workers=2).dump(SZCompressor(), sample, 1e-2,
                                               int(10e9))
        assert chunked.compression_ratio == pytest.approx(
            mono.compression_ratio, rel=0.25
        )
        assert chunked.compress.energy_j == pytest.approx(
            mono.compress.energy_j, rel=0.05
        )

    def test_invalid_chunk_bytes(self):
        node = SimulatedNode(BROADWELL_D1548)
        with pytest.raises(ValueError):
            DataDumper(node, chunk_bytes=0)


class TestThrottledDump:
    @pytest.mark.parametrize("retune", [False, True])
    @pytest.mark.parametrize("arch, severity, expected", [
        ("skylake", 0.9, 1.95),  # cap 1.98 GHz
        ("broadwell", 0.87, 1.70),  # cap 1.74 GHz
    ])
    def test_off_grid_throttle_rounds_both_stages_down(
        self, sample, arch, severity, expected, retune
    ):
        node = SimulatedNode(get_cpu(arch), power_noise=0.0,
                             runtime_noise=0.0, seed=0)
        plan = FaultPlan(specs=(FaultSpec(FaultKind.DVFS_THROTTLE,
                                          probability=1.0, severity=severity),),
                         policy_doc=RecoveryPolicy(degraded_retune=retune).as_dict())
        rep = DataDumper(node, repeats=1).dump(
            SZCompressor(), sample, RunConfig(1e-2, fault_plan=plan), int(10e9),
        )
        assert rep.compress.freq_ghz == expected
        assert rep.write.freq_ghz == expected


def _compress_calls():
    return sum(
        m.value for m in get_registry().metrics()
        if m.name == "repro_compress_calls_total"
    )


class TestMeasurementReuse:
    def test_reused_measurement_reports_like_a_fresh_dump(self, sample):
        def node():
            return SimulatedNode(BROADWELL_D1548, seed=3)

        # The measurement compresses on its first read, inside the dump;
        # the dump itself must not compress again.
        before = _compress_calls()
        measurement = measure_ratio(SZCompressor(), sample, 1e-2)
        reused = DataDumper(node(), repeats=1).dump(
            SZCompressor(), sample, 1e-2, int(10e9), measurement=measurement
        )
        assert _compress_calls() == before + 1
        fresh = DataDumper(node(), repeats=1).dump(
            SZCompressor(), sample, 1e-2, int(10e9)
        )
        assert reused == fresh
        assert measurement.ratio == fresh.compression_ratio

    def test_chunked_measurement_carries_slab_stats(self, sample):
        measurement = measure_ratio(
            SZCompressor(), sample, 1e-2, chunk_bytes=1 << 12, executor="serial"
        )
        assert len(measurement.buffer.chunks) == measurement.parallel.n_tasks > 1
        dumper = DataDumper(
            SimulatedNode(BROADWELL_D1548, seed=0), repeats=1,
            chunk_bytes=1 << 12, executor="serial",
        )
        rep = dumper.dump(SZCompressor(), sample, 1e-2, int(10e9),
                          measurement=measurement)
        assert rep.parallel is measurement.parallel

    @pytest.mark.parametrize("codec, bound", [
        (ZFPCompressor(), 1e-2),
        (SZCompressor(), 1e-3),
    ])
    def test_measurement_of_another_codec_or_bound_is_rejected(
        self, dumper, sample, codec, bound
    ):
        measurement = measure_ratio(SZCompressor(), sample, 1e-2)
        with pytest.raises(ValueError, match="cannot serve"):
            dumper.dump(codec, sample, bound, int(10e9),
                        measurement=measurement)
