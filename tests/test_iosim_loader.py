"""Unit tests for the restore (read + decompress) pipeline."""

import pytest

from repro.compressors import SZCompressor
from repro.data import load_field
from repro.hardware.cpu import BROADWELL_D1548
from repro.hardware.node import SimulatedNode
from repro.iosim.dumper import DataDumper
from repro.iosim.loader import DataLoader


@pytest.fixture(scope="module")
def sample():
    return load_field("nyx", "velocity_x", scale=32)


@pytest.fixture
def loader():
    node = SimulatedNode(BROADWELL_D1548, power_noise=0.0, runtime_noise=0.0, seed=0)
    return DataLoader(node, repeats=1)


class TestRestore:
    def test_report_structure(self, loader, sample):
        rep = loader.restore(SZCompressor(), sample, 1e-2, int(64e9))
        assert rep.decompress.stage == "decompress"
        assert rep.read.stage == "read"
        assert rep.total_energy_j == pytest.approx(
            rep.decompress.energy_j + rep.read.energy_j
        )

    def test_read_bytes_reduced_by_ratio(self, loader, sample):
        rep = loader.restore(SZCompressor(), sample, 1e-1, int(64e9))
        assert rep.read.bytes_processed == pytest.approx(
            64e9 / rep.compression_ratio, rel=0.01
        )
        assert rep.decompress.bytes_processed == int(64e9)

    def test_restore_cheaper_than_dump(self, loader, sample):
        # Decompression is faster than compression, so restoring the
        # same volume costs less energy than dumping it.
        node = loader.node
        dumper = DataDumper(node, repeats=1)
        dump = dumper.dump(SZCompressor(), sample, 1e-2, int(64e9))
        restore = loader.restore(SZCompressor(), sample, 1e-2, int(64e9))
        assert restore.total_energy_j < dump.total_energy_j

    def test_tuning_reduces_restore_energy(self, loader, sample):
        base = loader.restore(SZCompressor(), sample, 1e-2, int(64e9))
        tuned = loader.restore(
            SZCompressor(), sample, 1e-2, int(64e9),
            read_freq_ghz=1.7, decompress_freq_ghz=1.75,
        )
        assert tuned.total_energy_j < base.total_energy_j
        assert tuned.total_runtime_s > base.total_runtime_s

    def test_per_stage_frequencies_applied(self, loader, sample):
        rep = loader.restore(SZCompressor(), sample, 1e-2, int(8e9),
                             read_freq_ghz=1.7, decompress_freq_ghz=1.75)
        assert rep.read.freq_ghz == pytest.approx(1.7)
        assert rep.decompress.freq_ghz == pytest.approx(1.75)

    def test_invalid_target(self, loader, sample):
        with pytest.raises(ValueError):
            loader.restore(SZCompressor(), sample, 1e-2, 0)

    def test_invalid_repeats(self):
        node = SimulatedNode(BROADWELL_D1548)
        with pytest.raises(ValueError):
            DataLoader(node, repeats=0)
