"""Unit tests for the burst-buffer tier."""

import pytest

from repro.compressors import SZCompressor
from repro.data import load_field
from repro.hardware.cpu import BROADWELL_D1548
from repro.hardware.node import SimulatedNode
from repro.iosim.burstbuffer import BurstBufferTarget, TieredDumper
from repro.iosim.dumper import DataDumper


@pytest.fixture(scope="module")
def sample():
    return load_field("nyx", "velocity_x", scale=32)


@pytest.fixture
def dumper():
    node = SimulatedNode(BROADWELL_D1548, power_noise=0.0, runtime_noise=0.0, seed=0)
    return TieredDumper(node, repeats=1)


class TestBurstBufferTarget:
    def test_effective_bandwidth_is_min_stage(self):
        bb = BurstBufferTarget(nvme_mbps=3000.0, cpu_copy_mbps=1500.0)
        assert bb.effective_bandwidth_bps() == 1500e6

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstBufferTarget(nvme_mbps=0.0)


class TestTieredDump:
    def test_report_structure(self, dumper, sample):
        rep = dumper.dump(SZCompressor(), sample, 1e-2, int(64e9))
        assert rep.total_energy_j == pytest.approx(
            rep.compress.energy_j + rep.absorb.energy_j + rep.drain.energy_j
        )
        assert rep.application_visible_runtime_s == pytest.approx(
            rep.compress.runtime_s + rep.absorb.runtime_s
        )

    def test_absorb_much_faster_than_nfs_write(self, dumper, sample):
        node = dumper.node
        direct = DataDumper(node, repeats=1).dump(SZCompressor(), sample, 1e-2, int(64e9))
        tiered = dumper.dump(SZCompressor(), sample, 1e-2, int(64e9))
        # The burst buffer hides most of the write from the application.
        assert tiered.absorb.runtime_s < 0.5 * direct.write.runtime_s
        assert tiered.application_visible_runtime_s < direct.total_runtime_s

    def test_drain_defaults_to_base_clock(self, dumper, sample):
        rep = dumper.dump(SZCompressor(), sample, 1e-2, int(64e9))
        assert rep.drain.freq_ghz == pytest.approx(2.0)

    def test_drain_energy_minimized_at_interior_frequency(self, dumper, sample):
        # The CPU-bound drain must NOT run at f_min (runtime stretch
        # beats the power drop) nor at f_max: the optimum is interior.
        energies = {}
        for f in (0.8, 1.3, 1.6, 1.8, 2.0):
            rep = dumper.dump(SZCompressor(), sample, 1e-2, int(64e9),
                              drain_freq_ghz=f)
            energies[f] = rep.drain.energy_j
        best = min(energies, key=energies.get)
        assert 0.8 < best < 2.0
        assert energies[0.8] > energies[best]  # fmin is not free energy

    def test_total_energy_higher_than_direct_path(self, dumper, sample):
        # Two writes instead of one: the tier buys latency, not energy.
        node = dumper.node
        direct = DataDumper(node, repeats=1).dump(SZCompressor(), sample, 1e-2, int(64e9))
        tiered = dumper.dump(SZCompressor(), sample, 1e-2, int(64e9))
        assert tiered.total_energy_j > direct.total_energy_j

    def test_eqn3_still_helps_application_visible_stages(self, dumper, sample):
        base = dumper.dump(SZCompressor(), sample, 1e-2, int(64e9))
        tuned = dumper.dump(SZCompressor(), sample, 1e-2, int(64e9),
                            compress_freq_ghz=1.75, absorb_freq_ghz=1.7)
        visible_base = base.compress.energy_j + base.absorb.energy_j
        visible_tuned = tuned.compress.energy_j + tuned.absorb.energy_j
        assert visible_tuned < visible_base

    def test_validation(self, dumper, sample):
        with pytest.raises(ValueError):
            dumper.dump(SZCompressor(), sample, 1e-2, 0)
        node = SimulatedNode(BROADWELL_D1548)
        with pytest.raises(ValueError):
            TieredDumper(node, repeats=0)
