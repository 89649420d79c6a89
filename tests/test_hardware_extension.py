"""Tests for the extension hardware: restore-path kinds and Cascade Lake."""

import numpy as np
import pytest

from repro.hardware.cpu import BROADWELL_D1548, CASCADELAKE_6230, get_cpu
from repro.hardware.node import SimulatedNode
from repro.hardware.powercurves import CalibratedPowerCurve, PhysicalPowerCurve
from repro.hardware.workload import (
    WorkloadKind,
    compression_workload,
    decompression_workload,
    read_workload,
)


class TestRestoreKinds:
    def test_kind_classification(self):
        assert WorkloadKind.DECOMPRESS_SZ.is_decompression
        assert WorkloadKind.DECOMPRESS_SZ.is_codec
        assert not WorkloadKind.DECOMPRESS_SZ.is_compression
        assert not WorkloadKind.READ.is_codec

    def test_decompression_faster_than_compression(self):
        comp = compression_workload(WorkloadKind.COMPRESS_SZ, int(1e9), 1e-2)
        dec = decompression_workload(WorkloadKind.DECOMPRESS_SZ, int(1e9), 1e-2)
        assert dec.reference_runtime_s < comp.reference_runtime_s

    def test_decompression_builder_validates_kind(self):
        with pytest.raises(ValueError):
            decompression_workload(WorkloadKind.COMPRESS_SZ, 100, 1e-2)

    def test_read_workload_kind(self):
        wl = read_workload(int(1e9), 500e6)
        assert wl.kind is WorkloadKind.READ
        assert wl.reference_runtime_s == pytest.approx(2.0)

    @pytest.mark.parametrize("curve_cls", [CalibratedPowerCurve, PhysicalPowerCurve])
    def test_power_curves_cover_new_kinds(self, curve_cls):
        curve = curve_cls()
        for kind in WorkloadKind:
            p = curve.power_watts(BROADWELL_D1548, 1.5, kind)
            assert p > 0

    def test_decompress_draws_less_than_compress(self):
        curve = CalibratedPowerCurve()
        for kind_c, kind_d in (
            (WorkloadKind.COMPRESS_SZ, WorkloadKind.DECOMPRESS_SZ),
            (WorkloadKind.COMPRESS_ZFP, WorkloadKind.DECOMPRESS_ZFP),
        ):
            pc = curve.power_watts(BROADWELL_D1548, 2.0, kind_c)
            pd = curve.power_watts(BROADWELL_D1548, 2.0, kind_d)
            assert pd < pc

    def test_node_runs_restore_workloads(self):
        node = SimulatedNode(BROADWELL_D1548, seed=0)
        for wl in (
            decompression_workload(WorkloadKind.DECOMPRESS_ZFP, int(1e9), 1e-3),
            read_workload(int(1e9), 500e6),
        ):
            m = node.run(wl)
            assert m.energy_j > 0 and m.runtime_s > 0


class TestCascadeLake:
    def test_spec(self):
        assert CASCADELAKE_6230.arch == "cascadelake"
        assert CASCADELAKE_6230.fmax_ghz == 2.1
        assert get_cpu("cascadelake") is CASCADELAKE_6230

    @pytest.mark.parametrize("curve_cls", [CalibratedPowerCurve, PhysicalPowerCurve])
    def test_curves_defined(self, curve_cls):
        curve = curve_cls()
        for kind in (WorkloadKind.COMPRESS_SZ, WorkloadKind.WRITE):
            grid = CASCADELAKE_6230.available_frequencies()
            p = [curve.power_watts(CASCADELAKE_6230, float(f), kind) for f in grid]
            assert all(v > 0 for v in p)
            assert np.all(np.diff(p) >= -1e-9)

    def test_scaled_power_normalized(self):
        curve = CalibratedPowerCurve()
        assert curve.scaled_power(
            CASCADELAKE_6230, 2.1, WorkloadKind.COMPRESS_SZ
        ) == pytest.approx(1.0)

    def test_exponent_between_broadwell_and_skylake(self):
        # The extension chip's curve steepness sits between the two
        # paper chips: check power drop at 0.875*fmax per arch.
        curve = CalibratedPowerCurve()
        k = WorkloadKind.COMPRESS_SZ

        def drop(cpu):
            f = cpu.snap_frequency(0.875 * cpu.fmax_ghz)
            return 1.0 - curve.scaled_power(cpu, f, k)

        from repro.hardware.cpu import SKYLAKE_4114

        assert drop(BROADWELL_D1548) < drop(CASCADELAKE_6230) < drop(SKYLAKE_4114)

    def test_node_executes_all_kinds(self):
        node = SimulatedNode(CASCADELAKE_6230, seed=0)
        wl = compression_workload(WorkloadKind.COMPRESS_SZ, int(1e9), 1e-2)
        m = node.run(wl)
        assert m.cpu == "cascadelake"
        assert m.energy_j > 0

    def test_trends_hold_on_third_cpu(self):
        # The paper's future-work question: critical power slope +
        # positive Eqn. 3 energy savings on an unseen architecture.
        node = SimulatedNode(CASCADELAKE_6230, power_noise=0.0, runtime_noise=0.0)
        wl = compression_workload(WorkloadKind.COMPRESS_SZ, int(1e9), 1e-2)
        grid = CASCADELAKE_6230.available_frequencies()
        power = np.array([node.true_power_w(wl, float(f)) for f in grid])
        runtime = np.array([node.true_runtime_s(wl, float(f)) for f in grid])
        energy = power * runtime
        f_eqn3 = CASCADELAKE_6230.snap_frequency(0.875 * 2.1)
        i = int(np.argmin(np.abs(grid - f_eqn3)))
        assert energy[i] < energy[-1]  # Eqn. 3 saves energy here too
        assert power[0] == power.min() and power[-1] == power.max()
