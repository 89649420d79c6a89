"""Unit tests for multi-core frequency/width co-tuning."""

import pytest

from repro.core.multicore import (
    CoreFreqPoint,
    optimal_configuration,
    pareto_front,
    sweep_configurations,
)
from repro.hardware.cpu import BROADWELL_D1548, SKYLAKE_4114
from repro.hardware.node import SimulatedNode
from repro.hardware.powercurves import CalibratedPowerCurve
from repro.hardware.workload import WorkloadKind, compression_workload, write_workload


@pytest.fixture
def node():
    return SimulatedNode(BROADWELL_D1548, power_noise=0.0, runtime_noise=0.0)


@pytest.fixture
def workload():
    return compression_workload(WorkloadKind.COMPRESS_SZ, int(16e9), 1e-2)


class TestMulticorePower:
    def test_additive_until_tdp(self):
        curve = CalibratedPowerCurve()
        cpu = BROADWELL_D1548
        k = WorkloadKind.COMPRESS_SZ
        p1 = curve.multicore_power_watts(cpu, 2.0, k, 1)
        p2 = curve.multicore_power_watts(cpu, 2.0, k, 2)
        dyn = curve.dynamic_watts(cpu, 2.0, k)
        assert p2 - p1 == pytest.approx(dyn, rel=1e-9)

    def test_tdp_cap(self):
        curve = CalibratedPowerCurve()
        cpu = SKYLAKE_4114
        k = WorkloadKind.COMPRESS_SZ
        p_all = curve.multicore_power_watts(cpu, cpu.fmax_ghz, k, cpu.cores)
        assert p_all <= cpu.tdp_watts

    def test_static_watts_matches_floor(self):
        curve = CalibratedPowerCurve()
        cpu = BROADWELL_D1548
        k = WorkloadKind.COMPRESS_SZ
        # At fmin the dynamic term is tiny: power ≈ static.
        assert curve.static_watts(cpu, k) <= curve.power_watts(cpu, 0.8, k)
        assert curve.static_watts(cpu, k) > 0.9 * curve.power_watts(cpu, 0.8, k) * 0.95

    def test_core_count_validation(self):
        curve = CalibratedPowerCurve()
        with pytest.raises(ValueError):
            curve.multicore_power_watts(BROADWELL_D1548, 2.0,
                                        WorkloadKind.COMPRESS_SZ, 0)
        with pytest.raises(ValueError):
            curve.multicore_power_watts(BROADWELL_D1548, 2.0,
                                        WorkloadKind.COMPRESS_SZ, 999)


class TestMulticoreRuntime:
    def test_amdahl_speedup(self, workload):
        cpu = BROADWELL_D1548
        t1 = workload.multicore_runtime_s(cpu, 2.0, 1)
        t4 = workload.multicore_runtime_s(cpu, 2.0, 4)
        p = workload.parallel_fraction
        assert t4 == pytest.approx(t1 * ((1 - p) + p / 4))

    def test_serial_workload_no_speedup(self):
        wl = write_workload(int(1e9), 500e6)  # parallel_fraction = 0
        cpu = BROADWELL_D1548
        assert wl.multicore_runtime_s(cpu, 2.0, 8) == pytest.approx(
            wl.multicore_runtime_s(cpu, 2.0, 1)
        )

    def test_single_core_matches_runtime_s(self, workload):
        cpu = BROADWELL_D1548
        assert workload.multicore_runtime_s(cpu, 1.5, 1) == pytest.approx(
            workload.runtime_s(cpu, 1.5)
        )

    def test_cores_validation(self, workload):
        with pytest.raises(ValueError):
            workload.multicore_runtime_s(BROADWELL_D1548, 2.0, 0)


class TestSweepAndOptimum:
    def test_sweep_covers_grid(self, node, workload):
        points = sweep_configurations(node, workload, max_cores=2)
        n_freqs = len(BROADWELL_D1548.available_frequencies())
        assert len(points) == 2 * n_freqs

    def test_wide_and_slow_beats_single_core(self, node, workload):
        # The headline extension finding: amortizing the static floor
        # across cores dwarfs the paper's single-core savings.
        single = optimal_configuration(node, workload, max_cores=1)
        multi = optimal_configuration(node, workload)
        assert multi.cores > 1
        assert multi.energy_j < 0.5 * single.energy_j
        assert multi.runtime_s < single.runtime_s  # and it's faster too

    def test_makespan_cap_respected(self, node, workload):
        points = sweep_configurations(node, workload)
        fastest = min(p.runtime_s for p in points)
        unconstrained = optimal_configuration(node, workload)
        cap = fastest * 1.2
        capped = optimal_configuration(node, workload, max_runtime_s=cap)
        assert capped.runtime_s <= cap
        assert capped.energy_j >= unconstrained.energy_j - 1e-9

    def test_impossible_cap(self, node, workload):
        with pytest.raises(ValueError, match="no .* configuration"):
            optimal_configuration(node, workload, max_runtime_s=1e-6)

    def test_max_cores_validation(self, node, workload):
        with pytest.raises(ValueError):
            sweep_configurations(node, workload, max_cores=0)

    def test_node_run_with_cores(self, workload):
        noisy = SimulatedNode(BROADWELL_D1548, seed=0)
        m1 = noisy.run(workload, cores=1)
        m8 = noisy.run(workload, cores=8)
        assert m8.runtime_s < m1.runtime_s
        assert m8.power_w > m1.power_w


class TestParetoFront:
    def test_front_monotone(self, node, workload):
        front = pareto_front(sweep_configurations(node, workload))
        runtimes = [p.runtime_s for p in front]
        energies = [p.energy_j for p in front]
        assert runtimes == sorted(runtimes)
        assert energies == sorted(energies, reverse=True)

    def test_front_dominates_all_points(self, node, workload):
        points = sweep_configurations(node, workload)
        front = pareto_front(points)
        for p in points:
            assert any(
                f.runtime_s <= p.runtime_s + 1e-12 and f.energy_j <= p.energy_j + 1e-9
                for f in front
            )

    def test_energy_property(self):
        p = CoreFreqPoint(cores=2, freq_ghz=1.0, runtime_s=10.0, power_w=20.0)
        assert p.energy_j == 200.0
