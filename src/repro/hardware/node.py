"""A simulated single-socket node executing workloads under DVFS.

Ties the substrate together: a :class:`~repro.hardware.cpu.CpuSpec`
pinned by a :class:`~repro.hardware.dvfs.FrequencyScaler`, a
deterministic :class:`~repro.hardware.powercurves.PowerCurve` ground
truth, a wrapping :class:`~repro.hardware.rapl.RaplCounter`, and a
seeded noise model standing in for real measurement scatter (run-to-run
thermal/OS variance ~1.5 % on power, ~1 % on runtime — the magnitude
needed for the paper's 95 % confidence shading to be visible).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.cpu import CpuSpec
from repro.hardware.dvfs import FrequencyScaler
from repro.hardware.powercurves import CalibratedPowerCurve, PowerCurve
from repro.hardware.rapl import RaplCounter
from repro.hardware.workload import Workload

__all__ = ["Measurement", "SimulatedNode"]


@dataclass(frozen=True)
class Measurement:
    """One observed workload execution."""

    workload: str
    cpu: str
    freq_ghz: float
    runtime_s: float
    energy_j: float

    @property
    def power_w(self) -> float:
        """Average power over the run (Eqn. 1 rearranged)."""
        return self.energy_j / self.runtime_s


class SimulatedNode:
    """Single-core experiment node with RAPL-observed energy."""

    def __init__(
        self,
        cpu: CpuSpec,
        power_curve: PowerCurve | None = None,
        seed: int = 0,
        power_noise: float = 0.025,
        runtime_noise: float = 0.01,
    ) -> None:
        if not 0 <= power_noise < 0.5 or not 0 <= runtime_noise < 0.5:
            raise ValueError("noise fractions must lie in [0, 0.5)")
        self.cpu = cpu
        self.power_curve = power_curve if power_curve is not None else CalibratedPowerCurve()
        self.scaler = FrequencyScaler(cpu)
        self.rapl = RaplCounter()
        self.power_noise = float(power_noise)
        self.runtime_noise = float(runtime_noise)
        self._rng = np.random.default_rng(seed)

    @property
    def frequency_ghz(self) -> float:
        """Currently pinned core frequency."""
        return self.scaler.current_ghz

    def set_frequency(self, freq_ghz: float) -> float:
        """Pin the cores (``cpufreq-set`` emulation); returns snapped value."""
        return self.scaler.cpufreq_set(freq_ghz)

    def true_power_w(
        self,
        workload: Workload,
        freq_ghz: float | None = None,
        cores: int = 1,
    ) -> float:
        """Noise-free ground-truth power for *workload* (model target)."""
        f = self.frequency_ghz if freq_ghz is None else self.cpu.snap_frequency(freq_ghz)
        if cores == 1:
            return self.power_curve.power_watts(
                self.cpu, f, workload.kind, dynamic_factor=workload.dynamic_power_factor
            )
        return self.power_curve.multicore_power_watts(
            self.cpu, f, workload.kind, cores,
            dynamic_factor=workload.dynamic_power_factor,
        )

    def true_runtime_s(
        self,
        workload: Workload,
        freq_ghz: float | None = None,
        cores: int = 1,
    ) -> float:
        """Noise-free ground-truth runtime for *workload*."""
        f = self.frequency_ghz if freq_ghz is None else self.cpu.snap_frequency(freq_ghz)
        if cores == 1:
            return workload.runtime_s(self.cpu, f)
        return workload.multicore_runtime_s(self.cpu, f, cores)

    def run(self, workload: Workload, cores: int = 1) -> Measurement:
        """Execute *workload* at the pinned frequency; observe via RAPL.

        Runtime and power each receive independent multiplicative
        Gaussian noise; energy is pushed through the wrapping counter
        and recovered with a wrap-aware delta, exactly as ``perf``
        observes it. *cores* > 1 runs the workload's parallel portion
        across that many cores (extension study).
        """
        f = self.frequency_ghz
        runtime = self.true_runtime_s(workload, cores=cores) * self._jitter(
            self.runtime_noise
        )
        power = self.true_power_w(workload, cores=cores) * self._jitter(
            self.power_noise
        )
        # Poll the counter in slices well under half a wrap (~65.5 kJ),
        # the way perf's interval reads keep long runs wrap-safe.
        energy = 0.0
        remaining = power * runtime
        poll_slice = 16e3  # joules per poll
        while True:
            chunk = min(remaining, poll_slice)
            before = self.rapl.read()
            self.rapl.accumulate(chunk)
            after = self.rapl.read()
            energy += self.rapl.delta_joules(before, after)
            remaining -= chunk
            if remaining <= 0:
                break
        return Measurement(
            workload=workload.name,
            cpu=self.cpu.arch,
            freq_ghz=f,
            runtime_s=runtime,
            energy_j=energy,
        )

    def _jitter(self, sigma: float) -> float:
        if sigma == 0.0:
            return 1.0
        # Clip at 4 sigma so a pathological draw cannot make runtime or
        # power non-positive.
        return 1.0 + min(max(self._rng.normal(0.0, sigma), -4 * sigma), 4 * sigma)
