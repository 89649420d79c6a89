"""CPU specifications for the paper's two CloudLab node types (Table II)."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "CpuSpec",
    "BROADWELL_D1548",
    "SKYLAKE_4114",
    "CASCADELAKE_6230",
    "KNOWN_CPUS",
    "floor_index",
    "get_cpu",
    "table2_rows",
]


@dataclass(frozen=True)
class CpuSpec:
    """Static description of a DVFS-capable CPU.

    Attributes
    ----------
    model:
        Marketing name, e.g. ``"Intel Xeon D-1548"``.
    arch:
        Microarchitecture key used to select power-curve parameters
        (``"broadwell"`` or ``"skylake"``).
    cloudlab_type:
        CloudLab node type the paper used (``m510`` / ``c220g5``).
    fmin_ghz / fmax_ghz:
        DVFS range: minimum clock to *base* clock (the paper does not
        use turbo frequencies).
    step_ghz:
        ``cpufreq`` step granularity (the paper sweeps at 50 MHz).
    tdp_watts:
        Thermal design power of the package.
    cores:
        Physical core count (experiments are single-core; TDP scaling
        for single-core power uses this).
    perf_ghz_factor:
        Single-core work per cycle relative to Broadwell = 1.0 (Skylake
        retires slightly more per cycle).
    """

    model: str
    arch: str
    cloudlab_type: str
    fmin_ghz: float
    fmax_ghz: float
    step_ghz: float
    tdp_watts: float
    cores: int
    perf_ghz_factor: float = 1.0

    def __post_init__(self):
        if not 0 < self.fmin_ghz < self.fmax_ghz:
            raise ValueError(
                f"invalid frequency range [{self.fmin_ghz}, {self.fmax_ghz}] GHz"
            )
        if self.step_ghz <= 0:
            raise ValueError(f"step_ghz must be positive, got {self.step_ghz}")
        if self.tdp_watts <= 0 or self.cores <= 0:
            raise ValueError("tdp_watts and cores must be positive")

    def available_frequencies(self) -> np.ndarray:
        """The DVFS grid from fmin to fmax inclusive, in GHz.

        Mirrors the paper's sweep: ``fmin, fmin+step, ..., fmax`` (the
        base clock is always included even when the span is not an
        exact multiple of the step). Built once per (fmin, fmax, step)
        and shared, so the array is read-only.
        """
        return _dvfs_grid(self.fmin_ghz, self.fmax_ghz, self.step_ghz)

    def snap_frequency(self, freq_ghz: float) -> float:
        """Closest grid frequency; raises if outside the DVFS range."""
        if not self.fmin_ghz - 1e-9 <= freq_ghz <= self.fmax_ghz + 1e-9:
            raise ValueError(
                f"{freq_ghz} GHz outside [{self.fmin_ghz}, {self.fmax_ghz}] GHz "
                f"for {self.model}"
            )
        grid = self.available_frequencies()
        return float(grid[np.argmin(np.abs(grid - freq_ghz))])

    def floor_frequency(self, cap_ghz: float) -> float:
        """Highest grid frequency at or below *cap_ghz*; fmin when the
        cap lies below the grid.

        The clock-cap rule: a throttle or watt-budget ceiling never
        rounds up onto a faster grid point.
        """
        grid = self.available_frequencies()
        return float(grid[floor_index(grid, cap_ghz)])

    @property
    def frequency_span(self) -> float:
        """fmax - fmin in GHz."""
        return self.fmax_ghz - self.fmin_ghz


def floor_index(grid, cap_ghz: float) -> int:
    """Index of the highest point of the ascending *grid* that is
    ``<= cap_ghz + 1e-9``, or 0 when the cap lies below the grid."""
    return max(bisect_right(grid, cap_ghz + 1e-9) - 1, 0)


@lru_cache(maxsize=256)
def _dvfs_grid(fmin_ghz: float, fmax_ghz: float, step_ghz: float) -> np.ndarray:
    n = int(round((fmax_ghz - fmin_ghz) / step_ghz))
    grid = fmin_ghz + step_ghz * np.arange(n + 1)
    grid = grid[grid <= fmax_ghz + 1e-9]
    if abs(grid[-1] - fmax_ghz) > 1e-9:
        grid = np.append(grid, fmax_ghz)
    grid = np.round(grid, 6)
    grid.flags.writeable = False
    return grid


BROADWELL_D1548 = CpuSpec(
    model="Intel Xeon D-1548",
    arch="broadwell",
    cloudlab_type="m510",
    fmin_ghz=0.8,
    fmax_ghz=2.0,
    step_ghz=0.05,
    tdp_watts=45.0,
    cores=8,
    perf_ghz_factor=1.0,
)

SKYLAKE_4114 = CpuSpec(
    model="Intel Xeon Silver 4114",
    arch="skylake",
    cloudlab_type="c220g5",
    fmin_ghz=0.8,
    fmax_ghz=2.2,
    step_ghz=0.05,
    tdp_watts=85.0,
    cores=10,
    perf_ghz_factor=1.12,
)

#: Extension CPU (not in the paper): used by the "do the trends hold on
#: different CPUs?" study the paper defers to future work. Xeon Gold
#: 6230 figures (Cascade Lake, 2.1 GHz base, 20 cores, 125 W TDP).
CASCADELAKE_6230 = CpuSpec(
    model="Intel Xeon Gold 6230",
    arch="cascadelake",
    cloudlab_type="extension",
    fmin_ghz=0.8,
    fmax_ghz=2.1,
    step_ghz=0.05,
    tdp_watts=125.0,
    cores=20,
    perf_ghz_factor=1.18,
)

KNOWN_CPUS: Dict[str, CpuSpec] = {
    "broadwell": BROADWELL_D1548,
    "skylake": SKYLAKE_4114,
    "cascadelake": CASCADELAKE_6230,
    "m510": BROADWELL_D1548,
    "c220g5": SKYLAKE_4114,
}


def get_cpu(name: str) -> CpuSpec:
    """Look up a CPU by architecture or CloudLab node type."""
    key = name.lower()
    if key not in KNOWN_CPUS:
        raise KeyError(f"unknown CPU {name!r}; known: {sorted(set(KNOWN_CPUS))}")
    return KNOWN_CPUS[key]


def table2_rows() -> Tuple[Dict[str, object], ...]:
    """Rows of Table II (hardware utilized)."""
    rows = []
    for spec in (BROADWELL_D1548, SKYLAKE_4114):
        rows.append(
            {
                "cloudlab": spec.cloudlab_type,
                "cpu": spec.model,
                "clock_range_ghz": f"{spec.fmin_ghz}GHz - {spec.fmax_ghz}GHz",
                "series": spec.arch.capitalize(),
            }
        )
    return tuple(rows)
