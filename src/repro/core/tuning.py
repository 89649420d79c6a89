"""Frequency tuning: the paper's static rule and model-driven optima.

Eqn. 3 recommends pinning compression at ``0.875·f_max`` and data
writing at ``0.85·f_max``. :data:`PAPER_POLICY` encodes that rule;
:func:`optimal_energy_frequency` instead minimizes modeled energy
``E(f) = P(f)·t(f)`` over the DVFS grid (ablation #2 compares the two).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.power_model import PowerModel
from repro.core.runtime_model import RuntimeModel
from repro.hardware.cpu import CpuSpec
from repro.hardware.workload import WorkloadKind, stage_kind
from repro.utils.validation import check_in_range

__all__ = [
    "TuningPolicy",
    "PAPER_POLICY",
    "energy_curve",
    "optimal_energy_frequency",
    "TuningRecommendation",
    "recommend_from_models",
]


@dataclass(frozen=True)
class TuningPolicy:
    """Per-stage frequency factors relative to the max clock (Eqn. 3)."""

    compress_factor: float
    write_factor: float
    name: str = "policy"

    def __post_init__(self):
        check_in_range(self.compress_factor, 0.0, 1.0, "compress_factor", inclusive=False)
        check_in_range(self.write_factor, 0.0, 1.0, "write_factor", inclusive=False)

    def factor_for(self, kind: WorkloadKind) -> float:
        """Eqn. 3's piecewise factor for a workload kind."""
        return self.compress_factor if kind.is_compression else self.write_factor

    def frequency_for(self, cpu: CpuSpec, kind: WorkloadKind) -> float:
        """Recommended pinned frequency on *cpu*, snapped to its grid."""
        return cpu.snap_frequency(self.factor_for(kind) * cpu.fmax_ghz)


#: Eqn. 3: f_I/O = 0.875 f_max for lossy compression, 0.85 f_max for
#: data writing.
PAPER_POLICY = TuningPolicy(compress_factor=0.875, write_factor=0.85, name="eqn3")


def energy_curve(
    power_model: PowerModel,
    runtime_model: RuntimeModel,
    frequencies,
) -> np.ndarray:
    """Scaled energy ``P(f)·t(f)`` (both factors scaled to max clock)."""
    f = np.asarray(frequencies, dtype=np.float64)
    return power_model.predict(f) * runtime_model.predict(f)


def optimal_energy_frequency(
    power_model: PowerModel,
    runtime_model: RuntimeModel,
    cpu: CpuSpec,
    max_slowdown: float | None = None,
) -> float:
    """DVFS-grid frequency minimizing modeled energy.

    Parameters
    ----------
    max_slowdown:
        Optional runtime-increase cap (e.g. ``0.10`` for "at most 10 %
        slower than max clock"); frequencies predicted to exceed it are
        excluded.
    """
    grid = cpu.available_frequencies()
    energies = energy_curve(power_model, runtime_model, grid)
    if max_slowdown is not None:
        ok = runtime_model.predict(grid) <= 1.0 + max_slowdown
        if not np.any(ok):
            raise ValueError(
                f"no frequency satisfies max_slowdown={max_slowdown}; "
                f"minimum modeled slowdown is {runtime_model.predict(grid).min() - 1:.3f}"
            )
        energies = np.where(ok, energies, np.inf)
    return float(grid[np.argmin(energies)])


@dataclass(frozen=True)
class TuningRecommendation:
    """A derived per-stage recommendation with its predicted effects."""

    cpu: str
    stage: str
    freq_ghz: float
    freq_factor: float
    predicted_power_saving: float
    predicted_slowdown: float
    predicted_energy_saving: float


def recommend_from_models(
    cpu: CpuSpec,
    stage: str,
    power_model: PowerModel,
    runtime_model: RuntimeModel,
    policy: TuningPolicy | None = None,
) -> TuningRecommendation:
    """Evaluate a policy (default: model-optimal energy) on one stage.

    With a *policy*, its fixed factor is used (the paper's Eqn. 3);
    otherwise the energy-minimizing grid frequency is chosen.
    """
    if stage not in ("compress", "write"):
        raise ValueError(f"stage must be 'compress' or 'write', got {stage!r}")
    from repro.cache import fingerprint, get_cache

    cache = get_cache()
    if not cache.enabled:
        return _recommend(cpu, stage, power_model, runtime_model, policy)
    key = fingerprint(
        kind="tuning.recommend", cpu=cpu, stage=stage,
        power=power_model, runtime=runtime_model, policy=policy,
    )
    return cache.get_or_compute(
        key,
        lambda: _recommend(cpu, stage, power_model, runtime_model, policy),
        context="tuning.recommend",
    )


def _recommend(
    cpu: CpuSpec,
    stage: str,
    power_model: PowerModel,
    runtime_model: RuntimeModel,
    policy: TuningPolicy | None,
) -> TuningRecommendation:
    if policy is not None:
        freq = policy.frequency_for(cpu, stage_kind(stage))
    else:
        freq = optimal_energy_frequency(power_model, runtime_model, cpu)

    p_ref = float(power_model.predict(cpu.fmax_ghz))
    p_tuned = float(power_model.predict(freq))
    t_tuned = float(runtime_model.predict(freq))
    return TuningRecommendation(
        cpu=cpu.arch,
        stage=stage,
        freq_ghz=freq,
        freq_factor=freq / cpu.fmax_ghz,
        predicted_power_saving=1.0 - p_tuned / p_ref,
        predicted_slowdown=t_tuned - 1.0,
        predicted_energy_saving=1.0 - (p_tuned / p_ref) * t_tuned,
    )
