"""Tuning service: the deployable decision point.

A job scheduler integrating the paper's methodology does not refit
models per job — it loads the site's saved
:class:`~repro.core.persistence.ModelBundle` once and asks, per I/O
phase, "what frequency should this stage pin?". :class:`TuningService`
is that façade: stage + architecture (+ objective / runtime cap) in,
pinned frequency and predicted effects out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.objectives import Objective, optimal_frequency
from repro.core.persistence import ModelBundle
from repro.core.power_model import PowerModel
from repro.core.runtime_model import RuntimeModel
from repro.core.tuning import TuningPolicy
from repro.hardware.cpu import get_cpu

__all__ = ["StageDecision", "TuningService"]

_STAGES = ("compress", "write")


@dataclass(frozen=True)
class StageDecision:
    """One pinned-frequency decision with its predicted effects."""

    arch: str
    stage: str
    freq_ghz: float
    objective: str
    predicted_power_saving: float
    predicted_slowdown: float

    @property
    def predicted_energy_saving(self) -> float:
        return 1.0 - (1.0 - self.predicted_power_saving) * (
            1.0 + self.predicted_slowdown
        )


class TuningService:
    """Answers per-stage frequency queries from a saved model bundle."""

    def __init__(self, bundle: ModelBundle) -> None:
        self.bundle = bundle

    @classmethod
    def from_file(cls, path) -> "TuningService":
        """Load the site's model bundle from disk."""
        return cls(ModelBundle.load(path))

    def architectures(self) -> Tuple[str, ...]:
        """Architectures the bundle carries models for."""
        return tuple(sorted(self.bundle.compression_runtime))

    def _models(self, arch: str, stage: str) -> Tuple[PowerModel, RuntimeModel]:
        if stage not in _STAGES:
            raise ValueError(f"stage must be one of {_STAGES}, got {stage!r}")
        power_map = (
            self.bundle.compression_power if stage == "compress"
            else self.bundle.transit_power
        )
        runtime_map = (
            self.bundle.compression_runtime if stage == "compress"
            else self.bundle.transit_runtime
        )
        power = power_map.get(arch.capitalize())
        runtime = runtime_map.get(arch)
        if power is None or runtime is None:
            raise KeyError(
                f"bundle has no {stage} models for architecture {arch!r}; "
                f"available: {self.architectures()}"
            )
        return power, runtime

    def decide(
        self,
        arch: str,
        stage: str,
        objective: Objective = Objective.ENERGY,
        policy: Optional[TuningPolicy] = None,
        max_slowdown: Optional[float] = None,
    ) -> StageDecision:
        """Pick the pinned frequency for one I/O stage.

        A *policy* (e.g. :data:`~repro.core.tuning.PAPER_POLICY`)
        overrides the objective with its fixed factor; *max_slowdown*
        constrains the objective-driven choice.
        """
        cpu = get_cpu(arch)
        power, runtime = self._models(arch, stage)
        if policy is not None:
            from repro.hardware.workload import stage_kind

            freq = policy.frequency_for(cpu, stage_kind(stage))
            label = policy.name
        else:
            freq = optimal_frequency(power, runtime, cpu, objective)
            label = objective.value
            if max_slowdown is not None:
                grid = cpu.available_frequencies()
                ok = runtime.predict(grid) <= 1.0 + max_slowdown
                if not np.any(ok):
                    raise ValueError(
                        f"no frequency satisfies max_slowdown={max_slowdown}"
                    )
                if runtime.predict(freq) > 1.0 + max_slowdown:
                    from repro.core.objectives import objective_curve

                    values = np.where(
                        ok, objective_curve(power, runtime, grid, objective), np.inf
                    )
                    freq = float(grid[np.argmin(values)])
        p_saving = 1.0 - float(power.predict(freq)) / float(
            power.predict(cpu.fmax_ghz)
        )
        slowdown = float(runtime.predict(freq)) - 1.0
        return StageDecision(
            arch=arch,
            stage=stage,
            freq_ghz=freq,
            objective=label,
            predicted_power_saving=p_saving,
            predicted_slowdown=slowdown,
        )

    def decision_table(
        self, objective: Objective = Objective.ENERGY
    ) -> Tuple[Dict[str, object], ...]:
        """All (arch, stage) decisions as export-ready rows."""
        rows = []
        for arch in self.architectures():
            for stage in _STAGES:
                d = self.decide(arch, stage, objective)
                rows.append(
                    {
                        "arch": d.arch,
                        "stage": d.stage,
                        "freq_ghz": d.freq_ghz,
                        "power_saving_pct": d.predicted_power_saving * 100,
                        "slowdown_pct": d.predicted_slowdown * 100,
                        "energy_saving_pct": d.predicted_energy_saving * 100,
                    }
                )
        return tuple(rows)
