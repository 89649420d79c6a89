"""Tuning service: the deployable decision point.

A job scheduler integrating the paper's methodology does not refit
models per job — it loads the site's saved
:class:`~repro.core.persistence.ModelBundle` once and asks, per I/O
phase, "what frequency should this stage pin?". :class:`TuningService`
is that façade: stage + architecture (+ objective / runtime cap) in,
pinned frequency and predicted effects out.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.objectives import Objective
from repro.core.persistence import ModelBundle
from repro.core.power_model import PowerModel
from repro.core.runtime_model import RuntimeModel
from repro.core.tuning import TuningPolicy, TuningRecommendation, recommend
from repro.hardware.cpu import get_cpu

__all__ = ["TuningService"]

_STAGES = ("compress", "write")


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
        """*stage*'s models for the canonical architecture name *arch*."""
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
    ) -> TuningRecommendation:
        """Pick the pinned frequency for one I/O stage.

        *arch* is any name :func:`~repro.hardware.cpu.get_cpu` knows
        (``"Broadwell"``, ``"m510"``, ...); the recommendation reports
        the canonical architecture. A *policy* (e.g.
        :data:`~repro.core.tuning.PAPER_POLICY`) overrides the objective
        with its fixed factor; *max_slowdown* constrains the
        objective-driven choice.
        """
        cpu = get_cpu(arch)
        power, runtime = self._models(cpu.arch, stage)
        return recommend(
            cpu, stage, power, runtime, policy, objective, max_slowdown
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
                        "arch": d.cpu,
                        "stage": d.stage,
                        "freq_ghz": d.freq_ghz,
                        "power_saving_pct": d.predicted_power_saving * 100,
                        "slowdown_pct": d.predicted_slowdown * 100,
                        "energy_saving_pct": d.predicted_energy_saving * 100,
                    }
                )
        return tuple(rows)
