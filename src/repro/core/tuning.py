"""Frequency tuning: the paper's static rule and model-driven optima.

Eqn. 3 recommends pinning compression at ``0.875·f_max`` and data
writing at ``0.85·f_max``. :data:`PAPER_POLICY` encodes that rule;
without a policy, :func:`recommend` instead minimizes a modeled
objective (energy ``E(f) = P(f)·t(f)`` by default) over the DVFS grid
through :func:`~repro.core.objectives.solve_frequency` (ablation #2
compares the two).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.objectives import Objective, solve_frequency
from repro.core.power_model import PowerModel
from repro.core.runtime_model import RuntimeModel
from repro.hardware.cpu import CpuSpec
from repro.hardware.workload import WorkloadKind, stage_kind
from repro.utils.validation import check_in_range

__all__ = [
    "TuningPolicy",
    "PAPER_POLICY",
    "TuningRecommendation",
    "recommend",
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


@dataclass(frozen=True)
class TuningRecommendation:
    """One stage's pinned frequency with its predicted effects.

    *objective* labels what picked the clock: an objective's value
    (``"energy"``, ``"edp"``, ...) or a fixed policy's name
    (``"eqn3"``).
    """

    cpu: str
    stage: str
    freq_ghz: float
    objective: str
    freq_factor: float
    predicted_power_saving: float
    predicted_slowdown: float
    #: ``1 - (P(f)/P(fmax))·t(f)``: the modeled energy at *f* against
    #: the max clock's, from the same two predictions as the fields
    #: above.
    predicted_energy_saving: float


def recommend_from_models(
    cpu: CpuSpec,
    stage: str,
    power_model: PowerModel,
    runtime_model: RuntimeModel,
    policy: TuningPolicy | None = None,
) -> TuningRecommendation:
    """:func:`recommend` with the default energy objective, memoized in
    the result cache.

    The key names that objective, so entries written before
    :class:`TuningRecommendation` carried one are never decoded.
    """
    from repro.cache import fingerprint, get_cache

    args = (cpu, stage, power_model, runtime_model, policy)
    cache = get_cache()
    if not cache.enabled:
        return recommend(*args)
    key = fingerprint(
        kind="tuning.recommend", cpu=cpu, stage=stage,
        power=power_model, runtime=runtime_model, policy=policy,
        objective=Objective.ENERGY.value,
    )
    return cache.get_or_compute(
        key, lambda: recommend(*args), context="tuning.recommend"
    )


def recommend(
    cpu: CpuSpec,
    stage: str,
    power_model: PowerModel,
    runtime_model: RuntimeModel,
    policy: TuningPolicy | None = None,
    objective: Objective = Objective.ENERGY,
    max_slowdown: float | None = None,
) -> TuningRecommendation:
    """Evaluate a policy (default: the model-optimal *objective*) on one
    stage.

    With a *policy*, its fixed factor is used (the paper's Eqn. 3) and
    *max_slowdown* does not apply; otherwise :func:`solve_frequency`
    picks the grid frequency minimizing *objective* within
    *max_slowdown*.
    """
    if stage not in ("compress", "write"):
        raise ValueError(f"stage must be 'compress' or 'write', got {stage!r}")
    if policy is not None:
        freq = policy.frequency_for(cpu, stage_kind(stage))
        label = policy.name
    else:
        grid = cpu.available_frequencies()
        freq = solve_frequency(
            grid, power_model.predict(grid), runtime_model.predict(grid),
            objective, max_slowdown,
        )
        label = objective.value

    p_ref = float(power_model.predict(cpu.fmax_ghz))
    p_tuned = float(power_model.predict(freq))
    t_tuned = float(runtime_model.predict(freq))
    return TuningRecommendation(
        cpu=cpu.arch,
        stage=stage,
        freq_ghz=freq,
        objective=label,
        freq_factor=freq / cpu.fmax_ghz,
        predicted_power_saving=1.0 - p_tuned / p_ref,
        predicted_slowdown=t_tuned - 1.0,
        predicted_energy_saving=1.0 - (p_tuned / p_ref) * t_tuned,
    )
