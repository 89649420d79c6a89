"""Tuning objectives beyond plain energy.

The paper minimizes energy subject to an implicit runtime tolerance.
Real deployments weigh time differently, so the optimizer also supports
the standard objective family:

* ``POWER`` — minimize average power (the paper's Fig. 1 minimum; ends
  up at f_min, useful only under hard power caps).
* ``ENERGY`` — minimize ``P(f)·t(f)`` (the paper's implicit objective).
* ``EDP`` — energy-delay product ``P(f)·t(f)²``, the common
  throughput-aware compromise.
* ``ED2P`` — energy-delay² product ``P(f)·t(f)³``, strongly
  delay-averse (leans toward f_max).

:func:`solve_frequency` is the one grid argmin behind every frequency
pick: model-optimal tuning, the tuning service, the governors and the
degraded write retune each evaluate their own model on the grid and
hand the values in.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.core.power_model import PowerModel
from repro.core.runtime_model import RuntimeModel
from repro.hardware.cpu import floor_index

__all__ = [
    "Objective",
    "objective_curve",
    "InfeasibleSlowdownError",
    "solve_frequency",
]


class Objective(enum.Enum):
    """What to minimize when picking a pinned frequency."""

    POWER = "power"
    ENERGY = "energy"
    EDP = "edp"
    ED2P = "ed2p"

    @property
    def delay_exponent(self) -> int:
        """Power of the runtime factor in the objective."""
        return {
            Objective.POWER: 0,
            Objective.ENERGY: 1,
            Objective.EDP: 2,
            Objective.ED2P: 3,
        }[self]


def objective_curve(
    power_model: PowerModel,
    runtime_model: RuntimeModel,
    frequencies,
    objective: Objective = Objective.ENERGY,
) -> np.ndarray:
    """Scaled objective values ``P(f) · t(f)^k`` over *frequencies*."""
    if not isinstance(objective, Objective):
        raise TypeError(f"objective must be an Objective, got {objective!r}")
    f = np.asarray(frequencies, dtype=np.float64)
    return power_model.predict(f) * runtime_model.predict(f) ** objective.delay_exponent


class InfeasibleSlowdownError(ValueError):
    """No candidate frequency meets the ``max_slowdown`` constraint."""


def solve_frequency(
    grid,
    power,
    runtime,
    objective: Objective = Objective.ENERGY,
    max_slowdown: float | None = None,
    cap_ghz: float | None = None,
    hysteresis: float = 0.0,
) -> float:
    """The DVFS grid frequency minimizing ``power · runtime^k``.

    *power* and *runtime* are the caller's model values at each point
    of the ascending *grid*; *runtime* is relative to the max clock's
    runtime whenever *max_slowdown* is given. A *cap_ghz* keeps the
    points at or below it (fmin alone when it lies below the grid);
    *max_slowdown* keeps the points with ``runtime <= 1 + max_slowdown``
    and raises :class:`InfeasibleSlowdownError` when none is left. The
    lowest remaining frequency wins unless the argmin beats its cost by
    more than *hysteresis* times that cost, so ``hysteresis=0`` is a
    plain argmin with ties going to the lower clock.
    """
    if not isinstance(objective, Objective):
        raise TypeError(f"objective must be an Objective, got {objective!r}")
    grid = np.asarray(grid, dtype=np.float64)
    if not grid.size:
        raise ValueError("grid must be non-empty")
    runtime = np.asarray(runtime, dtype=np.float64)
    cost = np.asarray(power, dtype=np.float64) * runtime**objective.delay_exponent
    if cap_ghz is not None:
        n = floor_index(grid, cap_ghz) + 1
        grid, runtime, cost = grid[:n], runtime[:n], cost[:n]
    if max_slowdown is not None:
        ok = runtime <= 1.0 + max_slowdown + 1e-12
        if not ok.any():
            raise InfeasibleSlowdownError(
                f"no frequency satisfies max_slowdown={max_slowdown}; "
                f"minimum modeled slowdown is {runtime.min() - 1:.3f}"
            )
        grid, cost = grid[ok], cost[ok]
    best = int(np.argmin(cost))
    if cost[0] - cost[best] > hysteresis * cost[0]:
        return float(grid[best])
    return float(grid[0])
