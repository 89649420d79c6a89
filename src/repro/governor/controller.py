"""The adaptive governor: explore/exploit DVFS control on live telemetry.

The control loop per phase:

1. **Warmup** — walk a fixed descending frequency ladder once (max
   clock first, so every later estimate has a scaling reference). This
   seeds the live window with enough distinct frequencies for the
   Eqn. 2 fitter's four-point minimum.
2. **Fit** — whenever new samples arrived, re-fit the scaled power
   curve ``P(f)/P(fmax) = a·f^b + c`` with
   :func:`repro.core.regression.fit_power_law` and estimate the
   runtime-vs-frequency sensitivity ``s`` in ``t(f)/t(fmax) =
   1 + s·(fmax/f − 1)`` by closed-form least squares over per-byte
   runtimes.
3. **Choose** — run the fitted curves through the same
   :func:`~repro.core.objectives.solve_frequency` objective the oracle
   uses (slowdown budget, energy hysteresis, the max clock when the
   budget is infeasible).
4. **Explore or exploit** — with a decaying, seeded probability, probe
   a grid neighbour of the target instead of the target itself; after
   :attr:`converge_after` consecutive identical targets the phase is
   *converged*, exploration stops, and the target is held (hysteresis
   against fit jitter is already inside the objective).

Everything random flows from one seed through per-phase
``numpy`` generators, so a fixed seed yields byte-identical decision
traces — the determinism contract tested in
``tests/test_governor_controller.py``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.regression import PowerLawFit, fit_power_law
from repro.governor.phases import Phase
from repro.governor.policies import (
    DEFAULT_HYSTERESIS,
    DEFAULT_SLOWDOWN_BUDGETS,
    Governor,
    _budgeted_frequency,
)
from repro.governor.telemetry import TelemetryBus, TelemetrySample
from repro.hardware.cpu import CpuSpec

__all__ = ["AdaptiveGovernor", "DEFAULT_WARMUP_FRACTIONS"]

#: Warmup ladder as fractions of the max clock, walked in order. Spans
#: the region the static rule lives in (0.75-1.0 · fmax) with six
#: distinct grid points on every known CPU — comfortably above the
#: fitter's four-point minimum — while never visiting clocks slow
#: enough to hurt badly.
DEFAULT_WARMUP_FRACTIONS: Tuple[float, ...] = (1.0, 0.95, 0.9, 0.85, 0.8, 0.75)

#: Fixed per-phase seed offsets (never ``hash()``: that is randomized
#: per process and would break trace determinism).
_PHASE_SEED_OFFSET: Dict[Phase, int] = {
    Phase.COMPRESS: 0,
    Phase.WRITE: 1,
    Phase.IDLE: 2,
}


class _PhaseState:
    """Mutable per-phase controller state."""

    __slots__ = (
        "warmup",
        "rng",
        "dirty",
        "power_fit",
        "sensitivity",
        "target",
        "streak",
        "converged",
        "steps",
    )

    def __init__(self, warmup: Tuple[float, ...], rng: np.random.Generator):
        self.warmup = list(warmup)
        self.rng = rng
        self.dirty = False  # new samples since the last fit
        self.power_fit: Optional[PowerLawFit] = None
        self.sensitivity: Optional[float] = None
        self.target: Optional[float] = None
        self.streak = 0
        self.converged = False
        self.steps = 0  # post-warmup decisions (drives explore decay)


class AdaptiveGovernor(Governor):
    """Online per-phase DVFS control from streaming telemetry.

    Parameters
    ----------
    cpu:
        The DVFS grid being governed.
    seed:
        Root of all exploration randomness; fixed seed ⇒ byte-identical
        decision traces.
    window:
        Live-window length per phase: the newest *window* samples feed
        every re-fit. Must allow at least the fitter's four points.
    budgets / hysteresis:
        The objective's knobs; see
        :data:`~repro.governor.policies.DEFAULT_SLOWDOWN_BUDGETS` and
        :data:`~repro.governor.policies.DEFAULT_HYSTERESIS`.
    explore / explore_decay:
        Probe probability after warmup is ``explore·explore_decay^n``
        at the phase's *n*-th post-warmup decision; zero once converged.
    converge_after:
        Consecutive identical targets required to declare convergence.
    """

    name = "adaptive"

    def __init__(
        self,
        cpu: CpuSpec,
        seed: int = 0,
        window: int = 64,
        budgets: Optional[Dict[Phase, float]] = None,
        hysteresis: float = DEFAULT_HYSTERESIS,
        explore: float = 0.2,
        explore_decay: float = 0.8,
        converge_after: int = 3,
        warmup_fractions: Tuple[float, ...] = DEFAULT_WARMUP_FRACTIONS,
        min_fit_points: int = 4,
        telemetry: Optional[TelemetryBus] = None,
    ) -> None:
        super().__init__(cpu, telemetry)
        if window < min_fit_points:
            raise ValueError(
                f"window must be >= {min_fit_points}, got {window}"
            )
        if not 0.0 <= explore <= 1.0:
            raise ValueError(f"explore must be in [0, 1], got {explore}")
        if not 0.0 < explore_decay <= 1.0:
            raise ValueError(
                f"explore_decay must be in (0, 1], got {explore_decay}"
            )
        if converge_after < 1:
            raise ValueError(
                f"converge_after must be >= 1, got {converge_after}"
            )
        self.seed = int(seed)
        self.window = int(window)
        self.budgets = dict(DEFAULT_SLOWDOWN_BUDGETS)
        if budgets:
            self.budgets.update(budgets)
        self.hysteresis = float(hysteresis)
        self.explore = float(explore)
        self.explore_decay = float(explore_decay)
        self.converge_after = int(converge_after)
        self.min_fit_points = int(min_fit_points)

        grid = cpu.available_frequencies()
        self._grid = tuple(float(f) for f in grid)
        # Snap the ladder onto the grid, dropping duplicates in order.
        ladder = []
        for frac in warmup_fractions:
            f = cpu.snap_frequency(
                min(max(frac * cpu.fmax_ghz, cpu.fmin_ghz), cpu.fmax_ghz)
            )
            if f not in ladder:
                ladder.append(f)
        if len(ladder) < self.min_fit_points:
            raise ValueError(
                "warmup_fractions snap to fewer than "
                f"{self.min_fit_points} distinct grid frequencies"
            )
        self._warmup_ladder = tuple(ladder)
        self._states: Dict[Phase, _PhaseState] = {}

    # -- state plumbing ------------------------------------------------

    def _state(self, phase: Phase) -> _PhaseState:
        state = self._states.get(phase)
        if state is None:
            rng = np.random.default_rng(
                [self.seed, _PHASE_SEED_OFFSET[phase]]
            )
            state = _PhaseState(self._warmup_ladder, rng)
            self._states[phase] = state
        return state

    def _observed(self, sample: TelemetrySample) -> None:
        self._state(Phase(sample.phase)).dirty = True

    def is_converged(self, phase) -> bool:
        phase = Phase(phase) if not isinstance(phase, Phase) else phase
        state = self._states.get(phase)
        return bool(state is not None and state.converged)

    def fitted(self, phase) -> Optional[Dict[str, float]]:
        """The learned model for *phase*, or ``None`` before first fit.

        ``a``/``b``/``c`` parameterize scaled power
        ``P(f)/P(fmax) = a·f^b + c``; ``sensitivity`` is ``s`` in
        ``t(f)/t(fmax) = 1 + s·(fmax/f − 1)``.
        """
        phase = Phase(phase) if not isinstance(phase, Phase) else phase
        state = self._states.get(phase)
        if state is None or state.power_fit is None:
            return None
        return {
            "a": state.power_fit.a,
            "b": state.power_fit.b,
            "c": state.power_fit.c,
            "rmse": state.power_fit.gof.rmse,
            "sensitivity": float(state.sensitivity),
        }

    # -- model estimation ----------------------------------------------

    def _refit(self, phase: Phase, state: _PhaseState) -> bool:
        """Re-estimate the phase's curves from its live window."""
        window = self.telemetry.window(phase, self.window)
        fmax = self.cpu.fmax_ghz
        ref = [s for s in window if abs(s.freq_ghz - fmax) < 1e-9]
        if not ref:
            return False  # no scaling reference yet; keep warming up
        freqs = np.array([s.freq_ghz for s in window])
        if len(np.unique(freqs)) < self.min_fit_points:
            return False
        p_ref = float(np.mean([s.power_w for s in ref]))
        powers = np.array([s.power_w for s in window]) / p_ref
        try:
            fit = fit_power_law(freqs, powers)
        except ValueError:
            return False

        # Per-byte runtime ratios against the fmax reference give the
        # sensitivity in closed form: minimize Σ(r−1 − s·u)² over s.
        t_ref = float(
            np.mean([s.runtime_s / max(s.bytes_processed, 1) for s in ref])
        )
        u, r = [], []
        for s in window:
            if abs(s.freq_ghz - fmax) < 1e-9:
                continue
            u.append(fmax / s.freq_ghz - 1.0)
            r.append(s.runtime_s / max(s.bytes_processed, 1) / t_ref)
        if u:
            u_arr = np.array(u)
            r_arr = np.array(r)
            sens = float(
                np.clip(np.dot(u_arr, r_arr - 1.0) / np.dot(u_arr, u_arr), 0.0, 1.0)
            )
        else:
            sens = 0.0

        state.power_fit = fit
        state.sensitivity = sens
        state.dirty = False
        self.refits += 1
        from repro.observability import get_registry

        get_registry().counter(
            "repro_governor_refits_total",
            {"phase": phase.value, "policy": self.name},
            help="online model re-fits performed by adaptive governors",
        ).inc()
        return True

    def _target(self, phase: Phase, state: _PhaseState) -> float:
        """Run the fitted curves through the shared objective."""
        fit = state.power_fit
        sens = state.sensitivity
        fmax = self.cpu.fmax_ghz
        p_ref = float(fit.predict(fmax))
        grid = self.cpu.available_frequencies()
        return _budgeted_frequency(
            grid,
            fit.predict(grid) / p_ref,
            1.0 + sens * (fmax / grid - 1.0),
            self.budgets[phase],
            self.hysteresis,
        )

    # -- the decision core ---------------------------------------------

    def _decide(self, phase: Phase) -> Tuple[float, str]:
        state = self._state(phase)

        if state.warmup:
            return state.warmup.pop(0), "warmup"

        if state.dirty or state.power_fit is None:
            if not self._refit(phase, state) and state.power_fit is None:
                # Window lost its reference samples (tiny ring) — walk
                # the ladder again rather than decide blind.
                state.warmup = list(self._warmup_ladder)
                return state.warmup.pop(0), "warmup"

        target = self._target(phase, state)
        if target == state.target:
            state.streak += 1
        else:
            state.streak = 1
            state.converged = False
        state.target = target
        if state.streak >= self.converge_after:
            state.converged = True

        if state.converged:
            state.steps += 1
            return target, "hold"

        eps = self.explore * self.explore_decay**state.steps
        state.steps += 1
        if state.rng.random() < eps:
            idx = self._grid.index(self.cpu.snap_frequency(target))
            lo, hi = max(idx - 2, 0), min(idx + 2, len(self._grid) - 1)
            neighbours = [
                self._grid[i] for i in range(lo, hi + 1) if i != idx
            ]
            if neighbours:
                probe = float(state.rng.choice(neighbours))
                return probe, "explore"
        return target, "exploit"
