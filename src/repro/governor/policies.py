"""Governor interface and the non-adaptive policies behind it.

Every governor answers the same two calls:

* :meth:`Governor.decide` — "what frequency should this phase run at
  next?" (consulted at phase boundaries by the dump pipeline), and
* :meth:`Governor.observe` — "here is what that stage measured"
  (power, runtime, bytes at the actually-pinned frequency).

Three implementations share it: :class:`StaticGovernor` wraps the
paper's open-loop Eqn. 3 rule, :class:`OracleGovernor` reads the
simulation's ground-truth curves (the regret benchmark's lower bound),
and :class:`~repro.governor.controller.AdaptiveGovernor` learns from
the telemetry stream. All of them log a decision *trace* — the
determinism contract is that a fixed seed makes the adaptive trace
byte-identical across runs, which only works if every decision is
recorded the same way.

The selection objective lives here in :func:`choose_frequency` so the
oracle and the adaptive controller provably optimize the *same* thing:
minimize modeled energy ``P(f)·t(f)`` over the DVFS grid subject to a
per-phase slowdown budget, preferring the lowest feasible frequency
(max power saving) unless a faster point improves energy by more than
the hysteresis margin. On the calibrated Broadwell curves this lands
exactly on Eqn. 3's grid points (1.75 / 1.70 GHz), which is what makes
the "converges to the static optimum without being told it" acceptance
test meaningful.
"""

from __future__ import annotations

import abc
import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.tuning import PAPER_POLICY, TuningPolicy
from repro.governor.phases import Phase
from repro.governor.telemetry import TelemetryBus, TelemetrySample
from repro.hardware.cpu import CpuSpec
from repro.hardware.workload import FREQUENCY_SENSITIVITY, stage_kind

__all__ = [
    "DEFAULT_SLOWDOWN_BUDGETS",
    "DEFAULT_HYSTERESIS",
    "choose_frequency",
    "GovernorReport",
    "Governor",
    "StaticGovernor",
    "OracleGovernor",
]

#: Per-phase runtime-increase caps the objective honours. Calibrated so
#: the feasible set's floor sits on the paper's Eqn. 3 grid points for
#: Broadwell (compress: 1.75 GHz at +7.9 %, write: 1.70 GHz at +13.2 %)
#: with roughly a grid step of margin against estimation noise on
#: either side.
DEFAULT_SLOWDOWN_BUDGETS: Dict[Phase, float] = {
    Phase.COMPRESS: 0.0875,
    Phase.WRITE: 0.145,
    Phase.IDLE: 1.0,
}

#: Relative energy improvement a non-floor frequency must show before
#: the objective abandons the lowest feasible clock. Soaks up the
#: sub-percent energy flatness of the calibrated write curve so fit
#: noise cannot bounce the decision around.
DEFAULT_HYSTERESIS = 0.02

def choose_frequency(
    grid: Sequence[float],
    power_ratio: Callable[[float], float],
    slowdown: Callable[[float], float],
    budget: float,
    hysteresis: float = DEFAULT_HYSTERESIS,
) -> float:
    """Pick the grid frequency minimizing modeled energy under a budget.

    *power_ratio(f)* is modeled power scaled to the max clock,
    *slowdown(f)* the modeled runtime increase over the max clock.
    Frequencies whose slowdown exceeds *budget* are infeasible; if none
    is feasible the max clock wins (never slow down more than asked).
    Among feasible points the lowest frequency is preferred — it buys
    the largest power saving — unless the energy-minimizing point beats
    it by more than *hysteresis* relative energy, in which case energy
    wins (this is what lets a governor race back to the max clock when
    a perturbed curve makes slowing down counterproductive).
    """
    grid = [float(f) for f in grid]
    if not grid:
        raise ValueError("grid must be non-empty")
    feasible = [f for f in grid if slowdown(f) <= budget + 1e-12]
    if not feasible:
        return float(max(grid))
    energy = {f: power_ratio(f) * (1.0 + slowdown(f)) for f in feasible}
    floor = min(feasible)
    best = min(feasible, key=lambda f: (energy[f], f))
    if energy[floor] - energy[best] > hysteresis * energy[floor]:
        return float(best)
    return float(floor)


@dataclass(frozen=True)
class GovernorReport:
    """Summary of a governor's run, attached to campaign results.

    Everything is plain tuples/scalars so reports pickle across process
    pools and fingerprint cleanly.
    """

    policy: str
    #: Final per-phase frequency, GHz: ((phase, freq), ...).
    frequencies: Tuple[Tuple[str, float], ...]
    #: Per-phase convergence flags: ((phase, converged), ...).
    converged: Tuple[Tuple[str, bool], ...]
    #: Every decision taken: (step, phase, freq_ghz, mode).
    decisions: Tuple[Tuple[int, str, float, str], ...]
    #: Model refits performed (0 for non-adaptive policies).
    refits: int
    #: SHA-256 of the canonical trace JSON (the determinism contract:
    #: equal seeds => equal digests).
    trace_sha256: str


class Governor(abc.ABC):
    """Common trace/telemetry machinery behind every policy."""

    name = "governor"

    def __init__(
        self,
        cpu: CpuSpec,
        telemetry: Optional[TelemetryBus] = None,
    ) -> None:
        self.cpu = cpu
        self.telemetry = telemetry if telemetry is not None else TelemetryBus()
        #: Ordered decision log; entries are plain dicts so the trace
        #: serializes canonically.
        self.trace: list = []
        self.refits = 0
        self._step = 0
        self._last_freq: Dict[Phase, float] = {}

    # -- the two-call control surface ----------------------------------

    @abc.abstractmethod
    def _decide(self, phase: Phase) -> Tuple[float, str]:
        """Policy core: (frequency before clamping, decision mode)."""

    def decide(self, phase, cap_ghz: Optional[float] = None) -> float:
        """Frequency for the next run of *phase*, snapped and clamped.

        *cap_ghz* is a hard ceiling from the resilience layer (a DVFS
        throttle fault); the governor must never command a clock above
        it, whatever the policy wants.
        """
        from repro.observability import get_registry, get_tracer

        phase = _as_phase(phase)
        infeasible_cap = cap_ghz is not None and cap_ghz < self.cpu.fmin_ghz
        with get_tracer().span("governor.decide", phase=phase.value) as sp:
            freq, mode = self._decide(phase)
            freq = min(max(freq, self.cpu.fmin_ghz), self.cpu.fmax_ghz)
            if cap_ghz is not None and freq > cap_ghz:
                freq = max(cap_ghz, self.cpu.fmin_ghz)
                mode = f"{mode}+capped"
            freq = self.cpu.snap_frequency(freq)
            sp.set(freq_ghz=freq, mode=mode)
            if infeasible_cap:
                sp.set(capped_below_fmin=True)
        entry = {
            "step": self._step,
            "phase": phase.value,
            "freq_ghz": round(freq, 6),
            "mode": mode,
            "converged": self.is_converged(phase),
        }
        if infeasible_cap:
            # The cap asked for less than the DVFS floor can deliver; we
            # pin fmin, but make the infeasibility observable instead of
            # silently under-delivering on the watt budget.
            entry["capped_below_fmin"] = True
            get_registry().counter(
                "repro_governor_infeasible_caps_total",
                {"phase": phase.value, "policy": self.name},
                help="decide() calls whose cap_ghz lay below the DVFS floor",
            ).inc()
        self.trace.append(entry)
        self._step += 1
        if self._last_freq.get(phase) != freq:
            get_registry().counter(
                "repro_governor_adjustments_total",
                {"phase": phase.value, "policy": self.name},
                help="frequency changes commanded by I/O governors",
            ).inc()
        self._last_freq[phase] = freq
        return freq

    def observe(
        self,
        phase,
        freq_ghz: float,
        power_w: float,
        runtime_s: float,
        bytes_processed: int,
    ) -> TelemetrySample:
        """Feed back one stage's measurement; lands on the telemetry bus."""
        sample = self.telemetry.publish(
            _as_phase(phase), freq_ghz, power_w, runtime_s, bytes_processed
        )
        self._observed(sample)
        return sample

    def _observed(self, sample: TelemetrySample) -> None:
        """Hook for adaptive policies; static ones ignore feedback."""

    # -- introspection -------------------------------------------------

    def is_converged(self, phase) -> bool:
        """Static policies are converged by construction."""
        return True

    def frequencies(self) -> Dict[str, float]:
        """Most recently decided frequency per phase."""
        return {p.value: f for p, f in sorted(
            self._last_freq.items(), key=lambda kv: kv[0].value
        )}

    def trace_json(self) -> str:
        """Canonical JSON of the decision trace (byte-stable per seed)."""
        return json.dumps(
            self.trace, sort_keys=True, separators=(",", ":")
        )

    def report(self) -> GovernorReport:
        phases = sorted(self._last_freq, key=lambda p: p.value)
        return GovernorReport(
            policy=self.name,
            frequencies=tuple((p.value, self._last_freq[p]) for p in phases),
            converged=tuple((p.value, self.is_converged(p)) for p in phases),
            decisions=tuple(
                (e["step"], e["phase"], e["freq_ghz"], e["mode"])
                for e in self.trace
            ),
            refits=self.refits,
            trace_sha256=hashlib.sha256(
                self.trace_json().encode("utf-8")
            ).hexdigest(),
        )


def _as_phase(phase) -> Phase:
    if isinstance(phase, Phase):
        return phase
    return Phase(str(phase))


class StaticGovernor(Governor):
    """The paper's Eqn. 3 rule behind the Governor interface.

    Open loop: observations land on the telemetry bus (so static runs
    are just as observable) but never change a decision.
    """

    name = "static"

    def __init__(
        self,
        cpu: CpuSpec,
        policy: TuningPolicy = PAPER_POLICY,
        telemetry: Optional[TelemetryBus] = None,
    ) -> None:
        super().__init__(cpu, telemetry)
        self.policy = policy

    def _decide(self, phase: Phase) -> Tuple[float, str]:
        kind = stage_kind(phase.value)
        return self.policy.frequency_for(self.cpu, kind), "static"


class OracleGovernor(Governor):
    """Optimizes the objective on the simulation's *true* curves.

    The regret benchmark's lower bound: no estimation error, no
    exploration cost. Requires the ground-truth
    :class:`~repro.hardware.powercurves.PowerCurve` the node runs on —
    which is exactly why it cannot exist outside the simulation.
    """

    name = "oracle"

    def __init__(
        self,
        cpu: CpuSpec,
        power_curve,
        budgets: Optional[Dict[Phase, float]] = None,
        hysteresis: float = DEFAULT_HYSTERESIS,
        telemetry: Optional[TelemetryBus] = None,
    ) -> None:
        super().__init__(cpu, telemetry)
        self.power_curve = power_curve
        self.budgets = dict(DEFAULT_SLOWDOWN_BUDGETS)
        if budgets:
            self.budgets.update(budgets)
        self.hysteresis = float(hysteresis)
        self._choices: Dict[Phase, float] = {}

    def _decide(self, phase: Phase) -> Tuple[float, str]:
        choice = self._choices.get(phase)
        if choice is None:
            kind = stage_kind(phase.value)
            fmax = self.cpu.fmax_ghz
            p_ref = self.power_curve.power_watts(self.cpu, fmax, kind)
            sens = FREQUENCY_SENSITIVITY[(kind, self.cpu.arch)]
            choice = choose_frequency(
                self.cpu.available_frequencies(),
                lambda f: self.power_curve.power_watts(self.cpu, f, kind) / p_ref,
                lambda f: sens * (fmax / f - 1.0),
                self.budgets[phase],
                self.hysteresis,
            )
            self._choices[phase] = choice
        return choice, "oracle"
