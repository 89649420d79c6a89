"""Online adaptive DVFS control: the measure→fit→actuate loop.

The paper's Eqn. 3 rule is static — fitted offline, applied open loop.
This package closes the loop at runtime:

* :mod:`repro.governor.telemetry` — bounded, ordered ring buffer of
  RAPL-style samples (the *measure* side);
* :mod:`repro.governor.phases` — classify running work as
  compress / write / idle from workload kinds or span names;
* :mod:`repro.governor.policies` — the Governor interface, the shared
  selection objective (a slowdown budget over
  :func:`~repro.core.objectives.solve_frequency`), and the static
  (Eqn. 3) and oracle policies;
* :mod:`repro.governor.controller` — :class:`AdaptiveGovernor`, which
  learns ``P(f) = a·f^b + c`` and the runtime sensitivity online and
  converges to the paper's optimum without being told it;
* :mod:`repro.governor.simulate` — the shared governed-campaign driver
  used by tests and ``benchmarks/governor_regret.py``.

:class:`GovernorSpec` is the picklable knob the workflow layer sweeps:
it names a policy + seed + window, travels inside a
:class:`~repro.iosim.dumper.RunConfig` and its cache fingerprint, and is
materialized into a live governor next to the node that will run it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.governor.controller import AdaptiveGovernor
from repro.governor.phases import Phase, PhaseDetector, phase_for_kind, phase_for_span
from repro.governor.policies import (
    DEFAULT_HYSTERESIS,
    DEFAULT_SLOWDOWN_BUDGETS,
    Governor,
    GovernorReport,
    OracleGovernor,
    StaticGovernor,
)
from repro.governor.simulate import GovernedIOResult, simulate_governed_io
from repro.governor.telemetry import TelemetryBus, TelemetrySample
from repro.hardware.cpu import CpuSpec

__all__ = [
    "Phase",
    "PhaseDetector",
    "phase_for_kind",
    "phase_for_span",
    "TelemetryBus",
    "TelemetrySample",
    "Governor",
    "GovernorReport",
    "StaticGovernor",
    "OracleGovernor",
    "AdaptiveGovernor",
    "DEFAULT_SLOWDOWN_BUDGETS",
    "DEFAULT_HYSTERESIS",
    "GovernorSpec",
    "make_governor",
    "GovernedIOResult",
    "simulate_governed_io",
]

#: Policy names :func:`make_governor` accepts.
GOVERNOR_KINDS = ("static", "adaptive", "oracle")


@dataclass(frozen=True)
class GovernorSpec:
    """Declarative, picklable description of a governor.

    This is what campaign points and cache fingerprints carry — a spec
    hashes/pickles cleanly where a live controller (locks, RNG state)
    would not. :meth:`make` materializes it next to the node.
    """

    kind: str = "adaptive"
    seed: int = 0
    window: int = 64

    def __post_init__(self):
        if self.kind not in GOVERNOR_KINDS:
            raise ValueError(
                f"unknown governor policy {self.kind!r}; "
                f"known: {', '.join(GOVERNOR_KINDS)}"
            )
        if self.window < 4:
            raise ValueError(f"window must be >= 4, got {self.window}")

    def make(self, cpu: CpuSpec, power_curve=None) -> Governor:
        """Build the live governor this spec describes."""
        return make_governor(
            self.kind,
            cpu,
            seed=self.seed,
            window=self.window,
            power_curve=power_curve,
        )


def make_governor(
    kind: str,
    cpu: CpuSpec,
    seed: int = 0,
    window: int = 64,
    power_curve=None,
) -> Governor:
    """Factory over the three policies.

    The oracle needs the ground-truth *power_curve* the node runs on;
    the other policies ignore it.
    """
    if kind == "static":
        return StaticGovernor(cpu)
    if kind == "adaptive":
        return AdaptiveGovernor(cpu, seed=seed, window=window)
    if kind == "oracle":
        if power_curve is None:
            raise ValueError(
                "oracle governor needs the node's ground-truth power_curve"
            )
        return OracleGovernor(cpu, power_curve)
    raise ValueError(
        f"unknown governor policy {kind!r}; known: {', '.join(GOVERNOR_KINDS)}"
    )

