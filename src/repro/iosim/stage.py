"""One modeled stage of an I/O pipeline: pick its clock, run it, trace it.

The paper prices each dump stage at its own pinned clock as P(f)·t(f)
(Section VI-B), measured as the mean of repeated runs. Every pipeline
here — the single-node dumper and loader, the fleet, the tiered and
snapshot dumpers, the governed-I/O driver and the resilience engine's
write attempts — builds its stages from the two functions below:
:func:`resolve_stage_frequency` picks the clock and :func:`run_stage`
runs the stage inside one traced span that carries its modeled joules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hardware.cpu import CpuSpec
from repro.hardware.node import SimulatedNode
from repro.hardware.workload import Workload
from repro.observability import get_tracer

__all__ = ["StageReport", "resolve_stage_frequency", "run_stage"]


@dataclass(frozen=True)
class StageReport:
    """Energy/runtime outcome of one pipeline stage."""

    stage: str
    freq_ghz: float
    bytes_processed: int
    runtime_s: float
    energy_j: float

    @property
    def power_w(self) -> float:
        return self.energy_j / self.runtime_s


def resolve_stage_frequency(
    cpu: CpuSpec,
    phase,
    pinned: Optional[float] = None,
    governor=None,
    cap_ghz: Optional[float] = None,
) -> float:
    """The clock a stage runs at.

    An unpinned stage under a *governor* takes the governor's pick for
    *phase*; the governor honours *cap_ghz* itself and tags a cap below
    fmin ``capped_below_fmin``. Otherwise the stage runs at its *pinned*
    clock, or fmax when unpinned; *cap_ghz* clamps it, and an infeasible
    cap (below fmin, such as a watt budget's ``0.0``) pins fmin.
    """
    if governor is not None and pinned is None:
        return governor.decide(phase, cap_ghz=cap_ghz)
    freq = cpu.fmax_ghz if pinned is None else pinned
    if cap_ghz is not None:
        freq = min(freq, max(cap_ghz, cpu.fmin_ghz))
    return freq


def run_stage(
    node: SimulatedNode,
    workload: Workload,
    freq_ghz: float,
    repeats: int,
    stage: str,
    nbytes: int,
    span: str,
    **attrs,
) -> StageReport:
    """Pin *node* at *freq_ghz*, run *workload* *repeats* times and
    average the runs into a :class:`StageReport` of *stage* over
    *nbytes*.

    The runs sit inside one *span*, opened with *attrs*, that records
    the snapped clock and the modeled runtime and energy.
    """
    with get_tracer().span(span, **attrs) as sp:
        node.set_frequency(freq_ghz)
        runs = [node.run(workload) for _ in range(repeats)]
        report = StageReport(
            stage=stage,
            freq_ghz=runs[0].freq_ghz,
            bytes_processed=nbytes,
            runtime_s=float(np.mean([m.runtime_s for m in runs])),
            energy_j=float(np.mean([m.energy_j for m in runs])),
        )
        sp.set(
            freq_ghz=report.freq_ghz,
            modeled_runtime_s=report.runtime_s,
            modeled_energy_j=report.energy_j,
        )
    return report
