"""Phase detection: what kind of work is the node doing right now?

The control loop tunes per *phase*, not per process — the paper's whole
point is that compression and data writing want different clocks. A
:class:`Phase` is the governor's unit of state; this module maps the
two naming schemes the rest of the stack already uses onto it:

* workload kinds (:class:`~repro.hardware.workload.WorkloadKind`) from
  the simulation layer, and
* span names (``dump.compress``, ``nfs.write`` …) from the
  observability layer's pipeline/iosim annotations.

:class:`PhaseDetector` adds the stateful view: push/pop span names as
stages begin and end (mirroring the tracer's stack) and read
``current`` to tag telemetry samples emitted mid-stage.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from repro.hardware.workload import WorkloadKind

__all__ = ["Phase", "phase_for_kind", "phase_for_span", "PhaseDetector"]


class Phase(enum.Enum):
    """The governor's three-way classification of node activity."""

    COMPRESS = "compress"
    WRITE = "write"
    IDLE = "idle"


#: Codec stages (either direction) tune like compression; pure data
#: movement tunes like writing. Everything else is idle to the governor.
_PHASE_FOR_KIND = {
    WorkloadKind.COMPRESS_SZ: Phase.COMPRESS,
    WorkloadKind.COMPRESS_ZFP: Phase.COMPRESS,
    WorkloadKind.DECOMPRESS_SZ: Phase.COMPRESS,
    WorkloadKind.DECOMPRESS_ZFP: Phase.COMPRESS,
    WorkloadKind.WRITE: Phase.WRITE,
    WorkloadKind.READ: Phase.WRITE,
}

#: Span-name prefixes from the pipeline/iosim tracers, most specific
#: first — ``dump.compress`` must win over ``dump``. Every modeled
#: stage span (:func:`repro.iosim.stage.run_stage`) maps to the phase
#: of its workload kind.
_SPAN_PREFIXES: Tuple[Tuple[str, Phase], ...] = (
    ("dump.compress", Phase.COMPRESS),
    ("dump.ratio", Phase.COMPRESS),
    ("dump.write", Phase.WRITE),
    ("cluster.compress", Phase.COMPRESS),
    ("cluster.write", Phase.WRITE),
    ("tiered.compress", Phase.COMPRESS),
    ("tiered.absorb", Phase.WRITE),
    ("tiered.drain", Phase.WRITE),
    ("snapshot.compress", Phase.COMPRESS),
    ("snapshot.write", Phase.WRITE),
    ("restore.decompress", Phase.COMPRESS),
    ("restore.read", Phase.WRITE),
    ("governed.compress", Phase.COMPRESS),
    ("governed.write", Phase.WRITE),
    ("chunk.", Phase.COMPRESS),
    ("sz.", Phase.COMPRESS),
    ("zfp.", Phase.COMPRESS),
    ("nfs.", Phase.WRITE),
    ("transit.", Phase.WRITE),
)


def phase_for_kind(kind: WorkloadKind) -> Phase:
    """Phase a workload kind executes in (idle for unknown kinds)."""
    return _PHASE_FOR_KIND.get(kind, Phase.IDLE)


def phase_for_span(name: str) -> Optional[Phase]:
    """Phase a span name announces, or ``None`` for neutral spans.

    Neutral spans (``campaign.run``, ``pipeline.fit`` …) neither enter
    nor leave a phase; the detector keeps whatever phase encloses them.
    """
    for prefix, phase in _SPAN_PREFIXES:
        if name == prefix or name.startswith(prefix):
            return phase
    return None


class PhaseDetector:
    """Stack-shaped phase tracker fed by span enter/exit events.

    Mirrors the tracer's per-thread span stack: :meth:`push` on span
    start, :meth:`pop` on span end. Neutral spans push ``None`` so the
    stack stays balanced without disturbing the current phase.
    """

    def __init__(self) -> None:
        self._stack: list = []

    @property
    def current(self) -> Phase:
        """Innermost announced phase; :data:`Phase.IDLE` outside any."""
        for phase in reversed(self._stack):
            if phase is not None:
                return phase
        return Phase.IDLE

    def push(self, span_name: str) -> Phase:
        """Enter a span; returns the phase now current."""
        self._stack.append(phase_for_span(span_name))
        return self.current

    def pop(self) -> Phase:
        """Leave the innermost span; returns the phase now current."""
        if self._stack:
            self._stack.pop()
        return self.current

    @property
    def depth(self) -> int:
        return len(self._stack)
