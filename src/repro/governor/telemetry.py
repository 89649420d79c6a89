"""Streaming power telemetry: the measure side of the control loop.

A :class:`TelemetryBus` is a bounded ring buffer of RAPL-style samples
— power, frequency, phase tag, bytes processed — published by whatever
is running work (the dump pipeline, the service, a benchmark driver)
and consumed by controllers and exporters. Design points:

* **Ordered.** Every sample gets a bus-wide monotonically increasing
  ``seq`` assigned under the bus lock, so consumers can prove no
  sample was reordered within a phase even when publishers race.
* **Bounded.** The buffer holds ``capacity`` samples; the oldest fall
  off and are counted on :attr:`TelemetryBus.dropped` — a telemetry
  path must never grow without bound under a long campaign.
* **Observable.** Subscribers get each sample synchronously at publish
  time (metrics bridges, live plotters); exports go through the
  observability layer's JSON-lines writer.

The module-level *capture* hooks exist for the distributed executor:
a worker process enables capture around a task, every bus publish in
that process is mirrored into the capture list, and the worker ships
the drained list back to the coordinator as a ``telemetry`` wire frame
(see :mod:`repro.distributed.worker`).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.governor.phases import Phase

__all__ = [
    "TelemetrySample",
    "TelemetryBus",
    "start_capture",
    "drain_capture",
    "capture_active",
]


def _phase_value(phase) -> str:
    """Normalize ``Phase`` / phase-value strings to the wire string."""
    if isinstance(phase, Phase):
        return phase.value
    return Phase(str(phase)).value  # raises ValueError on unknown tags


@dataclass(frozen=True)
class TelemetrySample:
    """One observed (phase, frequency, power, runtime, bytes) point."""

    seq: int
    phase: str
    freq_ghz: float
    power_w: float
    runtime_s: float
    bytes_processed: int
    source: str = "local"

    @property
    def energy_j(self) -> float:
        """Eqn. 1: average power times runtime."""
        return self.power_w * self.runtime_s

    def as_dict(self) -> Dict[str, object]:
        """Plain-types dict, safe for canonical JSON and wire frames."""
        return {
            "seq": self.seq,
            "phase": self.phase,
            "freq_ghz": float(self.freq_ghz),
            "power_w": float(self.power_w),
            "runtime_s": float(self.runtime_s),
            "bytes_processed": int(self.bytes_processed),
            "energy_j": float(self.energy_j),
            "source": self.source,
        }


class TelemetryBus:
    """Bounded, ordered, subscribable ring buffer of telemetry samples."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._buffer: deque = deque(maxlen=self.capacity)
        self._next_seq = 0
        self._dropped = 0
        self._subscribers: List[Callable[[TelemetrySample], None]] = []

    def publish(
        self,
        phase,
        freq_ghz: float,
        power_w: float,
        runtime_s: float,
        bytes_processed: int,
        source: str = "local",
    ) -> TelemetrySample:
        """Record one sample; returns it with its assigned ``seq``.

        Sequence assignment, buffering, capture mirroring and
        subscriber delivery all happen under one lock hold, so two
        racing publishers can never deliver out of seq order — the
        no-drop/no-reorder property the concurrency tests pin down.
        """
        if freq_ghz <= 0 or power_w <= 0 or runtime_s <= 0:
            raise ValueError(
                "freq_ghz, power_w and runtime_s must be positive, got "
                f"({freq_ghz}, {power_w}, {runtime_s})"
            )
        if bytes_processed < 0:
            raise ValueError(
                f"bytes_processed must be >= 0, got {bytes_processed}"
            )
        phase_tag = _phase_value(phase)
        with self._lock:
            sample = TelemetrySample(
                seq=self._next_seq,
                phase=phase_tag,
                freq_ghz=float(freq_ghz),
                power_w=float(power_w),
                runtime_s=float(runtime_s),
                bytes_processed=int(bytes_processed),
                source=source,
            )
            self._next_seq += 1
            if len(self._buffer) == self.capacity:
                self._dropped += 1
            self._buffer.append(sample)
            _mirror_to_capture(sample)
            subscribers = tuple(self._subscribers)
            for fn in subscribers:
                fn(sample)
        return sample

    def subscribe(
        self, fn: Callable[[TelemetrySample], None]
    ) -> Callable[[], None]:
        """Register a synchronous per-sample callback; returns a
        deregistration callable. Callbacks run under the bus lock —
        keep them fast and never publish from inside one."""
        with self._lock:
            self._subscribers.append(fn)

        def unsubscribe() -> None:
            with self._lock:
                try:
                    self._subscribers.remove(fn)
                except ValueError:
                    pass

        return unsubscribe

    # -- reads ---------------------------------------------------------

    def samples(self, phase=None) -> Tuple[TelemetrySample, ...]:
        """Buffered samples in seq order, optionally one phase's."""
        with self._lock:
            snapshot = tuple(self._buffer)
        if phase is None:
            return snapshot
        tag = _phase_value(phase)
        return tuple(s for s in snapshot if s.phase == tag)

    def window(self, phase, n: int) -> Tuple[TelemetrySample, ...]:
        """The last *n* samples of *phase* (the controller's live view),
        in seq order.

        Scans back from the newest sample and stops at the *n*-th
        match, so a refit never copies the whole ring.
        """
        if n < 1:
            raise ValueError(f"window must be >= 1, got {n}")
        tag = None if phase is None else _phase_value(phase)
        newest_first = []
        with self._lock:
            for sample in reversed(self._buffer):
                if tag is None or sample.phase == tag:
                    newest_first.append(sample)
                    if len(newest_first) == n:
                        break
        return tuple(reversed(newest_first))

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    @property
    def dropped(self) -> int:
        """Samples pushed off the ring by newer ones."""
        with self._lock:
            return self._dropped

    @property
    def published(self) -> int:
        """Total samples ever published (buffered + dropped)."""
        with self._lock:
            return self._next_seq

    # -- export --------------------------------------------------------

    def to_records(self, phase=None) -> List[Dict[str, object]]:
        return [s.as_dict() for s in self.samples(phase)]

    def export_jsonl(self, path: str) -> None:
        """Write buffered samples as JSON lines (observability format)."""
        from repro.observability.exporters import write_telemetry_jsonl

        write_telemetry_jsonl(path, self.to_records())


# ----------------------------------------------------------------------
# Process-global capture (distributed workers mirror publishes here)
# ----------------------------------------------------------------------

_capture_lock = threading.Lock()
_capture: Optional[List[Dict[str, object]]] = None


def _mirror_to_capture(sample: TelemetrySample) -> None:
    # Called under a bus lock; the capture lock only guards the list
    # swap, so lock order is always bus -> capture (never inverted).
    with _capture_lock:
        if _capture is not None:
            _capture.append(sample.as_dict())


def start_capture() -> None:
    """Begin mirroring every bus publish in this process into a list.

    Idempotent: re-starting clears any half-drained capture, so a
    worker task always ships exactly its own samples.
    """
    global _capture
    with _capture_lock:
        _capture = []


def drain_capture() -> List[Dict[str, object]]:
    """Stop capturing and return the mirrored samples (publish order)."""
    global _capture
    with _capture_lock:
        captured, _capture = _capture, None
    return captured or []


def capture_active() -> bool:
    with _capture_lock:
        return _capture is not None
