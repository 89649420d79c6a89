"""Deterministic fault injection and the recovery engine.

:class:`FaultInjector` answers one question — *which faults fire at
logical coordinate (stage, snapshot, attempt)?* — from a seeded RNG
keyed purely on those coordinates, so injection commutes with executor
choice. :class:`ResilienceEngine` owns the write-attempt loop: degrade
the NFS, stall, fail, back off, re-tune, fail over to the burst buffer
or finally skip — charging every wasted joule and second to the
snapshot's :class:`~repro.resilience.report.SnapshotResilience`.

Energy model of the failure modes (documented in docs/RESILIENCE.md):

- a failed attempt wastes ``severity × t_write`` seconds at full write
  power (the bytes moved before the error surfaced are thrown away);
- a stalled client burns :data:`STALL_POWER_FRACTION` of write power
  while it waits (cores idle in the iowait state, package stays awake);
- backoff waits burn :data:`BACKOFF_POWER_FRACTION` of write power;
- crashed slab workers and corrupted chunks re-run their slab, charged
  as that slab's share of the compress-stage energy.

All ground-truth lookups use the node's noise-free ``true_*`` surface —
fault accounting never consumes the measurement RNG, so a faulted run's
noise stream stays aligned with the clean run it is compared against.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.objectives import solve_frequency
from repro.hardware.workload import write_workload
from repro.iosim.burstbuffer import BurstBufferTarget
from repro.iosim.nfs import NfsTarget
from repro.iosim.stage import StageReport, run_stage
from repro.observability import get_registry, get_tracer
from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
from repro.resilience.policies import RecoveryPolicy
from repro.resilience.report import AttemptRecord, SnapshotResilience

__all__ = [
    "FaultInjector",
    "ResilienceEngine",
    "InjectedWorkerCrash",
    "SnapshotLostError",
    "STALL_POWER_FRACTION",
    "BACKOFF_POWER_FRACTION",
]

#: Fraction of write-stage power burned while the client blocks on a
#: stalled server (iowait: cores idle, package and uncore stay awake).
STALL_POWER_FRACTION = 0.35

#: Fraction of write-stage power burned during a backoff sleep.
BACKOFF_POWER_FRACTION = 0.25


class InjectedWorkerCrash(RuntimeError):
    """A slab worker was deliberately crashed by the fault plane."""


class SnapshotLostError(RuntimeError):
    """A snapshot could not be written and the policy forbids skipping."""


class _AttemptFailed(Exception):
    """Internal: unwinds a failed write attempt out of its error span."""

    def __init__(self, spec: FaultSpec):
        super().__init__(spec.kind.value)
        self.spec = spec


class FaultInjector:
    """Deterministic trigger oracle for a :class:`FaultPlan`.

    Trigger decisions depend only on ``(plan.seed, spec index, stage,
    snapshot, attempt[, target])`` — never on call order, wall clock or
    thread identity — so any executor backend observes the same faults.
    """

    _STAGE_KEYS = {"write": 1, "compress": 2, "slab": 3, "chunk": 4}

    def __init__(self, plan: FaultPlan):
        self.plan = plan

    def _rng(self, spec_index: int, stage: str, snapshot: int, attempt: int,
             target: int = 0) -> np.random.Generator:
        return np.random.default_rng((
            int(self.plan.seed),
            int(spec_index),
            self._STAGE_KEYS[stage],
            int(snapshot),
            int(attempt),
            int(target),
        ))

    def _fires(self, spec_index: int, spec: FaultSpec, stage: str,
               snapshot: int, attempt: int, target: int = 0) -> bool:
        if not spec.applies_to(snapshot, attempt):
            return False
        if spec.probability >= 1.0:
            return True
        if spec.probability <= 0.0:
            return False
        rng = self._rng(spec_index, stage, snapshot, attempt, target)
        return bool(rng.random() < spec.probability)

    def write_faults(self, snapshot: int, attempt: int) -> List[FaultSpec]:
        """Write-stage faults firing at this (snapshot, attempt)."""
        return [
            spec
            for i, spec in enumerate(self.plan.specs)
            if spec.kind.is_write_fault
            and self._fires(i, spec, "write", snapshot, attempt)
        ]

    def compress_frequency_cap(self, snapshot: int) -> Optional[float]:
        """Throttle cap (fraction of fmax) on the compress stage, if any."""
        caps = [
            spec.severity
            for i, spec in enumerate(self.plan.specs)
            if spec.kind is FaultKind.DVFS_THROTTLE
            and self._fires(i, spec, "compress", snapshot, 1)
        ]
        return min(caps) if caps else None

    def crashing_slabs(self, snapshot: int, attempt: int, n_slabs: int) -> Tuple[int, ...]:
        """Slab indices a worker-crash fault kills at this attempt."""
        crashed = set()
        for i, spec in enumerate(self.plan.specs):
            if spec.kind is not FaultKind.WORKER_CRASH:
                continue
            # Crashes clear by default after the first attempt: a
            # respawned worker does not re-crash unless the spec says so.
            attempts_limit = 1 if spec.attempts is None else spec.attempts
            if attempt > attempts_limit:
                continue
            if spec.snapshots is not None and snapshot not in spec.snapshots:
                continue
            targets = spec.targets if spec.targets is not None else range(n_slabs)
            for slab in targets:
                if slab >= n_slabs:
                    continue
                if spec.probability >= 1.0 or (
                    spec.probability > 0.0
                    and self._rng(i, "slab", snapshot, attempt, slab).random()
                    < spec.probability
                ):
                    crashed.add(int(slab))
        return tuple(sorted(crashed))

    def flipped_chunks(self, snapshot: int, n_chunks: int) -> Tuple[int, ...]:
        """Chunk indices a bit-flip fault corrupts for this snapshot."""
        flipped = set()
        for i, spec in enumerate(self.plan.specs):
            if spec.kind is not FaultKind.BIT_FLIP:
                continue
            targets = spec.targets if spec.targets is not None else range(n_chunks)
            for chunk in targets:
                if chunk >= n_chunks:
                    continue
                if self._fires(i, spec, "chunk", snapshot, 1, chunk):
                    flipped.add(int(chunk))
        return tuple(sorted(flipped))

    def slab_wrapper(self, snapshot: int, n_slabs: int) -> "CrashingSlabWrapper":
        """A picklable slab-fn wrapper injecting the planned crashes."""
        crashes = {
            attempt: self.crashing_slabs(snapshot, attempt, n_slabs)
            for attempt in (1, 2, 3)
        }
        return CrashingSlabWrapper(crashes)


class _CrashingSlabFn:
    """Picklable slab task that crashes on the planned (slab, attempt).

    ``attempt`` is bumped by :meth:`repro.parallel.Executor.map_retry`
    between rounds; process pools pickle the callable at submit time, so
    the bumped value travels to the workers.
    """

    def __init__(self, fn: Callable, crashes: dict):
        self.fn = fn
        self.crashes = crashes
        self.attempt = 1

    def __call__(self, indexed_item):
        index, item = indexed_item
        if index in self.crashes.get(self.attempt, ()):
            raise InjectedWorkerCrash(
                f"slab {index} crashed (injected, attempt {self.attempt})"
            )
        return self.fn(item)


class CrashingSlabWrapper:
    """Wraps a slab fn for :class:`~repro.compressors.ChunkedCompressor`.

    The chunked compressor enumerates its slabs when a wrapper is
    installed, so the wrapped callable sees ``(index, slab)`` and can
    target specific slabs deterministically.
    """

    def __init__(self, crashes: dict):
        self.crashes = crashes

    @property
    def any_planned(self) -> bool:
        return any(self.crashes.values())

    def __call__(self, fn: Callable) -> _CrashingSlabFn:
        return _CrashingSlabFn(fn, self.crashes)


class ResilienceEngine:
    """Runs recovery around the dump pipeline's write stage."""

    def __init__(
        self,
        plan: FaultPlan,
        policy: Optional[RecoveryPolicy] = None,
        burst_buffer: Optional[BurstBufferTarget] = None,
    ):
        self.plan = plan
        if policy is None:
            policy = RecoveryPolicy.from_dict(plan.policy_doc)
        self.policy = policy
        self.burst_buffer = (
            burst_buffer if burst_buffer is not None else BurstBufferTarget()
        )
        self.injector = FaultInjector(plan)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def degraded_nfs(nfs: NfsTarget, bandwidth_factor: float) -> NfsTarget:
        """An :class:`NfsTarget` with its server path scaled down."""
        return nfs.degraded(bandwidth_factor)

    def _count_fault(self, kind: FaultKind) -> None:
        get_registry().counter(
            "repro_faults_injected_total", {"kind": kind.value},
            help="faults fired by the injection plane",
        ).inc()

    # -- the write-attempt loop -------------------------------------------

    def run_write(
        self,
        node,
        nfs: NfsTarget,
        nbytes: int,
        freq_ghz: float,
        snapshot: int,
        repeats: int,
    ) -> Tuple[StageReport, SnapshotResilience]:
        """Write *nbytes* with retry/failover/skip under the fault plan.

        Only the surviving attempt runs on *node* (*repeats* times,
        through :func:`~repro.iosim.stage.run_stage`), so the
        measurement noise stream matches a clean run's.

        Returns the write's :class:`~repro.iosim.stage.StageReport`
        (stage ``write``, ``write-failover`` or ``write-skipped``) and
        the snapshot's :class:`SnapshotResilience`.
        """
        policy = self.policy
        retry = policy.retry
        tracer = get_tracer()
        registry = get_registry()
        records: List[AttemptRecord] = []
        fault_names: List[str] = []
        energy_overhead = 0.0
        time_overhead = 0.0
        retried_bytes = 0
        attempts_used = 0

        for attempt in range(1, retry.max_attempts + 1):
            attempts_used = attempt
            faults = self.injector.write_faults(snapshot, attempt)
            eff_nfs = nfs
            cap_ghz: Optional[float] = None
            stall_s = 0.0
            failing: Optional[FaultSpec] = None
            for spec in faults:
                self._count_fault(spec.kind)
                fault_names.append(spec.kind.value)
                if spec.kind is FaultKind.NFS_SLOWDOWN:
                    eff_nfs = self.degraded_nfs(eff_nfs, 1.0 - spec.severity)
                elif spec.kind is FaultKind.NFS_STALL:
                    stall_s += spec.stall_s
                elif spec.kind is FaultKind.DVFS_THROTTLE:
                    # A cap below the DVFS floor pins fmin: a thermal
                    # event cannot push the clock off the grid.
                    cap = spec.severity * node.cpu.fmax_ghz
                    cap_ghz = cap if cap_ghz is None else min(cap_ghz, cap)
                elif spec.kind.fails_attempt and failing is None:
                    failing = spec

            workload = write_workload(
                nbytes, eff_nfs.effective_bandwidth_bps(), name="dump-write"
            )
            f_eff = freq_ghz
            if cap_ghz is not None:
                f_eff = min(f_eff, node.cpu.floor_frequency(cap_ghz))
            if policy.degraded_retune and (eff_nfs is not nfs or cap_ghz is not None):
                f_eff = _degraded_write_frequency(node, workload, cap_ghz)

            if stall_s > 0.0:
                stall_power = (
                    node.true_power_w(workload, f_eff) * STALL_POWER_FRACTION
                )
                time_overhead += stall_s
                energy_overhead += stall_s * stall_power

            if failing is not None:
                # The attempt dies after `severity` of the write moved;
                # charge the wasted slice at ground-truth cost.
                frac = float(failing.severity)
                t_lost = frac * node.true_runtime_s(workload, f_eff)
                e_lost = t_lost * node.true_power_w(workload, f_eff)
                time_overhead += t_lost
                energy_overhead += e_lost
                retried_bytes += nbytes
                registry.counter(
                    "repro_write_retries_total",
                    help="failed write attempts that were retried",
                ).inc()
                try:
                    with tracer.span(
                        "resilience.attempt",
                        snapshot=snapshot, attempt=attempt,
                        fault=failing.kind.value,
                    ) as sp:
                        sp.set(wasted_s=t_lost, wasted_j=e_lost)
                        raise _AttemptFailed(failing)
                except _AttemptFailed:
                    pass
                records.append(AttemptRecord(
                    snapshot=snapshot, attempt=attempt, stage="write",
                    outcome="failed", faults=tuple(s.kind.value for s in faults),
                    freq_ghz=float(f_eff), runtime_s=float(t_lost),
                    energy_j=float(e_lost), nbytes=int(nbytes),
                ))
                if attempt < retry.max_attempts:
                    backoff = retry.backoff_s(attempt, self.plan.seed, snapshot)
                    time_overhead += backoff
                    energy_overhead += backoff * (
                        node.true_power_w(workload, f_eff)
                        * BACKOFF_POWER_FRACTION
                    )
                continue

            # Surviving attempt: measure it for real.
            write = run_stage(
                node, workload, f_eff, repeats, "write", nbytes,
                "resilience.attempt",
                snapshot=snapshot, attempt=attempt, fault="none",
            )
            records.append(AttemptRecord(
                snapshot=snapshot, attempt=attempt, stage="write",
                outcome="ok", faults=tuple(s.kind.value for s in faults),
                freq_ghz=float(write.freq_ghz), runtime_s=write.runtime_s,
                energy_j=write.energy_j, nbytes=int(nbytes),
            ))
            return write, SnapshotResilience(
                snapshot=snapshot, attempts=attempts_used,
                retried_bytes=retried_bytes,
                energy_overhead_j=float(energy_overhead),
                time_overhead_s=float(time_overhead),
                faults=tuple(fault_names), records=tuple(records),
            )

        # Retries exhausted.
        if policy.failover:
            workload = write_workload(
                nbytes, self.burst_buffer.effective_bandwidth_bps(),
                name="dump-failover",
            )
            registry.counter(
                "repro_failover_total",
                help="snapshots redirected to the burst buffer",
            ).inc()
            write = run_stage(
                node, workload, freq_ghz, repeats, "write-failover", nbytes,
                "resilience.failover", snapshot=snapshot, attempts=attempts_used,
            )
            records.append(AttemptRecord(
                snapshot=snapshot, attempt=attempts_used + 1,
                stage="write-failover", outcome="failover",
                freq_ghz=float(write.freq_ghz), runtime_s=write.runtime_s,
                energy_j=write.energy_j, nbytes=int(nbytes),
            ))
            return write, SnapshotResilience(
                snapshot=snapshot, attempts=attempts_used + 1,
                retried_bytes=retried_bytes,
                energy_overhead_j=float(energy_overhead),
                time_overhead_s=float(time_overhead),
                faults=tuple(fault_names), failover=True,
                records=tuple(records),
            )

        if policy.skip_on_exhaustion:
            registry.counter(
                "repro_snapshots_lost_total",
                help="snapshots dropped after recovery was exhausted",
            ).inc()
            records.append(AttemptRecord(
                snapshot=snapshot, attempt=attempts_used, stage="write",
                outcome="skipped", nbytes=int(nbytes),
            ))
            skipped = StageReport("write-skipped", float(freq_ghz), nbytes, 0.0, 0.0)
            return skipped, SnapshotResilience(
                snapshot=snapshot, attempts=attempts_used,
                retried_bytes=retried_bytes,
                energy_overhead_j=float(energy_overhead),
                time_overhead_s=float(time_overhead),
                faults=tuple(fault_names), lost=True,
                records=tuple(records),
            )

        raise SnapshotLostError(
            f"snapshot {snapshot}: {attempts_used} write attempts failed and "
            "the recovery policy forbids failover and skipping"
        )

    # -- compress-side corruption -----------------------------------------

    def verify_container(self, container, snapshot: int):
        """Exercise the per-chunk checksum against planned bit flips.

        For each chunk the plan corrupts, flip one payload byte in a
        serialized copy and confirm the container decoder rejects it
        with :class:`~repro.compressors.chunked.CorruptChunkError`.
        Returns the indices of chunks that needed recompression.
        """
        from repro.compressors.chunked import ChunkedBuffer, CorruptChunkError

        flipped = self.injector.flipped_chunks(snapshot, len(container.chunks))
        if not flipped:
            return ()
        registry = get_registry()
        blob = container.to_bytes()
        offsets = _chunk_body_offsets(container)
        detected = []
        for chunk_index in flipped:
            self._count_fault(FaultKind.BIT_FLIP)
            start, size = offsets[chunk_index]
            if size == 0:  # pragma: no cover - chunks always have bodies
                continue
            rng = self.injector._rng(0, "chunk", snapshot, 1, chunk_index)
            pos = start + int(rng.integers(0, size))
            corrupted = bytearray(blob)
            corrupted[pos] ^= 1 << int(rng.integers(0, 8))
            try:
                ChunkedBuffer.from_bytes(bytes(corrupted))
            except CorruptChunkError:
                detected.append(chunk_index)
                registry.counter(
                    "repro_corruption_detected_total",
                    help="bit flips caught by the per-chunk checksum",
                ).inc()
            except Exception:  # pragma: no cover - framing damage
                # The flip landed on structure the parser rejects before
                # the checksum runs; still a detection.
                detected.append(chunk_index)
        return tuple(detected)


def _degraded_write_frequency(node, workload, cap_ghz: Optional[float]) -> float:
    """The degraded retune: the grid clock minimizing the node's
    ground-truth write energy under *cap_ghz*.

    The noise-free ``true_*`` surface never touches the node's
    measurement RNG.
    """
    grid = node.cpu.available_frequencies()
    return solve_frequency(
        grid,
        [node.true_power_w(workload, f) for f in grid],
        [node.true_runtime_s(workload, f) for f in grid],
        cap_ghz=cap_ghz,
    )


def _chunk_body_offsets(container) -> List[Tuple[int, int]]:
    """(start, size) of every chunk body inside ``container.to_bytes()``."""
    from repro.compressors.chunked import (
        _CHUNK_PREFIX_BYTES,
        _FIXED_HEADER_BYTES,
    )

    offsets = []
    cursor = _FIXED_HEADER_BYTES + 8 * len(container.shape)
    for chunk in container.chunks:
        size = chunk.nbytes
        offsets.append((cursor + _CHUNK_PREFIX_BYTES, size))
        cursor += _CHUNK_PREFIX_BYTES + size
    return offsets
