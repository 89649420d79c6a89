"""Cluster-level power-cap controller: measure, allocate, actuate.

The layer above the per-node DVFS governor. A fleet-wide watt budget is
split into a reserve for the shared NFS server plus per-node watt caps
(:mod:`repro.powercap.allocation`); each node's watt cap is then
inverted through its fitted ``P(f) = a * f**b + c`` curve
(:meth:`PowerCurve.frequency_for_power`) into a ``cap_ghz`` ceiling
that callers push down through the existing
``Governor.decide(cap_ghz=...)`` hook.

The controller re-solves the allocation on *epochs*: node join, node
leave (a dead node's watts redistribute on that epoch), phase change
(compress and write draw very different power at the same clock), and
explicit requests. Demand estimates for the proportional policy come
in through :meth:`ClusterCapController.record_demand`.

Every epoch appends a canonical trace entry; :meth:`report` seals the
trace with a sha256 receipt, the same determinism contract the adaptive
governor keeps: two runs with the same fleet, events and budget must
produce byte-identical traces.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.cache.fingerprint import canonical_json
from repro.hardware.cpu import CpuSpec
from repro.hardware.powercurves import PowerCurve
from repro.hardware.workload import (
    CODECS,
    FREQUENCY_SENSITIVITY,
    WorkloadKind,
    stage_kind,
)
from repro.powercap.allocation import (
    ALLOCATION_POLICIES,
    DEFAULT_CAP_HYSTERESIS,
    NodePowerModel,
    allocate_budget,
    allocation_makespan,
    apply_hysteresis,
    check_budget_w,
)
from repro.utils.validation import check_in_range, check_nonnegative

__all__ = [
    "DEFAULT_NFS_RESERVE_W",
    "POWERCAP_PHASES",
    "NodeCap",
    "PowercapReport",
    "ClusterCapController",
    "node_power_model",
    "cap_ghz_for_watts",
    "phase_caps_for_budget",
]

#: Default watts held back for the shared NFS server before splitting
#: the rest across compute nodes. Sized for the paper's single-server
#: testbed: a low-power storage box under sustained sequential writes.
DEFAULT_NFS_RESERVE_W = 40.0

POWERCAP_PHASES: Tuple[str, ...] = ("compress", "write", "idle")

#: Recorded watts kept per node; its demand is their mean.
_DEMAND_WINDOW = 8

_EPS = 1e-9


def _canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _phase_name(phase) -> str:
    name = str(getattr(phase, "value", phase))
    if name not in POWERCAP_PHASES:
        raise ValueError(
            f"unknown phase {name!r}; known: {', '.join(POWERCAP_PHASES)}"
        )
    return name


def _phase_kind(phase: str, codec: Optional[str]) -> WorkloadKind:
    """The phase's power-curve kind; a compress phase that names no
    codec is modeled as SZ, and idle nodes pay the write-path floor."""
    try:
        return stage_kind(phase, codec)
    except KeyError:
        raise ValueError(
            f"unknown codec {codec!r}; known: {', '.join(CODECS)}"
        ) from None


def node_power_model(
    node_id: str,
    cpu: CpuSpec,
    power_curve: PowerCurve,
    phase: str = "compress",
    work: float = 1.0,
    codec: Optional[str] = None,
) -> NodePowerModel:
    """Discretize a node's P(f) curve into a :class:`NodePowerModel`.

    The grid is the CPU's DVFS grid; power per point comes from the
    node's curve for the phase's workload kind; the leading-loads
    sensitivity comes from :data:`FREQUENCY_SENSITIVITY` for the
    (kind, arch) pair, falling back to 0.5 for extension CPUs.
    """
    phase = _phase_name(phase)
    kind = _phase_kind(phase, codec)
    grid = tuple(float(f) for f in cpu.available_frequencies())
    power = tuple(power_curve.power_watts(cpu, f, kind) for f in grid)
    sensitivity = FREQUENCY_SENSITIVITY.get((kind, cpu.arch), 0.5)
    return NodePowerModel(
        node_id=node_id,
        grid=grid,
        power_w=power,
        work=float(work),
        sensitivity=sensitivity,
    )


def cap_ghz_for_watts(
    cpu: CpuSpec,
    power_curve: PowerCurve,
    watts: float,
    phase: str = "compress",
    codec: Optional[str] = None,
) -> Tuple[float, bool]:
    """Invert the phase's P(f) curve: ``(cap_ghz, infeasible)``.

    The frequency is floor-snapped to the DVFS grid (a cap must never
    round *up* over the watt budget). ``infeasible`` is True when the
    watt cap lies below the floor power — the node will run at fmin
    anyway, and the governor layer records ``capped_below_fmin``.
    """
    phase = _phase_name(phase)
    kind = _phase_kind(phase, codec)
    floor_w = power_curve.power_watts(cpu, cpu.fmin_ghz, kind)
    infeasible = watts < floor_w - _EPS
    raw = power_curve.frequency_for_power(cpu, watts, kind)
    feasible = [f for f in cpu.available_frequencies() if f <= raw + 1e-6]
    cap_ghz = float(feasible[-1]) if feasible else cpu.fmin_ghz
    return cap_ghz, infeasible


def phase_caps_for_budget(
    cpu: CpuSpec,
    power_curve: PowerCurve,
    budget_w: float,
    codec: Optional[str] = None,
) -> Dict[str, float]:
    """Per-phase governor frequency caps for one node under *budget_w*.

    The single-node degenerate case of the cluster allocation: the
    whole budget is the node's watt cap in every phase; each phase
    inverts its own curve. Infeasible phases (budget below the phase's
    floor power) map to ``0.0`` — passing that to
    ``Governor.decide(cap_ghz=0.0)`` pins fmin and records the
    ``capped_below_fmin`` tag.
    """
    budget_w = check_budget_w(budget_w)
    caps: Dict[str, float] = {}
    for phase in ("compress", "write"):
        cap_ghz, infeasible = cap_ghz_for_watts(
            cpu, power_curve, budget_w, phase, codec=codec
        )
        caps[phase] = 0.0 if infeasible else cap_ghz
    return caps


@dataclass(frozen=True)
class NodeCap:
    """One node's cap for the current epoch."""

    node_id: str
    cap_w: float
    cap_ghz: float
    #: The watt cap demands less than the node's DVFS floor can deliver.
    infeasible: bool = False

    @property
    def governor_cap_ghz(self) -> float:
        """Value to hand ``Governor.decide(cap_ghz=...)``.

        Infeasible caps pass 0.0 — below fmin — so the governor pins
        the floor *and* records its ``capped_below_fmin`` tag, instead
        of the controller silently rewriting the cap to fmin.
        """
        return 0.0 if self.infeasible else self.cap_ghz


@dataclass(frozen=True)
class PowercapReport:
    """Sealed summary of a controller's run: caps + trace receipt."""

    policy: str
    budget_w: float
    nfs_reserve_w: float
    epochs: int
    phase: str
    caps: Tuple[Tuple[str, float, float], ...]  # (node_id, cap_w, cap_ghz)
    infeasible: Tuple[str, ...]
    makespan: float
    trace_sha256: str


class ClusterCapController:
    """Splits a fleet watt budget across nodes plus the NFS reserve.

    Thread-safe: every public method holds the controller's lock, so
    callers may share one controller across threads (joins, leaves,
    demand and phase announcements in any interleaving).
    """

    def __init__(
        self,
        budget_w: float,
        policy: str = "waterfill",
        nfs_reserve_w: float = DEFAULT_NFS_RESERVE_W,
        hysteresis: float = DEFAULT_CAP_HYSTERESIS,
    ) -> None:
        self.budget_w = check_budget_w(budget_w)
        if policy not in ALLOCATION_POLICIES:
            raise ValueError(
                f"unknown allocation policy {policy!r}; "
                f"known: {', '.join(ALLOCATION_POLICIES)}"
            )
        self.policy = policy
        check_nonnegative(nfs_reserve_w, "nfs_reserve_w")
        if nfs_reserve_w >= budget_w:
            raise ValueError(
                f"nfs_reserve_w={nfs_reserve_w} leaves no budget for compute "
                f"nodes (budget_w={budget_w})"
            )
        self.nfs_reserve_w = float(nfs_reserve_w)
        check_in_range(hysteresis, 0.0, 1.0, "hysteresis")
        self.hysteresis = float(hysteresis)
        self._lock = threading.RLock()
        # node_id -> (cpu, power_curve, work)
        self._nodes: Dict[str, Tuple[CpuSpec, PowerCurve, float]] = {}
        # node_id -> canonical JSON of its (cpu, curve): nodes with equal
        # keys share watt->GHz inversions.
        self._curve_keys: Dict[str, str] = {}
        # node_id -> phase -> model, built on the node's first epoch in
        # that phase; dropped on leave and when a re-join changes work.
        self._models: Dict[str, Dict[str, NodePowerModel]] = {}
        # curve key -> (phase, watts) -> (cap_ghz, infeasible); dropped
        # when the last node with that key leaves.
        self._inversions: Dict[str, Dict[Tuple[str, float], Tuple[float, bool]]] = {}
        self._demand: Dict[str, Deque[float]] = {}
        self._caps: Dict[str, NodeCap] = {}
        self._phase = "compress"
        self._epoch = 0
        self._last_makespan = 0.0
        self.trace: List[dict] = []
        # Running sha256 of trace_json(): "[" then each entry's canonical
        # JSON as it is appended, comma-separated; report() closes a copy.
        self._trace_hash = hashlib.sha256(b"[")

    # -- fleet membership ------------------------------------------------

    def join(
        self,
        node_id: str,
        cpu: CpuSpec,
        power_curve: PowerCurve,
        work: float = 1.0,
    ) -> Dict[str, NodeCap]:
        """Register a node and re-solve the allocation.

        Joining an already-registered node_id only updates its work
        weight (idempotent re-announcement, no epoch). The curve is
        treated as immutable from here on: the node's models and
        inversions are derived from it once and reused every epoch.
        """
        node_id = str(node_id)
        if not node_id:
            raise ValueError("node_id must be a non-empty string")
        work = float(work)
        with self._lock:
            if node_id in self._nodes:
                old_cpu, old_curve, old_work = self._nodes[node_id]
                if work != old_work:
                    self._nodes[node_id] = (old_cpu, old_curve, work)
                    self._models.pop(node_id, None)
                return self.caps()
            curve_key = canonical_json([cpu, power_curve])
            self._nodes[node_id] = (cpu, power_curve, work)
            self._curve_keys[node_id] = curve_key
            self._demand.setdefault(
                node_id, deque(maxlen=_DEMAND_WINDOW)
            )
            return self._reallocate_locked("join")

    def leave(self, node_id: str) -> Dict[str, NodeCap]:
        """Drop a node (death or drain); its watts redistribute now."""
        node_id = str(node_id)
        with self._lock:
            if node_id not in self._nodes:
                raise KeyError(f"unknown node_id {node_id!r}")
            del self._nodes[node_id]
            self._models.pop(node_id, None)
            curve_key = self._curve_keys.pop(node_id)
            if curve_key not in self._curve_keys.values():
                self._inversions.pop(curve_key, None)
            self._demand.pop(node_id, None)
            self._caps.pop(node_id, None)
            return self._reallocate_locked("leave")

    def node_ids(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._nodes))

    # -- demand ----------------------------------------------------------

    def record_demand(self, node_id: str, power_w: float) -> None:
        """Record a node's observed watts (the proportional policy's demand)."""
        node_id = str(node_id)
        check_budget_w(power_w, "power_w")
        with self._lock:
            if node_id not in self._nodes:
                raise KeyError(f"unknown node_id {node_id!r}")
            self._demand[node_id].append(float(power_w))

    def demands(self) -> Dict[str, float]:
        """Per-node demand estimate: mean of its last recorded watts."""
        with self._lock:
            return {
                node_id: sum(window) / len(window)
                for node_id, window in sorted(self._demand.items())
                if window
            }

    # -- epochs ----------------------------------------------------------

    @property
    def phase(self) -> str:
        return self._phase

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def last_makespan(self) -> float:
        return self._last_makespan

    def begin_phase(self, phase) -> Dict[str, NodeCap]:
        """Announce a phase boundary; re-solves if the phase changed."""
        phase = _phase_name(phase)
        with self._lock:
            if phase == self._phase:
                return self.caps()
            self._phase = phase
            return self._reallocate_locked("phase-change")

    def reallocate(self, event: str = "request") -> Dict[str, NodeCap]:
        """Force an allocation epoch (e.g. fresh demand telemetry)."""
        with self._lock:
            return self._reallocate_locked(str(event))

    def caps(self) -> Dict[str, NodeCap]:
        with self._lock:
            return dict(self._caps)

    def cap_for(self, node_id: str) -> NodeCap:
        with self._lock:
            return self._caps[str(node_id)]

    def _model_locked(self, node_id: str) -> NodePowerModel:
        """The node's model for the current phase, built once."""
        models = self._models.setdefault(node_id, {})
        model = models.get(self._phase)
        if model is None:
            cpu, curve, work = self._nodes[node_id]
            model = models[self._phase] = node_power_model(
                node_id, cpu, curve, phase=self._phase, work=work
            )
        return model

    def _cap_ghz_locked(self, node_id: str, cap_w: float) -> Tuple[float, bool]:
        """Memoized :func:`cap_ghz_for_watts` for the current phase."""
        memo = self._inversions.setdefault(self._curve_keys[node_id], {})
        key = (self._phase, cap_w)
        hit = memo.get(key)
        if hit is None:
            cpu, curve, _ = self._nodes[node_id]
            hit = memo[key] = cap_ghz_for_watts(cpu, curve, cap_w, self._phase)
        return hit

    def _reallocate_locked(self, event: str) -> Dict[str, NodeCap]:
        from repro.observability import get_registry, get_tracer

        models = [self._model_locked(node_id) for node_id in sorted(self._nodes)]
        node_budget = self.budget_w - self.nfs_reserve_w
        demands = {
            node_id: sum(window) / len(window)
            for node_id, window in sorted(self._demand.items())
            if window
        }
        with get_tracer().span(
            "powercap.allocate",
            event=event,
            policy=self.policy,
            phase=self._phase,
            nodes=len(models),
        ) as sp:
            watts = allocate_budget(self.policy, models, node_budget, demands)
            if self._caps and event == "phase-change":
                previous = {
                    node_id: cap.cap_w for node_id, cap in self._caps.items()
                }
                watts = apply_hysteresis(
                    previous, watts, node_budget, self.hysteresis
                )
            caps: Dict[str, NodeCap] = {}
            for model in models:
                cap_w = watts[model.node_id]
                if cap_w <= 0:
                    cpu = self._nodes[model.node_id][0]
                    cap_ghz, infeasible = cpu.fmin_ghz, True
                else:
                    cap_ghz, infeasible = self._cap_ghz_locked(
                        model.node_id, cap_w
                    )
                caps[model.node_id] = NodeCap(
                    node_id=model.node_id,
                    cap_w=cap_w,
                    cap_ghz=cap_ghz,
                    infeasible=infeasible,
                )
            makespan = allocation_makespan(models, watts)
            sp.set(makespan=round(makespan, 6))
        self._caps = caps
        self._epoch += 1
        self._last_makespan = makespan
        self._append_trace(
            {
                "epoch": self._epoch,
                "event": event,
                "phase": self._phase,
                "policy": self.policy,
                "budget_w": round(self.budget_w, 6),
                "nfs_reserve_w": round(self.nfs_reserve_w, 6),
                "nodes": len(models),
                "makespan": round(makespan, 6),
                "caps": {
                    node_id: {
                        "watts": round(cap.cap_w, 6),
                        "cap_ghz": round(cap.cap_ghz, 6),
                        "infeasible": cap.infeasible,
                    }
                    for node_id, cap in sorted(caps.items())
                },
            }
        )
        registry = get_registry()
        registry.counter(
            "repro_powercap_epochs_total",
            {"policy": self.policy, "event": event},
            help="allocation epochs run by cluster power-cap controllers",
        ).inc()
        infeasible_count = sum(1 for cap in caps.values() if cap.infeasible)
        if infeasible_count:
            registry.counter(
                "repro_powercap_infeasible_caps_total",
                {"policy": self.policy},
                help="node caps below the DVFS floor power at allocation time",
            ).inc(infeasible_count)
        return dict(caps)

    # -- receipts --------------------------------------------------------

    def _append_trace(self, entry: dict) -> None:
        if self.trace:
            self._trace_hash.update(b",")
        self._trace_hash.update(_canonical_json(entry).encode())
        self.trace.append(entry)

    def trace_json(self) -> str:
        """Canonical JSON of the decision trace (the hashed bytes)."""
        with self._lock:
            return _canonical_json(self.trace)

    def report(self) -> PowercapReport:
        """Seal the run: current caps plus the sha256 trace receipt."""
        with self._lock:
            sealed = self._trace_hash.copy()
            sealed.update(b"]")
            digest = sealed.hexdigest()
            return PowercapReport(
                policy=self.policy,
                budget_w=self.budget_w,
                nfs_reserve_w=self.nfs_reserve_w,
                epochs=self._epoch,
                phase=self._phase,
                caps=tuple(
                    (node_id, cap.cap_w, cap.cap_ghz)
                    for node_id, cap in sorted(self._caps.items())
                ),
                infeasible=tuple(
                    node_id
                    for node_id, cap in sorted(self._caps.items())
                    if cap.infeasible
                ),
                makespan=self._last_makespan,
                trace_sha256=digest,
            )
