"""Watt-budget allocation policies for the cluster power-cap layer.

Given a fleet watt budget (what remains after the NFS reserve) and one
:class:`NodePowerModel` per node — the node's DVFS grid, the power each
grid point draws for the active phase, and a leading-loads runtime
model — each policy returns per-node watt caps with ``sum(caps) <=
budget``. Three policies, in increasing sophistication:

* :func:`uniform_allocation` — equal shares, surplus from saturated
  nodes (those that cannot draw their share even at the top clock)
  redistributed among the rest;
* :func:`proportional_allocation` — shares proportional to observed
  demand (a telemetry-window mean per node), same saturation handling;
* :func:`waterfill_allocation` — the makespan argmin: repeatedly raise
  the current bottleneck node's cap to its next grid power threshold
  while the budget allows, which solves
  ``min max_i t_i(cap_i)  s.t.  sum(cap_i) <= budget`` exactly over the
  discrete frequency grid. The raises are taken in one sorted array
  pass over every node's grid points, not one at a time.

Every policy iterates nodes in sorted ``node_id`` order, so the result
is independent of input permutation — part of the subsystem's
determinism contract (the controller hashes its decision trace).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_in_range, check_positive

__all__ = [
    "ALLOCATION_POLICIES",
    "DEFAULT_CAP_HYSTERESIS",
    "NodePowerModel",
    "allocate_budget",
    "uniform_allocation",
    "proportional_allocation",
    "waterfill_allocation",
    "allocation_makespan",
    "apply_hysteresis",
    "check_budget_w",
]

ALLOCATION_POLICIES: Tuple[str, ...] = ("uniform", "proportional", "waterfill")

#: Relative cap change below which the controller keeps the previous
#: cap — stops caps from thrashing when phase boundaries re-solve the
#: allocation to an almost identical answer.
DEFAULT_CAP_HYSTERESIS = 0.05

_EPS = 1e-9


def check_budget_w(value, name: str = "budget_w") -> float:
    """Validate a watt budget: finite, positive, numeric.

    Mirrors the ``cpufreq_set`` / ``frequency_for_power`` non-finite
    guards: ``ValueError`` on NaN/inf/non-numbers, not a silent clamp.
    """
    try:
        finite = math.isfinite(value)
    except TypeError:
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class NodePowerModel:
    """One node's discrete frequency/power/runtime model for one phase.

    ``grid`` is the node's DVFS grid in GHz (strictly ascending) and
    ``power_w[i]`` the package watts it draws at ``grid[i]`` for the
    active phase — typically sampled from its fitted
    ``P(f) = a * f**b + c`` curve. ``work`` scales runtime (relative
    units are fine: only ratios matter to the makespan argmin) and
    ``sensitivity`` is the leading-loads compute fraction ``s`` in
    ``t(f) = work * ((1 - s) + s * fmax / f)``.

    Construction also fills two read-only ``float64`` arrays, one entry
    per grid point, that the allocation policies read instead of
    recomputing them per raise:

    * ``runtimes[i]`` — the runtime at ``grid[i]`` (what
      :meth:`runtime_at` returns);
    * ``raise_costs_w[i]`` — the watts one water-filling raise from
      ``grid[i]`` to ``grid[i + 1]`` adds to the spend:
      ``power_w[i + 1]`` minus the cap held at ``grid[i]``, which is 0.0
      before the node's first raise and ``power_w[i]`` after it. The top
      grid point has no raise; its cost is ``inf``.
    """

    node_id: str
    grid: Tuple[float, ...]
    power_w: Tuple[float, ...]
    work: float = 1.0
    sensitivity: float = 0.55

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(float(f) for f in self.grid))
        object.__setattr__(self, "power_w", tuple(float(p) for p in self.power_w))
        if not self.node_id:
            raise ValueError("node_id must be a non-empty string")
        if not self.grid:
            raise ValueError("grid must be non-empty")
        if len(self.grid) != len(self.power_w):
            raise ValueError(
                f"grid and power_w must have the same length, got "
                f"{len(self.grid)} vs {len(self.power_w)}"
            )
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly ascending")
        if any(f <= 0 for f in self.grid):
            raise ValueError("grid frequencies must be positive")
        for p in self.power_w:
            check_budget_w(p, "power_w entry")
        if any(b < a for a, b in zip(self.power_w, self.power_w[1:])):
            raise ValueError("power_w must be non-decreasing along the grid")
        check_positive(self.work, "work")
        check_in_range(self.sensitivity, 0.0, 1.0, "sensitivity")
        s = self.sensitivity
        # Elementwise, the same float operations in the same order as
        # the scalar formula t(f) above.
        runtimes = self.work * ((1.0 - s) + s * self.grid[-1] / np.array(self.grid))
        # The cap held at each grid point (0.0 before the first raise),
        # then inf past the top; a raise costs the next cap minus this one.
        held = np.array((0.0,) + self.power_w[1:] + (math.inf,))
        raise_costs = held[1:] - held[:-1]
        for name, values in (("runtimes", runtimes), ("raise_costs_w", raise_costs)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @property
    def min_power(self) -> float:
        """Watts at the DVFS floor — the least a running node can draw."""
        return self.power_w[0]

    @property
    def max_power(self) -> float:
        """Watts at the top clock — more budget than this is wasted."""
        return self.power_w[-1]

    def runtime_at(self, index: int) -> float:
        """Leading-loads runtime (work units) at grid point *index*."""
        return float(self.runtimes[index])

    def index_for_cap(self, cap_w: float) -> int:
        """Highest grid index whose power fits under *cap_w*.

        Caps below the floor power clamp to index 0: the node still
        physically runs at fmin (the governor tags such decisions
        ``capped_below_fmin`` rather than refusing to run).
        """
        return max(bisect_right(self.power_w, cap_w + _EPS) - 1, 0)

    def runtime_for_cap(self, cap_w: float) -> float:
        """Modeled runtime when the node runs as fast as *cap_w* allows."""
        return self.runtime_at(self.index_for_cap(cap_w))


def _sorted_nodes(nodes: Sequence[NodePowerModel]) -> Tuple[NodePowerModel, ...]:
    ordered = tuple(sorted(nodes, key=lambda n: n.node_id))
    ids = [n.node_id for n in ordered]
    for a, b in zip(ids, ids[1:]):
        if a == b:
            raise ValueError(f"duplicate node_id {a!r}")
    return ordered


def _redistribute(
    ordered: Sequence[NodePowerModel],
    budget_w: float,
    weight: Mapping[str, float],
) -> Dict[str, float]:
    """Weighted shares with saturation: a node never receives more than
    its top-clock power; freed surplus re-splits among the rest by the
    same weights. Converges in <= len(ordered) rounds."""
    caps: Dict[str, float] = {}
    active = list(ordered)
    remaining = budget_w
    while active:
        total_w = sum(weight[n.node_id] for n in active)
        if total_w <= 0:
            share = {n.node_id: max(remaining, 0.0) / len(active) for n in active}
        else:
            share = {
                n.node_id: max(remaining, 0.0) * weight[n.node_id] / total_w
                for n in active
            }
        saturated = [n for n in active if n.max_power <= share[n.node_id] + _EPS]
        if not saturated:
            caps.update(share)
            break
        for n in saturated:
            caps[n.node_id] = n.max_power
            remaining -= n.max_power
        active = [n for n in active if n.node_id not in caps]
    return caps


def uniform_allocation(
    nodes: Sequence[NodePowerModel], budget_w: float
) -> Dict[str, float]:
    """Equal watt share per node, saturated surplus redistributed."""
    budget_w = check_budget_w(budget_w)
    ordered = _sorted_nodes(nodes)
    if not ordered:
        return {}
    return _redistribute(ordered, budget_w, {n.node_id: 1.0 for n in ordered})


def proportional_allocation(
    nodes: Sequence[NodePowerModel],
    budget_w: float,
    demands: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Watt shares proportional to each node's observed power demand.

    *demands* maps ``node_id`` to watts (e.g. the mean of a telemetry
    window). Nodes with no demand sample — or a non-finite/non-positive
    one — fall back to their top-clock power, which makes the
    no-telemetry case a capability-weighted split rather than a crash.
    """
    budget_w = check_budget_w(budget_w)
    ordered = _sorted_nodes(nodes)
    if not ordered:
        return {}
    demands = demands or {}
    weight: Dict[str, float] = {}
    for n in ordered:
        d = demands.get(n.node_id)
        try:
            ok = d is not None and math.isfinite(d) and d > 0
        except TypeError:
            ok = False
        weight[n.node_id] = float(d) if ok else n.max_power
    return _redistribute(ordered, budget_w, weight)


def waterfill_allocation(
    nodes: Sequence[NodePowerModel], budget_w: float
) -> Dict[str, float]:
    """Makespan-minimizing allocation over the discrete frequency grids.

    Greedy threshold water-fill. Every node starts from a zero cap — a
    cap is a ceiling, not a grant, and a node capped below its floor
    power still runs pinned at fmin — then the current bottleneck (the
    node with the largest modeled runtime; ties broken by smallest
    ``node_id``) has its cap raised to its next grid power threshold,
    as long as that fits the budget. This is exact: the makespan is the
    max of per-node runtimes, only raising the current bottleneck can
    lower it, and its next threshold is the cheapest cap that does, so
    the greedy reaches ``T* = min { T : sum_i cost_i(T) <= budget }``.
    Any feasible allocation (uniform and proportional included) has
    makespan >= T*.

    Leftover budget is then spent rather than stranded: nodes the
    argmin left at zero get their floor watts (``min_power``) admitted
    when affordable, then every node is raised toward its top grid
    threshold in ``node_id`` order while the budget lasts. Raising a
    cap never increases a runtime, so the surplus pass keeps ``T*``
    while turning spare watts into headroom for the non-bottleneck
    nodes.

    The greedy phase runs as array passes over the ``N * G`` (node,
    grid point) events (``G`` = grid size), not one Python step per
    raise. A node's runtime never rises with its clock, so the
    bottleneck sequence is the merge of the nodes' runtime sequences:
    every event sorted by ``(-runtime, node rank, grid index)``. The
    events are laid out in (node rank, grid index) order, so one
    stable sort on ``-runtime`` gives that order. A cumulative sum of
    the events' ``raise_costs_w`` in that order makes the same float
    additions as raising one bottleneck at a time, and the greedy stops
    at the first event it cannot afford; a node at its top grid point
    costs ``inf``, which stops it there too. Each node's grid index is
    then the number of its events before the stop.
    """
    budget_w = check_budget_w(budget_w)
    ordered = _sorted_nodes(nodes)
    if not ordered:
        return {}
    order = np.argsort(
        -np.concatenate([n.runtimes for n in ordered]), kind="stable"
    )
    spend = np.cumsum(np.concatenate([n.raise_costs_w for n in ordered])[order])
    # spend never falls (costs are >= 0), so a bisection finds the stop.
    raised = int(np.searchsorted(spend, budget_w + _EPS, side="right"))
    node_of_event = np.repeat(np.arange(len(ordered)), [len(n.grid) for n in ordered])
    levels = np.bincount(node_of_event[order[:raised]], minlength=len(ordered))
    spent = float(spend[raised - 1]) if raised else 0.0
    caps: Dict[str, float] = {}
    for n, index in zip(ordered, levels.tolist()):
        if index:
            cap = n.power_w[index]
        elif spent + n.min_power > budget_w + _EPS:
            # A cap below the floor draw is equivalent to zero (the node
            # is pinned at fmin either way), so admit the floor whole or
            # not at all.
            caps[n.node_id] = 0.0
            continue
        else:
            cap = n.min_power
            spent += n.min_power
        while index + 1 < len(n.grid):
            delta = n.power_w[index + 1] - cap
            if spent + delta > budget_w + _EPS:
                break
            index += 1
            cap = n.power_w[index]
            spent += delta
        caps[n.node_id] = cap
    return caps


def allocate_budget(
    policy: str,
    nodes: Sequence[NodePowerModel],
    budget_w: float,
    demands: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Dispatch to one of :data:`ALLOCATION_POLICIES` by name."""
    if policy == "uniform":
        return uniform_allocation(nodes, budget_w)
    if policy == "proportional":
        return proportional_allocation(nodes, budget_w, demands)
    if policy == "waterfill":
        return waterfill_allocation(nodes, budget_w)
    raise ValueError(
        f"unknown allocation policy {policy!r}; "
        f"known: {', '.join(ALLOCATION_POLICIES)}"
    )


def allocation_makespan(
    nodes: Sequence[NodePowerModel], caps: Mapping[str, float]
) -> float:
    """Modeled synchronized-phase makespan under watt caps *caps*.

    Nodes missing from *caps* count as cap 0 (pinned at fmin).
    """
    ordered = _sorted_nodes(nodes)
    if not ordered:
        return 0.0
    return max(n.runtime_for_cap(caps.get(n.node_id, 0.0)) for n in ordered)


def apply_hysteresis(
    previous: Mapping[str, float],
    candidate: Mapping[str, float],
    budget_w: float,
    hysteresis: float = DEFAULT_CAP_HYSTERESIS,
) -> Dict[str, float]:
    """Suppress sub-*hysteresis* relative cap moves.

    A node keeps its previous cap when the candidate moves it by no
    more than ``hysteresis`` (relative); nodes that joined or left take
    the candidate unconditionally. If the blended caps would exceed the
    budget (the fleet changed under us), fall back to the candidate
    wholesale — budget safety beats stability.
    """
    check_in_range(hysteresis, 0.0, 1.0, "hysteresis")
    budget_w = check_budget_w(budget_w)
    blended: Dict[str, float] = {}
    for node_id, new_cap in candidate.items():
        old = previous.get(node_id)
        if old is not None and abs(new_cap - old) <= hysteresis * max(old, _EPS):
            blended[node_id] = old
        else:
            blended[node_id] = new_cap
    if sum(blended.values()) > budget_w + _EPS:
        return dict(candidate)
    return blended
