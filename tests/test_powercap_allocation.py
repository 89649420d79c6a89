"""Allocation-policy properties: budget safety, determinism, optimality.

Hypothesis drives randomized fleets through every allocation policy and
pins the invariants the cluster controller relies on: caps never exceed
the budget, node order never changes the answer, water-filling never
loses to uniform on the modeled makespan, and redistribution after a
node loss conserves the budget.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cpu import BROADWELL_D1548
from repro.hardware.powercurves import CalibratedPowerCurve
from repro.powercap.allocation import (
    _EPS,
    ALLOCATION_POLICIES,
    NodePowerModel,
    _sorted_nodes,
    allocate_budget,
    allocation_makespan,
    apply_hysteresis,
    check_budget_w,
    proportional_allocation,
    uniform_allocation,
    waterfill_allocation,
)
from repro.powercap.controller import node_power_model

# A realistic little DVFS grid: ascending frequencies, non-decreasing
# power.  Work/sensitivity vary per node so makespans differ.
GRID = (0.8, 1.2, 1.6, 2.0)


def node(i, power_scale=1.0, work=1.0, sensitivity=0.55):
    power = tuple(power_scale * (8.0 + 6.0 * f) for f in GRID)
    return NodePowerModel(f"n{i:02d}", GRID, power, work=work,
                          sensitivity=sensitivity)


@st.composite
def fleets(draw, min_size=1, max_size=8):
    n = draw(st.integers(min_size, max_size))
    return [
        node(
            i,
            power_scale=draw(st.floats(0.5, 2.0)),
            work=draw(st.floats(0.1, 4.0)),
            sensitivity=draw(st.floats(0.0, 1.0)),
        )
        for i in range(n)
    ]


budgets = st.floats(1.0, 500.0)


class TestBudgetValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"),
                                     float("inf"), "12", None])
    def test_rejects_non_finite_and_non_positive(self, bad):
        with pytest.raises(ValueError):
            check_budget_w(bad, "b")

    def test_passes_positive_floats_through(self):
        assert check_budget_w(120, "b") == 120.0


class TestNodePowerModel:
    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            NodePowerModel("n", (2.0, 1.0), (10.0, 20.0))

    def test_rejects_decreasing_power(self):
        with pytest.raises(ValueError):
            NodePowerModel("n", (1.0, 2.0), (20.0, 10.0))

    def test_index_for_cap_clamps_to_floor(self):
        m = node(0)
        # Below the floor power the node still runs at the lowest
        # grid point: a cap is a ceiling, not an off switch.
        assert m.index_for_cap(0.0) == 0
        assert m.index_for_cap(m.max_power + 100.0) == len(GRID) - 1

    def test_runtime_decreases_with_frequency(self):
        m = node(0, sensitivity=0.8)
        runtimes = [m.runtime_at(i) for i in range(len(GRID))]
        assert runtimes == sorted(runtimes, reverse=True)


class TestBudgetSafety:
    @given(fleets(), budgets, st.sampled_from(ALLOCATION_POLICIES))
    @settings(max_examples=200, deadline=None)
    def test_caps_never_exceed_budget(self, fleet, budget, policy):
        caps = allocate_budget(policy, fleet, budget)
        assert set(caps) == {m.node_id for m in fleet}
        assert sum(caps.values()) <= budget + 1e-6
        assert all(c >= 0.0 for c in caps.values())

    @given(fleets(min_size=2), budgets)
    @settings(max_examples=100, deadline=None)
    def test_generous_budget_grants_every_max(self, fleet, budget):
        rich = sum(m.max_power for m in fleet) + budget
        for policy in ALLOCATION_POLICIES:
            caps = allocate_budget(policy, fleet, rich)
            for m in fleet:
                assert caps[m.node_id] == pytest.approx(m.max_power)


class TestDeterminism:
    @given(fleets(min_size=2), budgets, st.sampled_from(ALLOCATION_POLICIES),
           st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_node_order_never_changes_the_answer(self, fleet, budget,
                                                 policy, rng):
        shuffled = list(fleet)
        rng.shuffle(shuffled)
        assert (allocate_budget(policy, fleet, budget)
                == allocate_budget(policy, shuffled, budget))

    def test_duplicate_node_ids_are_rejected(self):
        twins = [node(1), node(1)]
        with pytest.raises(ValueError, match="duplicate"):
            uniform_allocation(twins, 100.0)


class TestWaterfillDominatesUniform:
    @given(fleets(min_size=2), budgets)
    @settings(max_examples=200, deadline=None)
    def test_makespan_never_worse_than_uniform(self, fleet, budget):
        wf = waterfill_allocation(fleet, budget)
        uni = uniform_allocation(fleet, budget)
        assert (allocation_makespan(fleet, wf)
                <= allocation_makespan(fleet, uni) + 1e-9)

    def test_waterfill_prioritizes_the_bottleneck(self):
        # One node carries 4x the work; with a budget that cannot lift
        # everyone, water-filling raises the heavy node first.
        fleet = [node(0, work=4.0, sensitivity=0.9),
                 node(1, work=1.0, sensitivity=0.9),
                 node(2, work=1.0, sensitivity=0.9)]
        tight = fleet[0].max_power + 2 * fleet[0].min_power
        caps = waterfill_allocation(fleet, tight)
        assert caps["n00"] >= caps["n01"]
        assert caps["n00"] >= caps["n02"]


class TestProportional:
    @given(fleets(min_size=2), budgets)
    @settings(max_examples=100, deadline=None)
    def test_missing_demands_fall_back_to_max_power(self, fleet, budget):
        assert (proportional_allocation(fleet, budget)
                == proportional_allocation(
                    fleet, budget,
                    demands={m.node_id: m.max_power for m in fleet}))

    def test_heavier_demand_draws_a_larger_cap(self):
        fleet = [node(0), node(1)]
        budget = fleet[0].max_power  # not enough for both
        caps = proportional_allocation(
            fleet, budget, demands={"n00": 30.0, "n01": 10.0})
        assert caps["n00"] > caps["n01"]

    def test_non_finite_demands_are_ignored(self):
        fleet = [node(0), node(1)]
        ok = proportional_allocation(fleet, 20.0)
        weird = proportional_allocation(
            fleet, 20.0, demands={"n00": float("nan"), "n01": -3.0})
        assert weird == ok


class TestRedistributionAfterLoss:
    @given(fleets(min_size=2), budgets, st.sampled_from(ALLOCATION_POLICIES))
    @settings(max_examples=150, deadline=None)
    def test_survivors_reclaim_the_budget(self, fleet, budget, policy):
        before = allocate_budget(policy, fleet, budget)
        survivors = fleet[1:]
        after = allocate_budget(policy, survivors, budget)
        assert sum(after.values()) <= budget + 1e-6
        # The dead node's watts go back to the pool: the survivors'
        # total never shrinks below what they already held.
        held = sum(before[m.node_id] for m in survivors)
        assert sum(after.values()) >= held - 1e-6

    @given(fleets(min_size=2), budgets)
    @settings(max_examples=100, deadline=None)
    def test_uniform_caps_are_monotone_after_a_leave(self, fleet, budget):
        before = uniform_allocation(fleet, budget)
        after = uniform_allocation(fleet[1:], budget)
        for m in fleet[1:]:
            assert after[m.node_id] >= before[m.node_id] - 1e-9


class TestHysteresis:
    def test_small_moves_are_suppressed(self):
        prev = {"a": 100.0, "b": 50.0}
        cand = {"a": 103.0, "b": 20.0}
        out = apply_hysteresis(prev, cand, budget_w=200.0, hysteresis=0.05)
        assert out["a"] == 100.0  # 3% move: held
        assert out["b"] == 20.0   # 60% move: taken

    def test_falls_back_when_blend_breaks_the_budget(self):
        prev = {"a": 100.0, "b": 100.0}
        cand = {"a": 98.0, "b": 40.0}
        # Keeping a=100 would spend 140 > 130: the candidate wins
        # wholesale so the budget invariant survives.
        out = apply_hysteresis(prev, cand, budget_w=130.0, hysteresis=0.05)
        assert out == cand

    def test_new_nodes_pass_straight_through(self):
        out = apply_hysteresis({}, {"a": 10.0}, budget_w=20.0,
                               hysteresis=0.05)
        assert out == {"a": 10.0}


class TestMakespan:
    def test_empty_fleet_has_zero_makespan(self):
        assert allocation_makespan([], {}) == 0.0

    def test_makespan_is_the_slowest_node(self):
        fleet = [node(0, work=1.0), node(1, work=3.0)]
        caps = {m.node_id: m.max_power for m in fleet}
        assert allocation_makespan(fleet, caps) == pytest.approx(
            fleet[1].runtime_at(len(GRID) - 1))

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ValueError, match="unknown allocation policy"):
            allocate_budget("greedy", [node(0)], 50.0)

    def test_infeasible_budget_still_returns_finite_makespan(self):
        fleet = [node(0), node(1)]
        caps = waterfill_allocation(fleet, 1.0)
        span = allocation_makespan(fleet, caps)
        assert math.isfinite(span) and span > 0.0


def greedy_waterfill(nodes, budget_w, spends=None):
    """The rescanning greedy water-fill, kept verbatim as an oracle.

    Picks each bottleneck with a ``min()`` over every node, which makes
    one allocation cost O(N^2 * G); :func:`waterfill_allocation` must
    reproduce its raise sequence, and so its caps, exactly. A *spends*
    list receives the running spend after each greedy-phase raise.
    """
    budget_w = check_budget_w(budget_w)
    ordered = _sorted_nodes(nodes)
    if not ordered:
        return {}
    caps = {n.node_id: 0.0 for n in ordered}
    index = {n.node_id: 0 for n in ordered}
    spent = 0.0
    while True:
        bottleneck = min(
            ordered, key=lambda n: (-n.runtime_at(index[n.node_id]), n.node_id)
        )
        nid = bottleneck.node_id
        nxt = index[nid] + 1
        if nxt >= len(bottleneck.grid):
            break  # the bottleneck already runs at its top clock
        delta = bottleneck.power_w[nxt] - caps[nid]
        if spent + delta > budget_w + _EPS:
            break  # the one raise that could lower the makespan won't fit
        caps[nid] = bottleneck.power_w[nxt]
        index[nid] = nxt
        spent += delta
        if spends is not None:
            spends.append(spent)
    for n in ordered:
        nid = n.node_id
        if caps[nid] == 0.0:
            # A cap below the floor draw is equivalent to zero (the node
            # is pinned at fmin either way), so admit the floor whole or
            # not at all.
            if spent + n.min_power > budget_w + _EPS:
                continue
            caps[nid] = n.min_power
            spent += n.min_power
        while index[nid] + 1 < len(n.grid):
            nxt = index[nid] + 1
            delta = n.power_w[nxt] - caps[nid]
            if spent + delta > budget_w + _EPS:
                break
            caps[nid] = n.power_w[nxt]
            index[nid] = nxt
            spent += delta
    return caps


@st.composite
def grid_models(draw, node_id, sensitivity=None, max_size=12):
    """A node with its own grid: random steps, power with plateaus."""
    size = draw(st.integers(1, max_size))
    steps = draw(st.lists(st.floats(0.05, 0.5), min_size=size, max_size=size))
    grid, f = [], 0.6
    for step in steps:
        f += step
        grid.append(f)
    rises = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]),
                          min_size=size, max_size=size))
    power, p = [], draw(st.floats(4.0, 30.0))
    for rise in rises:
        p += rise
        power.append(p)
    if sensitivity is None:
        sensitivity = draw(st.floats(0.0, 1.0))
    return NodePowerModel(node_id, grid, power,
                          work=draw(st.floats(0.1, 4.0)),
                          sensitivity=sensitivity)


@st.composite
def oracle_fleets(draw):
    """Mixed fleets: own-grid nodes, identical nodes, flat runtimes."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["mixed", "identical", "flat"]))
    if kind == "identical":
        # Every key ties on runtime, so node_id alone breaks the ties.
        twin = draw(grid_models("n00"))
        return [NodePowerModel(f"n{i:02d}", twin.grid, twin.power_w,
                               work=twin.work, sensitivity=twin.sensitivity)
                for i in range(n)]
    sensitivity = 0.0 if kind == "flat" else None
    return [draw(grid_models(f"n{i:02d}", sensitivity)) for i in range(n)]


@st.composite
def mixed_size_fleets(draw):
    """Own-grid nodes of 1 to 25 grid points, single points included."""
    n = draw(st.integers(1, 8))
    sizes = st.one_of(st.sampled_from([1, 25]), st.integers(1, 25))
    return [draw(grid_models(f"n{i:02d}", max_size=draw(sizes)))
            for i in range(n)]


@st.composite
def tied_fleets(draw):
    """Identical nodes with sensitivity 0: every runtime of every node
    ties, so node_id and grid index alone order the raises."""
    twin = draw(grid_models("n00", sensitivity=0.0, max_size=25))
    return [NodePowerModel(f"n{i:02d}", twin.grid, twin.power_w,
                           work=twin.work, sensitivity=0.0)
            for i in range(draw(st.integers(1, 8)))]


@st.composite
def fleet_and_budget(draw, fleets=oracle_fleets()):
    fleet = draw(fleets)
    floor = sum(m.min_power for m in fleet)
    top = sum(m.max_power for m in fleet)
    regime = draw(st.sampled_from(["below-floor", "between", "above-max"]))
    if regime == "below-floor":
        budget = floor * draw(st.floats(0.01, 0.999))
    elif regime == "between":
        budget = floor + (top - floor) * draw(st.floats(0.0, 1.0))
    else:
        budget = top * draw(st.floats(1.0, 2.0))
    return fleet, budget


class TestWaterfillMatchesGreedyOracle:
    @given(fleet_and_budget())
    @settings(max_examples=400, deadline=None)
    def test_caps_equal_the_rescanning_greedy(self, case):
        fleet, budget = case
        assert waterfill_allocation(fleet, budget) == greedy_waterfill(
            fleet, budget)

    @given(fleets(), budgets)
    @settings(max_examples=200, deadline=None)
    def test_caps_equal_on_the_shared_grid(self, fleet, budget):
        assert waterfill_allocation(fleet, budget) == greedy_waterfill(
            fleet, budget)

    def test_identical_nodes_fill_in_node_id_order(self):
        fleet = [node(i) for i in range(4)]
        # Not enough for every node's second threshold: every raise is
        # a runtime tie, so the smaller node_id always wins it.
        budget = 3.5 * fleet[0].power_w[1]
        caps = waterfill_allocation(fleet, budget)
        assert caps == greedy_waterfill(fleet, budget)
        assert list(caps) == ["n00", "n01", "n02", "n03"]
        assert list(caps.values()) == sorted(caps.values(), reverse=True)
        assert caps["n00"] > caps["n03"]

    @given(fleet_and_budget(mixed_size_fleets()))
    @settings(max_examples=300, deadline=None)
    def test_caps_equal_across_mixed_grid_sizes(self, case):
        fleet, budget = case
        assert waterfill_allocation(fleet, budget) == greedy_waterfill(
            fleet, budget)

    @given(fleet_and_budget(tied_fleets()))
    @settings(max_examples=200, deadline=None)
    def test_caps_equal_when_every_runtime_ties(self, case):
        fleet, budget = case
        assert waterfill_allocation(fleet, budget) == greedy_waterfill(
            fleet, budget)

    @given(st.one_of(oracle_fleets(), mixed_size_fleets(), tied_fleets()),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_caps_equal_on_a_running_spend_boundary(self, fleet, data):
        # The oracle's own spend after k raises, nudged by j * 1e-9 W:
        # whether raise k still fits turns on the last bits of the
        # running sum, so the stop must come from the same additions.
        spends = []
        greedy_waterfill(fleet, 2.0 * sum(m.max_power for m in fleet),
                         spends)
        if not spends:
            return  # the first bottleneck starts at its top grid point
        k = data.draw(st.integers(0, len(spends) - 1), label="k")
        j = data.draw(st.integers(-2, 2), label="j")
        budget = spends[k] + j * 1e-9
        assert waterfill_allocation(fleet, budget) == greedy_waterfill(
            fleet, budget)


class TestModelArrays:
    @given(grid_models("n00", max_size=25))
    @settings(max_examples=200, deadline=None)
    def test_runtimes_match_the_scalar_formula(self, m):
        s = m.sensitivity
        assert m.runtimes.tolist() == [
            m.work * ((1.0 - s) + s * m.grid[-1] / f) for f in m.grid]
        assert [m.runtime_at(i) for i in range(len(m.grid))] == (
            m.runtimes.tolist())

    @given(grid_models("n00", max_size=25))
    @settings(max_examples=200, deadline=None)
    def test_raise_costs_follow_the_held_cap(self, m):
        held = [0.0] + list(m.power_w[1:-1])
        assert m.raise_costs_w.tolist() == [
            p - cap for p, cap in zip(m.power_w[1:], held)] + [math.inf]

    @given(grid_models("n00", max_size=25), st.data())
    @settings(max_examples=200, deadline=None)
    def test_index_for_cap_matches_a_full_scan(self, m, data):
        near = data.draw(st.sampled_from(m.power_w), label="near")
        cap = data.draw(st.sampled_from(
            [0.0, near, near - _EPS, near + _EPS, near - 2 * _EPS,
             near * 2.0]), label="cap")
        scan = max([i for i, p in enumerate(m.power_w) if p <= cap + _EPS],
                   default=0)
        assert m.index_for_cap(cap) == scan

    def test_arrays_are_read_only(self):
        m = node(0)
        with pytest.raises(ValueError):
            m.runtimes[0] = 0.0
        with pytest.raises(ValueError):
            m.raise_costs_w[0] = 0.0


class TestWaterfillWorkPerEpoch:
    def test_no_per_raise_runtime_calls(self, monkeypatch):
        # 96 nodes x 25 grid points at the fleet benchmark's per-node
        # budget: a loop that raises one bottleneck at a time would read
        # runtime_at hundreds of times; the array passes read none.
        curve = CalibratedPowerCurve()
        fleet = [node_power_model(f"n{i:03d}", BROADWELL_D1548, curve,
                                  work=1.0 + (i % 7) / 4)
                 for i in range(96)]
        budget = 1536.0 - 40.0
        calls = []
        real = NodePowerModel.runtime_at

        def counting(self, index):
            calls.append(index)
            return real(self, index)

        monkeypatch.setattr(NodePowerModel, "runtime_at", counting)
        caps = waterfill_allocation(fleet, budget)
        assert calls == []
        monkeypatch.undo()
        assert caps == greedy_waterfill(fleet, budget)
