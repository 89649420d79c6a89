"""Adaptive governor: objective, convergence, determinism, regret.

The acceptance criteria of the governor subsystem live here:

* on the calibrated Broadwell curves the adaptive controller — which
  never sees the fitted models — converges to within 2.5 % of the
  static Eqn. 3 optimum (in fact it lands exactly on 1.75 / 1.70 GHz);
* on a >=10 %-perturbed power curve it beats the (now mistuned) static
  policy outright on total energy;
* a fixed seed makes the decision trace byte-identical.
"""

import json

import pytest

from repro.core.objectives import solve_frequency
from repro.governor import (
    DEFAULT_HYSTERESIS,
    AdaptiveGovernor,
    GovernorSpec,
    OracleGovernor,
    Phase,
    StaticGovernor,
    make_governor,
    simulate_governed_io,
)
from repro.hardware.cpu import BROADWELL_D1548
from repro.hardware.node import SimulatedNode
from repro.hardware.powercurves import CalibratedPowerCurve, PerturbedPowerCurve
from repro.observability import get_registry

CPU = BROADWELL_D1548
EQN3 = {"compress": 1.75, "write": 1.70}


def run_sim(kind, curve=None, seed=0, snapshots=24, **gov_kw):
    curve = curve if curve is not None else CalibratedPowerCurve()
    node = SimulatedNode(CPU, power_curve=curve, seed=seed)
    governor = make_governor(kind, CPU, seed=seed,
                             power_curve=node.power_curve, **gov_kw)
    return simulate_governed_io(node, governor, snapshots=snapshots), governor


def governed_choice(grid, power_ratio, slowdown, budget,
                    hysteresis=DEFAULT_HYSTERESIS):
    """The governors' objective on callables over *grid*."""
    return solve_frequency(
        grid, [power_ratio(f) for f in grid], [1.0 + slowdown(f) for f in grid],
        max_slowdown=budget, hysteresis=hysteresis,
    )


class TestChooseFrequency:
    GRID = [0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0]

    def test_prefers_lowest_feasible_frequency(self):
        # Power falls exactly as runtime grows, so modeled energy is
        # flat; the floor of the feasible set must win.
        f = governed_choice(self.GRID, lambda f: f / 2.0,
                            lambda f: 2.0 / f - 1.0, budget=0.5)
        assert f == pytest.approx(1.4)

    def test_energy_wins_only_past_the_hysteresis_margin(self):
        slowdown = lambda f: 0.0  # everything feasible

        def mild(f):  # floor barely worse than fmax: stay on the floor
            return 1.0 - 0.005 * (f - 0.8)

        def steep(f):  # floor clearly worse: energy wins
            return 1.0 - 0.2 * (f - 0.8)

        assert governed_choice(self.GRID, mild, slowdown, 1.0) == 0.8
        assert governed_choice(self.GRID, steep, slowdown, 1.0) == 2.0

    def test_infeasible_budget_falls_back_to_fmax(self):
        # No clock meets a negative budget: the governor takes fmax
        # (2.0 GHz on Broadwell) rather than slow down more than asked.
        f = OracleGovernor(CPU, CalibratedPowerCurve(),
                           budgets={Phase.COMPRESS: -0.5}).decide(Phase.COMPRESS)
        assert f == 2.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            solve_frequency([], [], [], max_slowdown=0.1)


class TestStaticAndOracle:
    def test_static_reproduces_eqn3_frequencies(self):
        gov = StaticGovernor(CPU)
        assert gov.decide(Phase.COMPRESS) == pytest.approx(1.75)
        assert gov.decide("write") == pytest.approx(1.70)
        assert gov.is_converged(Phase.COMPRESS)
        assert gov.report().policy == "static"

    def test_oracle_agrees_with_eqn3_on_calibrated_broadwell(self):
        # The shared objective over the true calibrated curves lands on
        # the paper's grid points — the premise of the whole benchmark.
        gov = OracleGovernor(CPU, CalibratedPowerCurve())
        assert gov.decide(Phase.COMPRESS) == pytest.approx(1.75)
        assert gov.decide(Phase.WRITE) == pytest.approx(1.70)

    def test_decide_honours_a_throttle_cap(self):
        gov = StaticGovernor(CPU)
        freq = gov.decide(Phase.COMPRESS, cap_ghz=1.0)
        assert freq == pytest.approx(1.0)
        assert gov.trace[-1]["mode"].endswith("+capped")

    def test_decide_clamps_cap_to_fmin(self):
        gov = StaticGovernor(CPU)
        assert gov.decide(Phase.COMPRESS, cap_ghz=0.1) == CPU.fmin_ghz

    def test_off_grid_cap_rounds_down(self):
        # 1.735 GHz lies between the 1.70 and 1.75 grid points; a cap
        # must never round up over itself.
        gov = StaticGovernor(CPU)
        assert gov.decide("compress", cap_ghz=1.735) == 1.70
        assert gov.trace[-1]["mode"] == "static+capped"

    def test_cap_above_the_pick_leaves_it_untagged(self):
        gov = StaticGovernor(CPU)
        assert gov.decide("compress", cap_ghz=1.78) == 1.75
        assert gov.trace[-1]["mode"] == "static"


class TestAdaptiveValidation:
    def test_window_below_fit_minimum_rejected(self):
        with pytest.raises(ValueError, match="window"):
            AdaptiveGovernor(CPU, window=3)

    @pytest.mark.parametrize("kw", [
        {"explore": 1.5}, {"explore": -0.1},
        {"explore_decay": 0.0}, {"converge_after": 0},
    ])
    def test_bad_knobs_rejected(self, kw):
        with pytest.raises(ValueError):
            AdaptiveGovernor(CPU, **kw)

    def test_degenerate_warmup_ladder_rejected(self):
        with pytest.raises(ValueError, match="warmup"):
            AdaptiveGovernor(CPU, warmup_fractions=(1.0, 1.0, 1.0))

    def test_spec_validates_like_the_factory(self):
        with pytest.raises(ValueError, match="unknown governor policy"):
            GovernorSpec(kind="quantum")
        with pytest.raises(ValueError, match="window"):
            GovernorSpec(window=2)

    def test_oracle_needs_the_ground_truth_curve(self):
        with pytest.raises(ValueError, match="ground-truth"):
            make_governor("oracle", CPU)


class TestAdaptiveConvergence:
    def test_converges_to_within_2p5_percent_of_eqn3(self):
        # The controller sees only noisy telemetry — no fitted models —
        # yet must land within 2.5 % of the static optimum per phase.
        result, gov = run_sim("adaptive", seed=0, snapshots=30)
        freqs = dict(gov.report().frequencies)
        for phase, f_star in EQN3.items():
            assert freqs[phase] == pytest.approx(f_star, rel=0.025)
        assert all(c for _, c in gov.report().converged)

    def test_energy_within_2p5_percent_of_static(self):
        adaptive, _ = run_sim("adaptive", seed=0, snapshots=30)
        static, _ = run_sim("static", seed=0, snapshots=30)
        assert adaptive.energy_j <= static.energy_j * 1.025

    def test_learned_model_tracks_the_true_curve_shape(self):
        _, gov = run_sim("adaptive", seed=0, snapshots=30)
        fit = gov.fitted(Phase.COMPRESS)
        assert fit is not None
        # True calibrated compress shape: a=0.0064, b=5.315, c=0.743,
        # sensitivity 0.55. Noisy online fits wander but must keep the
        # same character: a strong superlinear term over a static floor.
        assert 3.0 < fit["b"] < 8.0
        assert 0.5 < fit["c"] < 0.95
        assert 0.3 < fit["sensitivity"] < 0.8
        assert gov.refits > 0

    def test_convergence_stops_exploration(self):
        _, gov = run_sim("adaptive", seed=0, snapshots=30)
        # After the convergence point every decision is a hold.
        modes = [e["mode"] for e in gov.trace]
        first_hold = modes.index("hold")
        assert set(modes[first_hold:]) == {"hold"}


class TestAdaptiveBeatsMistunedStatic:
    CURVE_KW = dict(dynamic_scale=0.2)

    def test_perturbation_is_at_least_10_percent(self):
        base, flat = CalibratedPowerCurve(), PerturbedPowerCurve(**self.CURVE_KW)
        from repro.hardware.workload import WorkloadKind

        for kind in (WorkloadKind.COMPRESS_SZ, WorkloadKind.WRITE):
            p0 = base.power_watts(CPU, CPU.fmax_ghz, kind)
            p1 = flat.power_watts(CPU, CPU.fmax_ghz, kind)
            assert abs(p1 - p0) / p0 >= 0.10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_strictly_lower_energy_than_static(self, seed):
        # With the dynamic term flattened 5x, slowing down buys almost
        # no power but still costs runtime: Eqn. 3's open-loop pin is
        # now mistuned, and the closed loop must notice and beat it.
        curve_a = PerturbedPowerCurve(**self.CURVE_KW)
        curve_s = PerturbedPowerCurve(**self.CURVE_KW)
        adaptive, _ = run_sim("adaptive", curve=curve_a, seed=seed)
        static, _ = run_sim("static", curve=curve_s, seed=seed)
        assert adaptive.energy_j < static.energy_j

    def test_oracle_is_the_lower_bound(self):
        adaptive, _ = run_sim(
            "adaptive", curve=PerturbedPowerCurve(**self.CURVE_KW), seed=0)
        oracle, _ = run_sim(
            "oracle", curve=PerturbedPowerCurve(**self.CURVE_KW), seed=0)
        assert oracle.energy_j <= adaptive.energy_j + 1e-9


class TestDeterminism:
    def test_fixed_seed_is_byte_identical(self):
        _, a = run_sim("adaptive", seed=7)
        _, b = run_sim("adaptive", seed=7)
        assert a.trace_json() == b.trace_json()
        assert a.report().trace_sha256 == b.report().trace_sha256

    def test_different_seeds_explore_differently(self):
        _, a = run_sim("adaptive", seed=0)
        _, b = run_sim("adaptive", seed=1)
        assert a.trace_json() != b.trace_json()

    def test_trace_json_is_canonical(self):
        _, gov = run_sim("adaptive", seed=0, snapshots=4)
        doc = json.loads(gov.trace_json())
        assert gov.trace_json() == json.dumps(
            doc, sort_keys=True, separators=(",", ":"))


class TestObservability:
    def test_decisions_and_refits_are_counted(self):
        reg = get_registry()

        def total(name):
            return sum(m.value for m in reg.metrics() if m.name == name)

        adjustments0 = total("repro_governor_adjustments_total")
        refits0 = total("repro_governor_refits_total")
        _, gov = run_sim("adaptive", seed=0, snapshots=30)
        assert total("repro_governor_adjustments_total") > adjustments0
        assert total("repro_governor_refits_total") >= refits0 + gov.refits


class TestInfeasibleCapEdge:
    def _total(self):
        return sum(m.value for m in get_registry().metrics()
                   if m.name == "repro_governor_infeasible_caps_total")

    def test_cap_below_fmin_pins_floor_and_tags_the_trace(self):
        gov = StaticGovernor(CPU)
        before = self._total()
        freq = gov.decide(Phase.COMPRESS, cap_ghz=CPU.fmin_ghz / 2)
        assert freq == CPU.fmin_ghz
        assert gov.trace[-1]["capped_below_fmin"] is True
        assert self._total() == before + 1

    def test_feasible_caps_leave_the_trace_unchanged(self):
        gov = StaticGovernor(CPU)
        before = self._total()
        gov.decide(Phase.COMPRESS, cap_ghz=1.2)
        gov.decide(Phase.WRITE)
        assert all("capped_below_fmin" not in e for e in gov.trace)
        assert self._total() == before

    def test_adaptive_governor_tags_too(self):
        gov = make_governor("adaptive", CPU, seed=0,
                            power_curve=CalibratedPowerCurve())
        freq = gov.decide(Phase.WRITE, cap_ghz=0.1)
        assert freq == CPU.fmin_ghz
        assert gov.trace[-1]["capped_below_fmin"] is True

    def test_zero_watt_cluster_cap_reaches_the_governor_tag(self):
        # The cluster controller maps an infeasible watt cap to
        # governor_cap_ghz == 0.0; decide() must both pin fmin and
        # record the infeasibility.
        from repro.powercap.controller import NodeCap

        cap = NodeCap(node_id="a", cap_w=0.0, cap_ghz=CPU.fmin_ghz,
                      infeasible=True)
        gov = StaticGovernor(CPU)
        freq = gov.decide(Phase.COMPRESS, cap_ghz=cap.governor_cap_ghz)
        assert freq == CPU.fmin_ghz
        assert gov.trace[-1]["capped_below_fmin"] is True
