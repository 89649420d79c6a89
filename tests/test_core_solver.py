"""The one DVFS frequency solver, :func:`repro.core.objectives.solve_frequency`.

Every frequency pick runs through it: model-optimal tuning, the tuning
service, the oracle and adaptive governors and the degraded write
retune. The pickers it replaced are kept below, body for body, as
oracles; Hypothesis drives the solver against each of them. The sha256
pins hash every tuning-service outcome on the demo bundle and every
oracle-governor decision, as computed by those pickers.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objectives import (
    InfeasibleSlowdownError,
    Objective,
    objective_curve,
    solve_frequency,
)
from repro.core.power_model import PowerModel
from repro.core.runtime_model import RuntimeModel
from repro.core.service import TuningService
from repro.core.tuning import PAPER_POLICY, recommend
from repro.governor import OracleGovernor, Phase
from repro.governor.policies import _budgeted_frequency
from repro.hardware.cpu import (
    BROADWELL_D1548,
    CASCADELAKE_6230,
    SKYLAKE_4114,
    CpuSpec,
)
from repro.hardware.node import SimulatedNode
from repro.hardware.powercurves import CalibratedPowerCurve, PerturbedPowerCurve
from repro.hardware.workload import write_workload
from repro.resilience.engine import _degraded_write_frequency
from repro.utils.stats import GoodnessOfFit

GOF = GoodnessOfFit(0.0, 0.0, 1.0)
SLACK = 1e-12  # the solver's max_slowdown tolerance


# -- the replaced pickers, kept as oracles ----------------------------------


def choose_frequency(grid, power_ratio, slowdown, budget, hysteresis=0.02):
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


def energy_curve(power_model, runtime_model, frequencies):
    f = np.asarray(frequencies, dtype=np.float64)
    return power_model.predict(f) * runtime_model.predict(f)


def optimal_energy_frequency(power_model, runtime_model, cpu, max_slowdown=None):
    grid = cpu.available_frequencies()
    energies = energy_curve(power_model, runtime_model, grid)
    if max_slowdown is not None:
        ok = runtime_model.predict(grid) <= 1.0 + max_slowdown
        if not np.any(ok):
            raise ValueError(
                f"no frequency satisfies max_slowdown={max_slowdown}; "
                f"minimum modeled slowdown is {runtime_model.predict(grid).min() - 1:.3f}"
            )
        energies = np.where(ok, energies, np.inf)
    return float(grid[np.argmin(energies)])


def optimal_frequency(power_model, runtime_model, cpu, objective=Objective.ENERGY):
    grid = cpu.available_frequencies()
    values = objective_curve(power_model, runtime_model, grid, objective)
    return float(grid[np.argmin(values)])


def service_frequency(power, runtime, cpu, objective, max_slowdown):
    """The objective branch of the tuning service's ``decide``."""
    freq = optimal_frequency(power, runtime, cpu, objective)
    if max_slowdown is not None:
        grid = cpu.available_frequencies()
        ok = runtime.predict(grid) <= 1.0 + max_slowdown
        if not np.any(ok):
            raise ValueError(
                f"no frequency satisfies max_slowdown={max_slowdown}"
            )
        if runtime.predict(freq) > 1.0 + max_slowdown:
            values = np.where(
                ok, objective_curve(power, runtime, grid, objective), np.inf
            )
            freq = float(grid[np.argmin(values)])
    return freq


def retune_write_frequency(node, workload, cap_ghz=None):
    grid = node.cpu.available_frequencies()
    if cap_ghz is not None:
        capped = grid[grid <= cap_ghz + 1e-9]
        grid = capped if len(capped) else grid[:1]
    energies = [
        node.true_power_w(workload, f) * node.true_runtime_s(workload, f)
        for f in grid
    ]
    return float(grid[int(np.argmin(energies))])


def outcome(fn, *args):
    """``fn(*args)``, or the message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("raises", str(exc).split(";")[0])


def in_slack(runtimes, max_slowdown):
    """Whether a runtime lies in the solver's slack above the bound.

    The replaced model pickers compared ``runtime <= 1 + max_slowdown``
    with no slack; the solver keeps the governors' ``1e-12``, so the two
    can only disagree when such a point exists.
    """
    bound = 1.0 + max_slowdown
    return any(bound < r <= bound + SLACK for r in runtimes)


# -- strategies -------------------------------------------------------------

#: Ascending DVFS grids of 1-30 points.
grids = st.lists(
    st.integers(40, 440), min_size=1, max_size=30, unique=True
).map(lambda steps: sorted(s * 0.005 for s in steps))

#: Values that tie exactly often, mixed with arbitrary ones.
values = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    st.floats(0.01, 10.0, allow_nan=False),
)
slowdowns = st.one_of(
    st.sampled_from([0.0, 0.0875, 0.145, 1.0]),
    st.floats(-0.5, 3.0, allow_nan=False),
)
#: Negative, zero, the governors' defaults, and arbitrary (often
#: infeasible for every point) budgets.
budgets = st.one_of(
    st.sampled_from([-0.5, 0.0, 0.0875, 0.145, 1.0]),
    st.floats(-1.0, 3.0, allow_nan=False),
)
hystereses = st.sampled_from([0.0, 0.02, 0.1])


@st.composite
def cpus(draw, arches=("broadwell", "skylake", "cascadelake")):
    """A CPU of a calibrated architecture with a 2-30 point grid."""
    step = draw(st.sampled_from([0.05, 0.1, 0.25]))
    fmin = draw(st.sampled_from([0.8, 1.0, 1.2]))
    points = draw(st.integers(2, 29))
    # An off-step base clock appends one more point to the grid.
    extra = draw(st.sampled_from([0.0, 0.02]))
    return CpuSpec(
        model="test", arch=draw(st.sampled_from(arches)), cloudlab_type="test",
        fmin_ghz=fmin, fmax_ghz=round(fmin + step * (points - 1) + extra, 6),
        step_ghz=step, tdp_watts=45.0, cores=8,
    )


@st.composite
def models(draw, cpu):
    """A power law and a runtime model scaled to *cpu*'s max clock."""
    power = PowerModel(
        "test",
        draw(st.floats(0.001, 0.5)),
        draw(st.floats(0.5, 6.0)),
        draw(st.floats(0.1, 1.2)),
        cpu.fmin_ghz, cpu.fmax_ghz, GOF,
    )
    sensitivity = draw(st.one_of(st.sampled_from([0.0, 0.3, 0.55, 1.0]),
                                 st.floats(0.0, 1.0)))
    return power, RuntimeModel("test", sensitivity, cpu.fmax_ghz, GOF)


# -- differential tests -----------------------------------------------------


class TestAgainstReplacedPickers:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data(), grids, budgets, hystereses)
    def test_governor_objective(self, data, grid, budget, hysteresis):
        power = data.draw(st.lists(values, min_size=len(grid), max_size=len(grid)))
        slow = data.draw(st.lists(slowdowns, min_size=len(grid), max_size=len(grid)))
        by_f = dict(zip(grid, zip(power, slow)))
        expected = choose_frequency(
            grid, lambda f: by_f[f][0], lambda f: by_f[f][1], budget, hysteresis
        )
        got = _budgeted_frequency(
            grid, power, [1.0 + s for s in slow], budget, hysteresis
        )
        assert got == expected

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data(), cpus(), st.one_of(st.none(), budgets))
    def test_model_optimal_energy(self, data, cpu, max_slowdown):
        power, runtime = data.draw(models(cpu))
        expected = outcome(
            optimal_energy_frequency, power, runtime, cpu, max_slowdown
        )
        got = outcome(
            lambda: recommend(cpu, "compress", power, runtime,
                              max_slowdown=max_slowdown).freq_ghz
        )
        runtimes = runtime.predict(cpu.available_frequencies())
        if max_slowdown is None or not in_slack(runtimes, max_slowdown):
            assert got == expected

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data(), cpus(), st.sampled_from(list(Objective)),
           st.one_of(st.none(), budgets))
    def test_service_objectives(self, data, cpu, objective, max_slowdown):
        power, runtime = data.draw(models(cpu))
        expected = outcome(
            service_frequency, power, runtime, cpu, objective, max_slowdown
        )
        got = outcome(
            lambda: recommend(cpu, "write", power, runtime, objective=objective,
                              max_slowdown=max_slowdown).freq_ghz
        )
        runtimes = runtime.predict(cpu.available_frequencies())
        if max_slowdown is None or not in_slack(runtimes, max_slowdown):
            assert got == expected

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        cpus(),
        st.integers(10**6, 10**10),
        st.floats(1e6, 1e9),
        st.one_of(
            st.none(),
            st.floats(0.0, 4.0),  # below, between, on and above the grid
            st.sampled_from([0.4, 0.8, 1.75, 2.0, 2.2, 9.0]),
        ),
    )
    def test_degraded_retune(self, cpu, nbytes, bandwidth, cap_ghz):
        node = SimulatedNode(cpu, seed=0)
        workload = write_workload(nbytes, bandwidth, name="retune")
        got = _degraded_write_frequency(node, workload, cap_ghz)
        assert got == retune_write_frequency(node, workload, cap_ghz)


class TestSolveFrequency:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty") as old:
            choose_frequency([], lambda f: 1.0, lambda f: 0.0, 0.1)
        with pytest.raises(ValueError, match="non-empty") as new:
            solve_frequency([], [], [], max_slowdown=0.1)
        assert str(new.value) == str(old.value)
        assert not isinstance(new.value, InfeasibleSlowdownError)

    def test_infeasible_slowdown_is_typed(self):
        with pytest.raises(InfeasibleSlowdownError,
                           match=r"no frequency satisfies max_slowdown=-0\.5"):
            solve_frequency([1.0, 2.0], [1.0, 1.0], [1.5, 1.0], max_slowdown=-0.5)

    def test_slowdown_bound_has_slack(self):
        grid = [1.0, 2.0]
        for slow, expected in ((SLACK / 2, 1.0), (SLACK, 1.0), (2 * SLACK, 2.0)):
            runtime = [1.0 + 0.1 + slow, 1.0]
            assert solve_frequency(
                grid, [0.5, 1.0], runtime, max_slowdown=0.1
            ) == expected

    def test_hysteresis_margin_is_relative_to_the_lowest_candidate(self):
        grid = [1.0, 2.0]
        # 1.105 - 1.0 is under 10 % of 1.105 (the lowest candidate's
        # cost) but over 10 % of 1.0 (the argmin's): stay low.
        assert solve_frequency(grid, [1.105, 1.0], [1.0, 1.0], hysteresis=0.1) == 1.0
        # A gain of exactly the margin does not leave the lowest clock.
        assert solve_frequency(grid, [1.0, 0.5], [1.0, 1.0], hysteresis=0.5) == 1.0
        assert solve_frequency(grid, [1.0, 0.49], [1.0, 1.0], hysteresis=0.5) == 2.0

    def test_ties_go_to_the_lower_clock(self):
        assert solve_frequency([1.0, 1.5, 2.0], [2.0, 1.0, 1.0], [1.0] * 3) == 1.5

    @pytest.mark.parametrize("cap, expected", [
        (0.5, 1.0), (1.0, 1.0), (1.2, 1.0), (1.5 - 1e-10, 1.5), (1.7, 1.5),
        (2.0, 2.0), (9.0, 2.0),
    ])
    def test_cap_keeps_points_at_or_below_it(self, cap, expected):
        # Cost falls with frequency, so the solver takes the top point
        # the cap leaves; below the grid only fmin is left.
        grid = [1.0, 1.5, 2.0]
        got = solve_frequency(grid, [3.0, 2.0, 1.0], [1.0] * 3, cap_ghz=cap)
        assert got == expected

    def test_cap_rule_matches_cpu_floor(self):
        grid = SKYLAKE_4114.available_frequencies()
        for cap in (0.0, 0.79, 0.8, 1.3333, 1.98, 2.2, 3.0):
            assert solve_frequency(
                grid, -grid, np.ones_like(grid), cap_ghz=cap
            ) == SKYLAKE_4114.floor_frequency(cap)


# -- sha256 pins ------------------------------------------------------------


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def demo_bundle():
    """``benchmarks/service_load.py``'s fixed two-architecture bundle."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "service_load.py"
    spec = importlib.util.spec_from_file_location("_service_load", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.demo_bundle()


def service_rows():
    service = TuningService(demo_bundle())
    rows = []
    for arch in ("broadwell", "skylake"):
        for stage in ("compress", "write"):
            for objective in Objective:
                for max_slowdown in (None, 0.0, 0.05, 0.1, -0.5):
                    for policy in (None, PAPER_POLICY):
                        key = [arch, stage, objective.value, max_slowdown,
                               None if policy is None else policy.name]
                        try:
                            d = service.decide(arch, stage, objective, policy,
                                               max_slowdown)
                        except ValueError as exc:
                            rows.append(key + ["raises", str(exc).split(";")[0]])
                        else:
                            rows.append(key + [d.freq_ghz, d.objective,
                                               d.predicted_power_saving,
                                               d.predicted_slowdown])
    return rows


def oracle_rows():
    rows = []
    curves = (("calibrated", CalibratedPowerCurve()),
              ("+10%", PerturbedPowerCurve(dynamic_scale=1.1)),
              ("-10%", PerturbedPowerCurve(dynamic_scale=0.9)))
    for cpu in (BROADWELL_D1548, SKYLAKE_4114, CASCADELAKE_6230):
        for label, curve in curves:
            for budgets in (None, {Phase.COMPRESS: -0.5, Phase.WRITE: -0.5}):
                for hysteresis in (0.0, 0.02, 0.1):
                    gov = OracleGovernor(cpu, curve, budgets=budgets,
                                         hysteresis=hysteresis)
                    freqs = [gov.decide(p) for p in (Phase.COMPRESS, Phase.WRITE)]
                    rows.append([cpu.arch, label, budgets is not None,
                                 hysteresis, freqs, gov.trace_json()])
    return rows


class TestPinnedDecisions:
    def test_tuning_service_outcomes(self):
        rows = service_rows()
        assert len(rows) == 2 * 2 * 4 * 5 * 2
        assert sum(r[5] == "raises" for r in rows) == 2 * 2 * 4
        assert digest(rows) == (
            "2039dccd8d040046dde8cb853a98839d3cfb39e98419d165e3bd4a8ee916e53a"
        )

    def test_oracle_governor_decisions(self):
        rows = oracle_rows()
        assert digest(rows) == (
            "c3e055ee0d015e9bef096dc2aa7c181c4b77d76d793c9dcaccd7f22571d3b0f6"
        )
