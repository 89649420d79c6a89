"""ClusterCapController: epochs, receipts, hysteresis, telemetry, inversion."""

import json

import pytest

from repro.governor.telemetry import TelemetryBus
from repro.hardware.cpu import BROADWELL_D1548, SKYLAKE_4114
from repro.hardware.powercurves import CalibratedPowerCurve
from repro.observability.metrics import get_registry
from repro.powercap import (
    ClusterCapController,
    cap_ghz_for_watts,
    node_power_model,
    phase_caps_for_budget,
)

CPU = BROADWELL_D1548
CURVE = CalibratedPowerCurve()


@pytest.fixture(autouse=True)
def fresh_metrics():
    get_registry().reset()
    yield
    get_registry().reset()


def make_controller(budget=160.0, **kw):
    kw.setdefault("nfs_reserve_w", 40.0)
    return ClusterCapController(budget, **kw)


class TestInversion:
    def test_cap_ghz_snaps_down_onto_the_grid(self):
        grid = CPU.available_frequencies()
        for watts in (16.0, 18.0, 20.0):
            cap_ghz, infeasible = cap_ghz_for_watts(CPU, CURVE, watts,
                                                    "compress")
            assert not infeasible
            assert any(abs(cap_ghz - f) < 1e-9 for f in grid)
            # Snapping down means the granted clock fits the watts.
            assert CURVE.power_watts(CPU, cap_ghz, _kind("compress")) \
                <= watts + 1e-6

    def test_floor_watts_are_infeasible(self):
        floor = CURVE.power_watts(CPU, CPU.fmin_ghz, _kind("compress"))
        cap_ghz, infeasible = cap_ghz_for_watts(CPU, CURVE, floor * 0.5,
                                                "compress")
        assert infeasible
        assert cap_ghz == pytest.approx(CPU.fmin_ghz)

    def test_phase_caps_for_budget_covers_both_phases(self):
        caps = phase_caps_for_budget(CPU, CURVE, 18.0)
        assert set(caps) == {"compress", "write"}
        assert caps["compress"] > 0 and caps["write"] > 0

    def test_phase_caps_mark_infeasible_with_zero(self):
        caps = phase_caps_for_budget(CPU, CURVE, 2.0)
        assert caps == {"compress": 0.0, "write": 0.0}

    def test_node_power_model_matches_the_curve(self):
        model = node_power_model("n0", CPU, CURVE, phase="compress")
        freqs = CPU.available_frequencies()
        assert model.grid == tuple(float(f) for f in freqs)
        assert model.power_w[-1] == pytest.approx(
            CURVE.power_watts(CPU, CPU.fmax_ghz, _kind("compress")))


def _kind(phase):
    from repro.hardware.workload import stage_kind

    return stage_kind(phase)


class TestMembershipEpochs:
    def test_each_join_is_an_epoch_rejoin_is_not(self):
        ctl = make_controller()
        ctl.join("a", CPU, CURVE)
        ctl.join("b", CPU, CURVE)
        assert ctl.epoch == 2
        ctl.join("a", CPU, CURVE, work=2.0)  # re-announcement
        assert ctl.epoch == 2
        assert ctl.node_ids() == ("a", "b")

    def test_leave_redistributes_to_survivors(self):
        ctl = make_controller(budget=70.0)
        for nid in ("a", "b", "c"):
            ctl.join(nid, CPU, CURVE)
        before = {nid: c.cap_w for nid, c in ctl.caps().items()}
        ctl.leave("b")
        after = ctl.caps()
        assert set(after) == {"a", "c"}
        # The dead node's watts went back into the pool.
        assert all(after[nid].cap_w >= before[nid] - 1e-9
                   for nid in ("a", "c"))

    def test_leave_unknown_node_raises(self):
        ctl = make_controller()
        with pytest.raises(KeyError):
            ctl.leave("ghost")

    def test_nfs_reserve_never_reaches_the_nodes(self):
        reserve = 40.0
        ctl = make_controller(budget=100.0, nfs_reserve_w=reserve)
        for nid in ("a", "b", "c", "d"):
            ctl.join(nid, CPU, CURVE)
        total = sum(c.cap_w for c in ctl.caps().values())
        assert total <= 100.0 - reserve + 1e-6

    def test_reserve_must_leave_node_budget(self):
        with pytest.raises(ValueError, match="leaves no budget"):
            ClusterCapController(50.0, nfs_reserve_w=50.0)


class TestPhasesAndHysteresis:
    def test_phase_change_is_one_epoch(self):
        ctl = make_controller()
        ctl.join("a", CPU, CURVE)
        e = ctl.epoch
        ctl.begin_phase("write")
        assert ctl.epoch == e + 1 and ctl.phase == "write"
        ctl.begin_phase("write")  # no-op: same phase
        assert ctl.epoch == e + 1

    def test_hysteresis_holds_near_identical_caps(self):
        # Two equal nodes: compress and write solve to slightly
        # different watt splits; a generous hysteresis holds the caps.
        sticky = make_controller(budget=60.0, hysteresis=0.5)
        loose = make_controller(budget=60.0, hysteresis=0.0)
        for ctl in (sticky, loose):
            ctl.join("a", CPU, CURVE)
            ctl.join("b", CPU, CURVE)
            ctl.begin_phase("write")
        held = {n: c.cap_w for n, c in sticky.caps().items()}
        moved = {n: c.cap_w for n, c in loose.caps().items()}
        compress_caps = {
            n: cap["watts"]
            for n, cap in sticky.trace[1]["caps"].items()
        }
        assert held == pytest.approx(compress_caps)  # held across the flip
        assert sum(moved.values()) <= 60.0 - 40.0 + 1e-6

    def test_infeasible_budget_pins_fmin_and_counts(self):
        ctl = make_controller(budget=44.0)  # 4 W for two nodes
        ctl.join("a", CPU, CURVE)
        ctl.join("b", CPU, CURVE)
        caps = ctl.caps()
        assert any(c.infeasible for c in caps.values())
        for cap in caps.values():
            if cap.infeasible:
                assert cap.cap_ghz == pytest.approx(CPU.fmin_ghz)
                assert cap.governor_cap_ghz == 0.0
            else:
                assert cap.governor_cap_ghz == cap.cap_ghz
        metric = get_registry().counter(
            "repro_powercap_infeasible_caps_total",
            {"policy": "waterfill"})
        assert metric.value >= 1


class TestTelemetryIntegration:
    def test_bus_samples_become_demand(self):
        bus = TelemetryBus()
        ctl = make_controller(telemetry=bus)
        ctl.join("node-a", CPU, CURVE)
        bus.publish("compress", 2.0, 21.5, 1.0, 1000, source="node-a")
        bus.publish("compress", 2.0, 22.5, 1.0, 1000, source="node-a")
        bus.publish("compress", 2.0, 99.0, 1.0, 1000, source="stranger")
        assert ctl.demands() == {"node-a": pytest.approx(22.0)}
        ctl.close()

    def test_phase_flip_on_the_bus_triggers_an_epoch(self):
        bus = TelemetryBus()
        ctl = make_controller(telemetry=bus)
        ctl.join("node-a", CPU, CURVE)
        e = ctl.epoch
        bus.publish("write", 1.7, 23.0, 1.0, 1000, source="node-a")
        assert ctl.phase == "write"
        assert ctl.epoch == e + 1
        ctl.close()

    def test_close_detaches_from_the_bus(self):
        bus = TelemetryBus()
        ctl = make_controller(telemetry=bus)
        ctl.join("node-a", CPU, CURVE)
        ctl.close()
        bus.publish("write", 1.7, 23.0, 1.0, 1000, source="node-a")
        assert ctl.phase == "compress"
        assert ctl.demands() == {}

    def test_context_manager_closes(self):
        bus = TelemetryBus()
        with make_controller(telemetry=bus) as ctl:
            ctl.join("node-a", CPU, CURVE)
        bus.publish("write", 1.7, 23.0, 1.0, 1000, source="node-a")
        assert ctl.phase == "compress"

    def test_record_demand_validates(self):
        ctl = make_controller()
        ctl.join("a", CPU, CURVE)
        with pytest.raises(KeyError):
            ctl.record_demand("ghost", 20.0)
        with pytest.raises(ValueError):
            ctl.record_demand("a", float("nan"))


class TestReceipts:
    def _drive(self, **kw):
        ctl = make_controller(**kw)
        ctl.join("a", CPU, CURVE)
        ctl.join("b", SKYLAKE_4114, CURVE, work=2.0)
        ctl.record_demand("a", 20.0)
        ctl.begin_phase("write")
        ctl.reallocate()
        ctl.leave("a")
        return ctl

    def test_trace_is_canonical_json(self):
        ctl = self._drive()
        text = ctl.trace_json()
        assert json.loads(text) == ctl.trace
        assert " " not in text.split('"event"')[0]  # compact separators

    def test_identical_runs_share_a_receipt(self):
        a, b = self._drive(), self._drive()
        assert a.report().trace_sha256 == b.report().trace_sha256

    def test_different_policies_diverge(self):
        a = self._drive(policy="waterfill")
        b = self._drive(policy="uniform")
        assert a.report().trace_sha256 != b.report().trace_sha256

    def test_report_summarizes_the_run(self):
        ctl = self._drive()
        rep = ctl.report()
        assert rep.epochs == ctl.epoch == 5
        assert rep.phase == "write"
        assert [nid for nid, _, _ in rep.caps] == ["b"]
        assert rep.makespan == pytest.approx(ctl.last_makespan)
        assert len(rep.trace_sha256) == 64

    def test_epoch_counter_increments(self):
        self._drive()
        joins = get_registry().counter(
            "repro_powercap_epochs_total",
            {"policy": "waterfill", "event": "join"})
        assert joins.value == 2
