"""Allocation epochs: pinned receipts, cache invalidation, work per epoch.

The controller derives each node's :class:`NodePowerModel` once per
(node, phase) and memoizes the watt->GHz inversion per distinct
(cpu, curve, phase, watts). These tests pin what that must not change
(the decision-trace receipts of a churned capped fleet), check that a
long-lived controller answers every epoch exactly as a fresh controller
built straight into the same state does, and count — without timing
anything — the models and bisections one fleet build costs.
"""

import hashlib

import pytest

import repro.powercap.controller as controller_mod
from repro.cache.fingerprint import canonical_json
from repro.compressors import ZFPCompressor
from repro.hardware.cpu import BROADWELL_D1548
from repro.hardware.powercurves import (
    CalibratedPowerCurve,
    PerturbedPowerCurve,
    PowerCurve,
)
from repro.iosim.cluster import SimulatedCluster
from repro.powercap import (
    ALLOCATION_POLICIES,
    ClusterCapController,
    cap_ghz_for_watts,
)

CPU = BROADWELL_D1548
GB = int(1e9)

#: Receipts of the churned 24-node flow below, taken with the
#: rescanning allocator that rebuilt every model and re-ran every
#: bisection on each epoch. (first dump_all, second dump_all)
PINNED_RECEIPTS = {
    ("waterfill", 420.0, False): (
        "e328dfa8fadbad2098006ee29b8f974c786185f0dfb9dae125fba3895a22a4a5",
        "2bc1551c8bc3079507994fe392ee8a169c6dd4e8ece839dc544d70ec9d7e2a95",
    ),
    ("waterfill", 450.0, True): (
        "2200e004a41d1a8a0736e3d256c7429eb6f89ea4c841a3656c0df5b75ea25997",
        "af873b35ab9b30c836d07c4cb199d75e7d2a50b247f2de0e7d271d4091ebedef",
    ),
    ("proportional", 450.0, False): (
        "dcb88b8bbc30a4a905f9e31c372d8c6316b03dc5f042c2ca595680c8e8df090e",
        "18c2ef9b25429c9638f58bd54abca2cb14b9b9def4a621c450455dc6eefbf799",
    ),
    ("uniform", 450.0, False): (
        "9b00f2f3b597292b3605c5eafd5e44fcfbda9dfa3ee164074121c00b6a124353",
        "3fed65971835e9e0c81ca61491144befc8b37b4b0c13225cc80ac1d0cc8b1618",
    ),
}


@pytest.fixture(scope="module")
def field():
    from repro.data.registry import load_field

    return load_field("nyx", "velocity_x", scale=32)


def churned_fleet_receipts(field, policy, budget_w, weighted):
    """24 nodes: build, dump_all, every 6th node leaves and rejoins,
    dump_all. Rejoined nodes come back with the default work 1.0."""
    weights = [1.0 + 0.5 * (i % 4) for i in range(24)] if weighted else None
    cluster = SimulatedCluster(
        CPU, 24, seed=0, power_budget_w=budget_w, policy=policy,
        governor="adaptive", work_weights=weights,
    )
    codec = ZFPCompressor()
    first = cluster.dump_all(codec, field, 1e-2, 64 * GB)
    for i in range(0, 24, 6):
        node = cluster.nodes[i]
        cluster.controller.leave(cluster.node_ids[i])
        cluster.controller.join(cluster.node_ids[i], node.cpu, node.power_curve)
    second = cluster.dump_all(codec, field, 1e-2, 64 * GB)
    return first.powercap.trace_sha256, second.powercap.trace_sha256


class TestGoldenReceipts:
    @pytest.mark.parametrize(
        "policy,budget_w,weighted", sorted(PINNED_RECEIPTS),
        ids=lambda v: str(v),
    )
    def test_churned_fleet_receipts_are_pinned(
        self, field, policy, budget_w, weighted
    ):
        assert churned_fleet_receipts(
            field, policy, budget_w, weighted
        ) == PINNED_RECEIPTS[(policy, budget_w, weighted)]


# -- cache invalidation ------------------------------------------------

CALIBRATED = CalibratedPowerCurve()
HOT = PerturbedPowerCurve(dynamic_scale=1.6)
COOL = PerturbedPowerCurve(dynamic_scale=0.6, static_shift_w=-1.0)
#: ~18.5 W per node after the NFS reserve: between the floor and the
#: top-clock draw, so work, curve and phase all move the caps.
BUDGET_W = 40.0 + 6 * 18.5


def initial_fleet():
    """node_id -> (curve, work); two nodes per curve share inversions."""
    curves = (CALIBRATED, HOT, COOL)
    return {f"n{i}": (curves[i % 3], 1.0 + 0.25 * i) for i in range(6)}


def state_entry(entry):
    """The part of a trace entry that depends on state, not history."""
    return {k: v for k, v in entry.items() if k not in ("epoch", "event")}


def fresh_entry(policy, fleet, phase):
    """What a fresh controller decides for *fleet* in *phase*."""
    fresh = ClusterCapController(BUDGET_W, policy=policy, hysteresis=0.0)
    if phase != "compress":
        fresh.begin_phase(phase)
    for node_id, (curve, work) in sorted(fleet.items()):
        fresh.join(node_id, CPU, curve, work=work)
    return state_entry(fresh.trace[-1])


def replay(policy, events):
    """Feed *events* to one long-lived controller, checking each epoch
    against a fresh controller built straight into the same state."""
    live = ClusterCapController(BUDGET_W, policy=policy, hysteresis=0.0)
    fleet = {}
    phase = "compress"
    for op, *args in events:
        epochs = live.epoch
        if op == "join":
            node_id, curve, work = args
            live.join(node_id, CPU, curve, work=work)
            # A re-join keeps the registered curve; only work changes.
            fleet[node_id] = (fleet.get(node_id, (curve,))[0], work)
        elif op == "leave":
            live.leave(args[0])
            del fleet[args[0]]
        elif op == "phase":
            phase = args[0]
            live.begin_phase(phase)
        else:
            live.reallocate()
        if live.epoch > epochs:
            where = f"epoch {live.epoch} after {op} {args}"
            assert state_entry(live.trace[-1]) == fresh_entry(
                policy, fleet, phase
            ), where
            # Memoized inversions equal a direct bisection of the
            # node's own curve.
            for node_id, cap in live.caps().items():
                if cap.cap_w > 0:
                    assert (cap.cap_ghz, cap.infeasible) == cap_ghz_for_watts(
                        CPU, fleet[node_id][0], cap.cap_w, phase
                    ), where
    return live


def warmed(extra=()):
    """Join the initial fleet and visit every phase, then *extra*."""
    events = [("join", nid, curve, work)
              for nid, (curve, work) in sorted(initial_fleet().items())]
    events += [("phase", p) for p in ("write", "idle", "compress")]
    return events + list(extra)


def check_sequence(policy, events):
    """Replay *events* twice: each epoch matches a fresh controller, and
    a second long-lived controller writes the same trace bytes."""
    live = replay(policy, events)
    assert replay(policy, events).trace_json() == live.trace_json()
    return live


# Uniform and proportional caps hand different curves the same watts,
# so they catch inversions shared across curves that are not equal.
@pytest.mark.parametrize("policy", ALLOCATION_POLICIES)
class TestCacheInvalidation:
    def test_rejoin_with_new_work_rebuilds_the_models(self, policy):
        live = check_sequence(policy, warmed([
            ("join", "n2", HOT, 3.5),   # re-announcement: no epoch
            ("request",),
            ("phase", "write"),
            ("phase", "idle"),
            ("join", "n2", COOL, 0.5),  # curve ignored, work taken
            ("phase", "compress"),
        ]))
        assert live.epoch == 6 + 3 + 4

    def test_leave_then_join_with_a_new_curve(self, policy):
        check_sequence(policy, warmed([
            ("phase", "write"),
            ("leave", "n3"),
            ("join", "n3", PerturbedPowerCurve(dynamic_scale=2.2,
                                               static_shift_w=1.5), 1.0),
            ("phase", "compress"),
            ("phase", "write"),
            # The last two COOL nodes leave (their inversions go with
            # them) and a COOL node comes back.
            ("leave", "n2"),
            ("leave", "n5"),
            ("join", "n5", COOL, 2.0),
            ("phase", "idle"),
            ("phase", "compress"),
        ]))

    def test_phase_flips_use_each_phase_model(self, policy):
        flips = ["write", "compress", "idle", "write", "idle", "compress",
                 "write", "compress"]
        live = check_sequence(policy, warmed([("phase", p) for p in flips]))
        phases = [entry["phase"] for entry in live.trace[6:]]
        assert phases == ["write", "idle", "compress"] + flips


@pytest.mark.parametrize("policy", ALLOCATION_POLICIES)
def test_running_receipt_matches_the_trace_after_every_epoch(policy):
    live = ClusterCapController(BUDGET_W, policy=policy, hysteresis=0.0)

    def check():
        expected = hashlib.sha256(live.trace_json().encode()).hexdigest()
        assert live.report().trace_sha256 == expected, live.epoch

    check()  # no epoch yet: the receipt of "[]"
    churn = warmed([
        ("leave", "n1"),
        ("join", "n1", HOT, 2.0),
        ("join", "n4", COOL, 0.5),
        ("phase", "write"),
        ("leave", "n0"),
        ("request",),
        ("phase", "compress"),
    ])
    for op, *args in churn:
        if op == "join":
            node_id, curve, work = args
            live.join(node_id, CPU, curve, work=work)
        elif op == "leave":
            live.leave(args[0])
        elif op == "phase":
            live.begin_phase(args[0])
        else:
            live.reallocate()
        check()
    # Every event but n4's re-announcement runs an epoch.
    assert live.epoch == len(churn) - 1


# -- work per epoch ----------------------------------------------------


class TestWorkPerEpoch:
    def test_fleet_build_costs_one_model_per_node_phase(self, monkeypatch):
        built = []
        inversions = []
        bisections = []
        real_model = controller_mod.node_power_model
        real_invert = controller_mod.cap_ghz_for_watts
        real_bisect = PowerCurve.frequency_for_power

        def counting_model(node_id, cpu, curve, phase="compress", **kw):
            built.append((node_id, phase))
            return real_model(node_id, cpu, curve, phase=phase, **kw)

        def counting_invert(cpu, curve, watts, phase="compress", codec=None):
            inversions.append((canonical_json([cpu, curve]), phase, watts))
            return real_invert(cpu, curve, watts, phase, codec)

        def counting_bisect(self, cpu, watts, kind, dynamic_factor=1.0):
            bisections.append((cpu, watts, kind))
            return real_bisect(self, cpu, watts, kind, dynamic_factor)

        monkeypatch.setattr(controller_mod, "node_power_model", counting_model)
        monkeypatch.setattr(controller_mod, "cap_ghz_for_watts",
                            counting_invert)
        monkeypatch.setattr(PowerCurve, "frequency_for_power",
                            counting_bisect)

        cluster = SimulatedCluster(CPU, 96, seed=0, power_budget_w=1536.0,
                                   policy="waterfill")
        controller = cluster.controller
        for phase in ("write", "compress", "write"):
            controller.begin_phase(phase)

        assert controller.epoch == 96 + 3
        assert sorted(built) == sorted(
            (node_id, phase)
            for node_id in cluster.node_ids
            for phase in ("compress", "write")
        )
        # Every node shares one curve: one bisection per distinct
        # (phase, watts) the fleet was ever capped at, not per node.
        assert len(inversions) == len(set(inversions))
        assert len(bisections) == len(inversions)
        capped = {
            (entry["phase"], cap["watts"])
            for entry in controller.trace
            for cap in entry["caps"].values()
            if cap["watts"] > 0
        }
        assert {(phase, round(w, 6)) for _, phase, w in inversions} == capped
        assert len(inversions) < 2 * len(CPU.available_frequencies()) + 8

    def test_leave_drops_the_node_entries(self):
        controller = ClusterCapController(BUDGET_W)
        for node_id, (curve, work) in sorted(initial_fleet().items()):
            controller.join(node_id, CPU, curve, work=work)
        for phase in ("write", "idle"):
            controller.begin_phase(phase)
        # n2 and n5 share COOL: its inversions outlive the first leave.
        controller.leave("n2")
        assert "n2" not in controller._models
        assert len(controller._inversions) == 3
        controller.leave("n5")
        assert len(controller._inversions) == 2
        for node_id in ("n0", "n1", "n3", "n4"):
            controller.leave(node_id)
        assert controller._models == {}
        assert controller._inversions == {}
