"""End-to-end power capping: cluster, sweeps, cache, distributed fleet.

CI runs this file under the 4-backend ``REPRO_TEST_EXECUTOR`` matrix:
a budget-capped campaign sweep must be byte-identical whichever backend
runs it, because the budget travels inside the pure, picklable
:class:`~repro.iosim.dumper.RunConfig` and the runtime cap
frames are observational only.
"""

import os
import signal
import time

import pytest

from repro.cache import ResultCache, fingerprint, use_cache
from repro.cache.serialization import encode_value
from repro.compressors import SZCompressor
from repro.hardware.cpu import BROADWELL_D1548
from repro.hardware.node import SimulatedNode
from repro.hardware.powercurves import CalibratedPowerCurve
from repro.iosim.cluster import Cluster, SimulatedCluster
from repro.iosim.dumper import DataDumper
from repro.powercap import ClusterCapController, phase_caps_for_budget
from repro.workflow.campaign import (
    CheckpointCampaign,
    RunConfig,
    run_campaign,
    run_campaign_sweep,
)

EXECUTOR = os.environ.get("REPRO_TEST_EXECUTOR", "serial")
CPU = BROADWELL_D1548
CURVE = CalibratedPowerCurve()
GB = int(1e9)


@pytest.fixture(scope="module")
def field():
    from repro.data.registry import load_field

    return load_field("nyx", "velocity_x", scale=32)


@pytest.fixture()
def campaign():
    return CheckpointCampaign(
        snapshot_bytes=GB, n_snapshots=2, compute_interval_s=600.0
    )


class TestClusterBitIdentity:
    def test_no_budget_matches_the_plain_cluster_exactly(self, field):
        plain = Cluster(CPU, 3, seed=0, repeats=2).dump_all(
            SZCompressor(), field, 1e-2, GB)
        simulated = SimulatedCluster(CPU, 3, seed=0, repeats=2).dump_all(
            SZCompressor(), field, 1e-2, GB)
        assert encode_value(simulated) == encode_value(plain)
        assert simulated.powercap is None

    def test_budget_none_with_pinned_frequencies_matches_too(self, field):
        kw = dict(compress_freq_ghz=1.75, write_freq_ghz=1.35)
        plain = Cluster(CPU, 2, seed=1, repeats=2).dump_all(
            SZCompressor(), field, 1e-2, GB, **kw)
        simulated = SimulatedCluster(CPU, 2, seed=1, repeats=2).dump_all(
            SZCompressor(), field, 1e-2, GB, **kw)
        assert encode_value(simulated) == encode_value(plain)


class TestCappedCluster:
    def test_capped_dump_obeys_the_budget_and_seals_a_receipt(self, field):
        budget, reserve = 120.0, 40.0
        cluster = SimulatedCluster(
            CPU, 4, seed=0, repeats=2,
            power_budget_w=budget, nfs_reserve_w=reserve)
        report = cluster.dump_all(SZCompressor(), field, 1e-2, GB)
        cap = report.powercap
        assert cap is not None
        assert cap.policy == "waterfill"
        assert sum(w for _, w, _ in cap.caps) <= budget - reserve + 1e-6
        # 4 joins + write phase boundary.
        assert cap.epochs == 5
        assert len(cap.trace_sha256) == 64
        # Capped clocks cost energy rate but never exceed fmax.
        for node_report in report.per_node:
            assert node_report.compress.freq_ghz <= CPU.fmax_ghz
            assert node_report.write.freq_ghz <= CPU.fmax_ghz

    def test_identical_capped_runs_share_a_receipt(self, field):
        def run():
            cluster = SimulatedCluster(
                CPU, 3, seed=0, repeats=2, power_budget_w=100.0)
            return cluster.dump_all(SZCompressor(), field, 1e-2, GB)

        a, b = run(), run()
        assert a.powercap.trace_sha256 == b.powercap.trace_sha256
        assert encode_value(a) == encode_value(b)

    def test_tight_budget_slows_the_fleet_and_saves_power(self, field):
        free = SimulatedCluster(CPU, 3, seed=0, repeats=2).dump_all(
            SZCompressor(), field, 1e-2, GB)
        tight = SimulatedCluster(
            CPU, 3, seed=0, repeats=2,
            power_budget_w=90.0, nfs_reserve_w=40.0,
        ).dump_all(SZCompressor(), field, 1e-2, GB)
        assert tight.makespan_s > free.makespan_s
        # Average fleet power must respect the node budget.
        avg_power = tight.total_energy_j / tight.makespan_s / 3
        floor = CURVE.power_watts(
            CPU, CPU.fmin_ghz, _compress_kind())
        assert avg_power <= max(50.0 / 3, floor) + 1.0

    def test_governed_cluster_routes_caps_through_decide(self, field):
        cluster = SimulatedCluster(
            CPU, 2, seed=0, repeats=2,
            power_budget_w=68.0, nfs_reserve_w=40.0, governor="adaptive")
        cluster.dump_all(SZCompressor(), field, 1e-2, GB)
        decisions = [e for gov in cluster._governors for e in gov.trace]
        assert decisions
        caps = {c.node_id: c for c in cluster.controller.caps().values()}
        # 28 W across two broadwell nodes is below two floor draws
        # (~15.6 W each): one node got an infeasible cap and the
        # governor recorded it instead of silently pinning fmin.
        assert any(c.infeasible for c in caps.values())
        assert any(e.get("capped_below_fmin") for e in decisions)

    def test_governed_cluster_rejects_pinned_frequencies(self, field):
        cluster = SimulatedCluster(
            CPU, 2, seed=0, power_budget_w=100.0, governor="static")
        with pytest.raises(ValueError, match="cannot pin"):
            cluster.dump_all(SZCompressor(), field, 1e-2, GB,
                             compress_freq_ghz=2.0)


def _compress_kind():
    from repro.hardware.workload import stage_kind

    return stage_kind("compress")


class TestCappedDumper:
    def test_phase_caps_clamp_the_pinned_frequencies(self, field):
        caps = phase_caps_for_budget(CPU, CURVE, 18.0)
        dumper = DataDumper(SimulatedNode(CPU, seed=0))
        capped = dumper.dump(SZCompressor(), field,
                             RunConfig(1e-2, power_budget_w=18.0), GB)
        assert capped.compress.freq_ghz == pytest.approx(caps["compress"])
        assert capped.write.freq_ghz == pytest.approx(caps["write"])

    def test_phase_caps_none_is_bit_identical(self, field):
        base = DataDumper(SimulatedNode(CPU, seed=0)).dump(
            SZCompressor(), field, 1e-2, GB)
        nocap = DataDumper(SimulatedNode(CPU, seed=0)).dump(
            SZCompressor(), field, RunConfig(1e-2, power_budget_w=None), GB)
        assert encode_value(nocap) == encode_value(base)


class TestCappedCampaigns:
    def test_budget_none_campaign_is_bit_identical(self, field, campaign):
        base = run_campaign(SimulatedNode(CPU, seed=0), SZCompressor(),
                            field, 1e-2, campaign)
        uncapped = run_campaign(SimulatedNode(CPU, seed=0), SZCompressor(),
                                field, RunConfig(1e-2, power_budget_w=None),
                                campaign)
        assert encode_value(uncapped) == encode_value(base)

    def test_budget_caps_the_campaign_io_power(self, field, campaign):
        free = run_campaign(SimulatedNode(CPU, seed=0), SZCompressor(),
                            field, 1e-2, campaign)
        capped = run_campaign(SimulatedNode(CPU, seed=0), SZCompressor(),
                              field, RunConfig(1e-2, power_budget_w=18.0),
                              campaign)
        assert capped.io_time_s > free.io_time_s
        caps = phase_caps_for_budget(CPU, CURVE, 18.0)
        assert max(caps.values()) < CPU.fmax_ghz

    def test_capped_sweep_is_backend_identical(self, field, campaign):
        points = (
            RunConfig(error_bound=1e-2, power_budget_w=18.0),
            RunConfig(error_bound=1e-3, power_budget_w=18.0),
        )
        kw = dict(repeats=1, seed=0)
        # Uncached, or the second sweep would replay the first's entries.
        with use_cache(ResultCache(enabled=False)):
            baseline = run_campaign_sweep(
                CPU, SZCompressor(), field, points, campaign,
                executor="serial", **kw)
            under_test = run_campaign_sweep(
                CPU, SZCompressor(), field, points, campaign,
                executor=EXECUTOR, **kw)
        assert encode_value(list(under_test)) == encode_value(list(baseline))

    def test_tighter_point_budget_clamps_harder(self, field, campaign):
        own, inherited = run_campaign_sweep(
            CPU, SZCompressor(), field,
            (
                RunConfig(error_bound=1e-2, power_budget_w=17.0),
                RunConfig(error_bound=1e-2, power_budget_w=19.0),
            ),
            campaign, repeats=1,
        )
        # The tighter budget clamps harder than the looser one beside
        # it in the same sweep.
        assert own.io_time_s >= inherited.io_time_s

    def test_sweep_rejects_bad_budgets(self, field, campaign):
        with pytest.raises(ValueError, match="power_budget_w"):
            run_campaign_sweep(
                CPU, SZCompressor(), field,
                (RunConfig(1e-2, power_budget_w=-5.0),), campaign)


class TestCacheNoAliasing:
    def test_budget_is_part_of_the_point_fingerprint(self):
        def key(point):
            return fingerprint(kind="campaign.point", point=point)

        bare = RunConfig(error_bound=1e-2)
        capped = RunConfig(error_bound=1e-2, power_budget_w=18.0)
        tighter = RunConfig(error_bound=1e-2, power_budget_w=16.0)
        assert len({key(bare), key(capped), key(tighter)}) == 3

    def test_point_rejects_non_positive_budgets(self):
        with pytest.raises(ValueError):
            RunConfig(error_bound=1e-2, power_budget_w=0.0)


def _slow_square(x):
    time.sleep(0.15)
    return x * x


def _wait_for_fleet(controller, n, timeout_s=10.0):
    """Workers are admitted asynchronously; poll until *n* registered."""
    deadline = time.monotonic() + timeout_s
    while len(controller.node_ids()) != n:
        if time.monotonic() > deadline:
            pytest.fail(
                f"fleet never reached {n} nodes: {controller.node_ids()}")
        time.sleep(0.05)


@pytest.mark.skipif(EXECUTOR != "distributed",
                    reason="fleet cap sync needs the distributed backend")
class TestDistributedFleetCaps:
    def test_attach_joins_the_live_fleet_and_broadcasts(self):
        from repro.distributed import DistributedExecutor

        ctl = ClusterCapController(100.0, nfs_reserve_w=40.0)
        with DistributedExecutor(2, heartbeat_s=0.2,
                                 heartbeat_timeout_s=10.0) as ex:
            ex.attach_powercap(ctl, CPU, CURVE)
            # The fleet assembles lazily on the first map; each admit
            # then joins the controller and broadcasts its cap frame.
            assert ex.map(_slow_square, [1, 2, 3]) == [1, 4, 9]
            _wait_for_fleet(ctl, 2)
            assert all(n.startswith("worker-") for n in ctl.node_ids())
            caps = ctl.caps()
            assert sum(c.cap_w for c in caps.values()) <= 60.0 + 1e-6

    def test_dead_worker_watts_redistribute(self):
        from repro.distributed import DistributedExecutor

        ctl = ClusterCapController(68.0, nfs_reserve_w=40.0)
        ex = DistributedExecutor(2, heartbeat_s=0.2,
                                 heartbeat_timeout_s=2.0)
        try:
            ex.attach_powercap(ctl, CPU, CURVE)
            assert ex.map(_slow_square, [1, 2]) == [1, 4]
            _wait_for_fleet(ctl, 2)
            before = ctl.caps()
            # 28 W cannot float two broadwell nodes above the floor.
            assert any(c.infeasible for c in before.values())
            victim = ex.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            # The map rides through the death (shard reassignment) and
            # the coordinator prunes the fleet as a side effect.
            assert ex.map(_slow_square, list(range(8))) == [
                x * x for x in range(8)]
            deadline = time.monotonic() + 10.0
            while len(ctl.node_ids()) > 1:
                if time.monotonic() > deadline:
                    pytest.fail("controller never saw the worker die")
                time.sleep(0.1)
            after = ctl.caps()
            (survivor_cap,) = after.values()
            # The whole node budget now belongs to the survivor.
            assert not survivor_cap.infeasible
            assert survivor_cap.cap_w >= max(
                c.cap_w for c in before.values()) - 1e-9
        finally:
            ex.close()
