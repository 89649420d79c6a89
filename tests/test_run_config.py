"""One ``RunConfig`` describes what a dump runs.

The bound, the stage clocks or a governor, a watt budget and a fault
plan travel as one frozen value from the CLI through the sweep and the
campaign to ``DataDumper.dump``, which alone reads the clocks, the
budget and the plan. These tests cover how the type validates and
normalizes its fields, that one config gives the same dump whichever
layer runs it, and that the subcommands built on it print what they
printed when each setting was its own keyword (stdout digests pinned
from that code).

CI runs this file in the resilience and result-cache jobs under the
serial/thread/process ``REPRO_TEST_EXECUTOR`` matrix.
"""

import hashlib
import io
import json
import os
import pickle
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

from repro.cache import ResultCache, encode_value, fingerprint, use_cache
from repro.cli import main
from repro.compressors import SZCompressor
from repro.data import load_field
from repro.governor import GovernorSpec, StaticGovernor, make_governor
from repro.hardware.cpu import BROADWELL_D1548
from repro.hardware.node import SimulatedNode
from repro.iosim.dumper import DataDumper, RunConfig
from repro.resilience import FaultKind, FaultPlan, FaultSpec
from repro.workflow.campaign import (
    CheckpointCampaign,
    run_campaign,
    run_campaign_sweep,
)

EXECUTOR = os.environ.get("REPRO_TEST_EXECUTOR", "serial")
CPU = BROADWELL_D1548
GB = int(1e9)
CAMPAIGN = CheckpointCampaign(
    snapshot_bytes=4 * GB, n_snapshots=1, compute_interval_s=60.0
)
PLAN = FaultPlan(specs=(
    FaultSpec(FaultKind.NFS_TRANSIENT_ERROR, attempts=1, severity=0.5),
    FaultSpec(FaultKind.NFS_STALL, probability=0.5, stall_s=5.0),
), seed=3)
ADAPTIVE = GovernorSpec(kind="adaptive")

#: One config of each shape a dump takes.
CONFIGS = {
    "bare": RunConfig(1e-2),
    "pinned": RunConfig(1e-2, compress_freq_ghz=1.6, write_freq_ghz=1.5),
    "governed": RunConfig(1e-2, governor="static"),
    "capped-governed": RunConfig(1e-3, governor=ADAPTIVE, power_budget_w=18.0),
    "faulted": RunConfig(1e-2, fault_plan=PLAN),
}


@pytest.fixture(scope="module")
def field():
    return load_field("nyx", "velocity_x", scale=32)


@pytest.fixture(autouse=True)
def uncached():
    """Every run computes, so no run replays another's cache entry."""
    with use_cache(ResultCache(enabled=False)):
        yield


class TestGovernorField:
    def test_none_stays_none(self):
        assert RunConfig(1e-2).governor is None

    def test_a_policy_name_becomes_its_spec(self):
        run = RunConfig(1e-2, governor="static")
        assert run.governor == GovernorSpec(kind="static")
        assert run == RunConfig(1e-2, governor=GovernorSpec(kind="static"))

    def test_a_spec_is_kept(self):
        spec = GovernorSpec(kind="adaptive", seed=4, window=16)
        assert RunConfig(1e-2, governor=spec).governor is spec

    @pytest.mark.parametrize("value", [42, StaticGovernor(CPU)])
    def test_any_other_value_is_rejected(self, value):
        with pytest.raises(ValueError, match="governor= argument"):
            RunConfig(1e-2, governor=value)

    def test_name_and_spec_share_one_cache_key(self):
        def key(run):
            return fingerprint(kind="campaign.point", point=run)

        assert key(RunConfig(1e-2, governor="adaptive")) == key(
            RunConfig(1e-2, governor=ADAPTIVE))


class TestValidation:
    @pytest.mark.parametrize("budget", [0.0, -5.0, float("nan"),
                                        float("inf"), "30"])
    def test_budget_is_checked_like_every_watt_budget(self, budget):
        with pytest.raises(ValueError, match="power_budget_w"):
            RunConfig(1e-2, power_budget_w=budget)

    def test_an_integer_budget_keys_like_its_float(self):
        run = RunConfig(1e-2, power_budget_w=30)
        assert run.power_budget_w == 30.0
        assert isinstance(run.power_budget_w, float)
        assert fingerprint(point=run) == fingerprint(
            point=RunConfig(1e-2, power_budget_w=30.0))

    def test_fault_plan_must_be_a_plan(self):
        with pytest.raises(ValueError, match="FaultPlan"):
            RunConfig(1e-2, fault_plan=PLAN.as_dict())

    def test_a_bare_bound_is_a_config(self):
        assert RunConfig.of(1e-2) == RunConfig(1e-2)
        run = CONFIGS["faulted"]
        assert RunConfig.of(run) is run

    def test_frozen_and_picklable(self):
        for run in CONFIGS.values():
            assert pickle.loads(pickle.dumps(run)) == run
        with pytest.raises(AttributeError):
            CONFIGS["bare"].error_bound = 1.0

    def test_the_plan_and_its_policy_join_the_key(self):
        def key(run):
            return fingerprint(kind="campaign.point", point=run)

        strict = replace(PLAN, policy_doc={"failover": False})
        keys = {key(RunConfig(1e-2)), key(RunConfig(1e-2, fault_plan=PLAN)),
                key(RunConfig(1e-2, fault_plan=strict))}
        assert len(keys) == 3


class TestLiveGovernor:
    def test_pinned_campaign_rejects_a_live_governor(self, field):
        with pytest.raises(ValueError, match="cannot pin"):
            run_campaign(
                SimulatedNode(CPU, seed=0), SZCompressor(), field,
                CONFIGS["pinned"], CAMPAIGN, repeats=1,
                governor=StaticGovernor(CPU),
            )

    def test_a_live_governor_steers_instead_of_the_spec(self, field):
        # The caller keeps the governor and reads what it decided; the
        # run's spec builds an equal one, so the reports agree.
        node = SimulatedNode(CPU, seed=0)
        live = make_governor("adaptive", CPU, power_curve=node.power_curve)
        run = CONFIGS["capped-governed"]
        steered = run_campaign(node, SZCompressor(), field, run, CAMPAIGN,
                               repeats=1, governor=live)
        built = run_campaign(SimulatedNode(CPU, seed=0), SZCompressor(),
                             field, run, CAMPAIGN, repeats=1)
        assert len(live.trace) == 2
        assert steered.governor == live.report()
        assert encode_value(steered) == encode_value(built)


def first_snapshot_three_ways(field, run):
    """The first snapshot of *run* from a direct dump, a one-snapshot
    campaign and a one-point serial sweep, each on a fresh seed-0 node."""
    direct = DataDumper(SimulatedNode(CPU, seed=0), repeats=1).dump(
        SZCompressor(), field, run, CAMPAIGN.snapshot_bytes)
    campaign = run_campaign(SimulatedNode(CPU, seed=0), SZCompressor(),
                            field, run, CAMPAIGN, repeats=1)
    (swept,) = run_campaign_sweep(CPU, SZCompressor(), field, (run,),
                                  CAMPAIGN, repeats=1, seed=0,
                                  executor="serial")
    return direct, campaign.snapshots[0], swept.snapshots[0]


class TestOneConfigThreeWays:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_dump_campaign_and_sweep_agree(self, field, name):
        direct, campaign, swept = first_snapshot_three_ways(
            field, CONFIGS[name])
        assert encode_value(campaign) == encode_value(direct)
        assert encode_value(swept) == encode_value(direct)

    def test_the_configs_run_differently(self, field):
        reports = {
            name: encode_value(first_snapshot_three_ways(field, run)[0])
            for name, run in CONFIGS.items()
        }
        assert len(set(reports.values())) == len(CONFIGS)
        faulted = first_snapshot_three_ways(field, CONFIGS["faulted"])[0]
        assert faulted.resilience.attempts == 2

    def test_sweep_is_backend_identical(self, field):
        points = tuple(CONFIGS.values())

        def sweep(executor):
            return run_campaign_sweep(
                CPU, SZCompressor(), field, points, CAMPAIGN, repeats=1,
                seed=0, executor=executor,
                workers=None if executor == "serial" else 2,
            )

        assert encode_value(sweep(EXECUTOR)) == encode_value(sweep("serial"))


#: The fault plan the CLI pins load from a file.
CLI_PLAN = {
    "seed": 3,
    "faults": [
        {"kind": "nfs-transient-error", "probability": 1.0, "snapshots": [0],
         "attempts": 1, "severity": 0.5},
        {"kind": "nfs-stall", "probability": 0.5, "stall_s": 5.0},
    ],
    "policy": {"retry": {"max_attempts": 3}, "failover": True},
}
#: (argv, sha256 of stdout), taken when every setting was its own
#: keyword through the dumper, campaign and sweep. ``{plan}`` is the
#: plan file's path.
CLI_PINS = [
    (["dump", "--arch", "skylake", "--scale", "32", "--target-gb", "8"],
     "60e74ed2804bfa44bf72287762926ffe02dd348a04fa8e9c06d7f3642f41dbaa"),
    (["dump", "--arch", "broadwell", "--scale", "32", "--target-gb", "8",
      "--governor", "adaptive", "--power-budget-w", "18",
      "--fault-plan", "{plan}"],
     "f6461b0afa7d3868848f55e8e363ac2d4ee2d2a25f453fcc8f2bebe17eeda0ce"),
    (["campaign", "--snapshots", "2", "--snapshot-gb", "8", "--scale", "32",
      "--executor", "serial"],
     "91a2813fdedf34adb746d96e75bfff1b41900b1182fddf341d93b86103faba3f"),
    (["campaign", "--arch", "broadwell", "--snapshots", "2",
      "--snapshot-gb", "8", "--scale", "32", "--executor", "serial",
      "--governor", "adaptive", "--power-budget-w", "18",
      "--fault-plan", "{plan}"],
     "856c1e5a4b5673a39a1e99553de929602cba527c6bb72f6d1ca2ae8d77bef3a9"),
    (["govern", "--snapshots", "3", "--snapshot-gb", "1", "--scale", "32",
      "--governor", "adaptive", "--fault-plan", "{plan}"],
     "900818e017fdfaf363d8c00dbed5d4ea0798856fc77e1173a57d5df2d5d2eaf7"),
    (["cluster", "--nodes", "4", "--per-node-gb", "8", "--scale", "32"],
     "d48e24720913bed4d60d4162a73f3fbe91e95dc577a2072ad2b404e52b5d3890"),
]


class TestCliPins:
    @pytest.mark.parametrize("argv, expected", CLI_PINS,
                             ids=[f"{i}-{a[0]}" for i, (a, _) in
                                  enumerate(CLI_PINS)])
    def test_stdout_is_unchanged(self, tmp_path, argv, expected):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(CLI_PLAN))
        out = io.StringIO()
        with redirect_stdout(out):
            code = main([a.format(plan=plan) for a in argv])
        assert code == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == expected
