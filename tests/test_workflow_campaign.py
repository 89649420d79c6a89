"""Unit tests for the checkpoint-campaign simulation.

CI runs this file under the serial/thread/process ``REPRO_TEST_EXECUTOR``
matrix of the result-cache job and once more with the distributed
fleet; the measure-once tests below also name all four backends
themselves.
"""

import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.cache import ResultCache, encode_value, fingerprint, set_cache
from repro.compressors import SZCompressor, get_compressor
from repro.data import load_field
from repro.hardware.cpu import SKYLAKE_4114
from repro.hardware.node import SimulatedNode
from repro.observability import get_registry
from repro.resilience import FaultKind, FaultPlan, FaultSpec
from repro.workflow.campaign import (
    CampaignPoint,
    CampaignReport,
    CheckpointCampaign,
    run_campaign,
    run_campaign_sweep,
)

#: CI matrix knob for the tests that run one backend per leg.
EXECUTOR = os.environ.get("REPRO_TEST_EXECUTOR", "serial")
EXECUTORS = ("serial", "thread", "process", "distributed")


@pytest.fixture(scope="module")
def sample():
    return load_field("nyx", "velocity_x", scale=32)


@pytest.fixture(autouse=True)
def uncached():
    """Every sweep computes: a warm process cache would let a pooled
    sweep replay the serial one's entries instead of running."""
    previous = set_cache(ResultCache(enabled=False))
    yield
    set_cache(previous if previous is not None else ResultCache())


@pytest.fixture
def node():
    return SimulatedNode(SKYLAKE_4114, power_noise=0.0, runtime_noise=0.0, seed=0)


CAMPAIGN = CheckpointCampaign(
    snapshot_bytes=int(32e9), n_snapshots=4, compute_interval_s=1800.0
)


class TestCampaignConfig:
    @pytest.mark.parametrize("kwargs", [
        {"snapshot_bytes": 0, "n_snapshots": 1, "compute_interval_s": 1.0},
        {"snapshot_bytes": 1, "n_snapshots": 0, "compute_interval_s": 1.0},
        {"snapshot_bytes": 1, "n_snapshots": 1, "compute_interval_s": -1.0},
        {"snapshot_bytes": 1, "n_snapshots": 1, "compute_interval_s": 1.0,
         "compute_power_w": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CheckpointCampaign(**kwargs)


class TestRunCampaign:
    def test_totals(self, node, sample):
        rep = run_campaign(node, SZCompressor(), sample, 1e-2, CAMPAIGN, repeats=1)
        assert len(rep.snapshots) == 4
        assert rep.compute_time_s == pytest.approx(4 * 1800.0)
        assert rep.compute_energy_j == pytest.approx(4 * 1800.0 * 38.0)
        assert rep.total_energy_j == pytest.approx(
            rep.io_energy_j + rep.compute_energy_j
        )
        assert 0 < rep.io_time_fraction < 1

    def test_io_fraction_small_for_long_compute(self, node, sample):
        # The paper's premise: I/O is a small share of the campaign, so
        # the tuned runtime penalty is diluted.
        long_compute = CheckpointCampaign(
            snapshot_bytes=int(32e9), n_snapshots=2, compute_interval_s=36000.0
        )
        rep = run_campaign(node, SZCompressor(), sample, 1e-2, long_compute,
                           repeats=1)
        assert rep.io_time_fraction < 0.02

    def test_tuning_saves_io_energy_with_tiny_wall_penalty(self, node, sample):
        base = run_campaign(node, SZCompressor(), sample, 1e-2, CAMPAIGN, repeats=1)
        tuned = run_campaign(
            node, SZCompressor(), sample, 1e-2, CAMPAIGN,
            compress_freq_ghz=1.925, write_freq_ghz=1.85, repeats=1,
        )
        assert tuned.io_energy_j < base.io_energy_j
        wall_penalty = tuned.total_wall_s / base.total_wall_s - 1.0
        io_saving = 1.0 - tuned.io_energy_j / base.io_energy_j
        assert io_saving > 0.10
        assert wall_penalty < 0.02  # diluted by the compute phases

    def test_io_energy_scales_with_snapshots(self, node, sample):
        two = CheckpointCampaign(int(32e9), 2, 100.0)
        six = CheckpointCampaign(int(32e9), 6, 100.0)
        r2 = run_campaign(node, SZCompressor(), sample, 1e-2, two, repeats=1)
        r6 = run_campaign(node, SZCompressor(), sample, 1e-2, six, repeats=1)
        assert r6.io_energy_j == pytest.approx(3 * r2.io_energy_j, rel=0.01)


SWEEP_CAMPAIGN = CheckpointCampaign(
    snapshot_bytes=int(16e9), n_snapshots=2, compute_interval_s=600.0
)


class TestCampaignSweep:
    def test_points_match_fresh_node_runs(self, sample):
        reports = run_campaign_sweep(
            SKYLAKE_4114, "sz", sample, (1e-1, 1e-2), SWEEP_CAMPAIGN,
            repeats=1, executor="serial",
        )
        assert len(reports) == 2
        for eb, rep in zip((1e-1, 1e-2), reports):
            expected = run_campaign(
                SimulatedNode(SKYLAKE_4114, seed=0), SZCompressor(), sample,
                eb, SWEEP_CAMPAIGN, repeats=1,
            )
            assert rep.io_energy_j == pytest.approx(expected.io_energy_j)

    @pytest.mark.parametrize("executor", EXECUTORS[1:])
    def test_pool_backends_reproduce_serial(self, sample, executor):
        kwargs = dict(repeats=1, seed=3)
        serial = run_campaign_sweep(
            SKYLAKE_4114, "sz", sample, (1e-1, 1e-2, 1e-3), SWEEP_CAMPAIGN,
            executor="serial", **kwargs,
        )
        pooled = run_campaign_sweep(
            SKYLAKE_4114, "sz", sample, (1e-1, 1e-2, 1e-3), SWEEP_CAMPAIGN,
            executor=executor, workers=2, **kwargs,
        )
        for a, b in zip(serial, pooled):
            assert a.io_energy_j == b.io_energy_j
            assert a.io_time_s == b.io_time_s

    def test_tuned_points_save_energy(self, sample):
        base = CampaignPoint(error_bound=1e-2)
        tuned = CampaignPoint(
            error_bound=1e-2, compress_freq_ghz=1.925, write_freq_ghz=1.85
        )
        reports = run_campaign_sweep(
            SKYLAKE_4114, SZCompressor(), sample, (base, tuned),
            SWEEP_CAMPAIGN, repeats=1, executor="serial",
        )
        assert reports[1].io_energy_j < reports[0].io_energy_j

    def test_validation(self, sample):
        with pytest.raises(ValueError):
            run_campaign_sweep(SKYLAKE_4114, "sz", sample, (), SWEEP_CAMPAIGN)
        with pytest.raises(KeyError):
            run_campaign_sweep(SKYLAKE_4114, "lz4", sample, (1e-2,),
                               SWEEP_CAMPAIGN)
        with pytest.raises(ValueError):
            CampaignPoint(error_bound=-1.0)


MEASURE_CAMPAIGN = CheckpointCampaign(
    snapshot_bytes=int(8e9), n_snapshots=2, compute_interval_s=600.0
)
CLOCKS = dict(compress_freq_ghz=1.925, write_freq_ghz=1.85)
#: Two bounds, interleaved with pinned-clock twins, so per-bound tasks
#: must scatter their reports back to the right points.
MIXED = (1e-1, 1e-2, CampaignPoint(1e-1, **CLOCKS), CampaignPoint(1e-2, **CLOCKS))
MEASURE_SWEEPS = {
    "pinned": dict(points=MIXED),
    "adaptive": dict(points=MIXED, governor="adaptive"),
    "adaptive-budget": dict(
        codec="zfp", points=MIXED, governor="adaptive", power_budget_w=30.0
    ),
    "nfs-faults": dict(points=MIXED, fault_plan=FaultPlan(specs=(
        FaultSpec(FaultKind.NFS_HARD_FAILURE, snapshots=(0,)),
        FaultSpec(FaultKind.NFS_TRANSIENT_ERROR, snapshots=(1,), attempts=1),
    ), seed=42)),
    # 16 KiB field in 4 KiB slabs: slab 1 crashes on snapshot 0, chunk
    # 2 takes a bit flip on snapshot 1.
    "chunked-faults": dict(points=MIXED, chunk_bytes=4096, fault_plan=FaultPlan(
        specs=(
            FaultSpec(FaultKind.WORKER_CRASH, snapshots=(0,), targets=(1,)),
            FaultSpec(FaultKind.BIT_FLIP, snapshots=(1,), targets=(2,)),
        ), seed=5)),
}
#: sha256 of ``encode_value`` over each sweep's reports, slab timings
#: zeroed, as computed by the per-point sweep that measured the sample
#: once per snapshot (identical under all four backends there too).
MEASURE_PINS = {
    "pinned": "be9689a5959725436e138412039c62b99c179946bc36b2da0111aa1d424f3660",
    "adaptive": "a9a43c26d12ecbafc6e546f95b4950fe7b8ba9fa8f5385a0e7c8e3439a15d93e",
    "adaptive-budget":
        "b11d3b75d8f601a611bbbc174ad0523b0be29dcc569fbb8923246484bfb0e397",
    "nfs-faults": "a7055f6fc48443c8a6a4ac6033e147e4b3bb6d04cad1a0935e1556946117696a",
    "chunked-faults":
        "5fd80698215c68679a8ef8f6e9932f0a613a12bc4698f820e13f5ccb8b68d573",
}


def measure_sweep(name, field, executor):
    spec = dict(MEASURE_SWEEPS[name])
    codec, points = spec.pop("codec", "sz"), spec.pop("points")
    return run_campaign_sweep(
        SKYLAKE_4114, codec, field, points, MEASURE_CAMPAIGN, repeats=1,
        seed=0, executor=executor, workers=2, **spec,
    )


def untimed_digest(reports):
    """Digest of the reports with every slab wall clock zeroed."""
    def untimed(stats):
        if stats is None:
            return None
        tasks = tuple(replace(t, wall_s=0.0) for t in stats.tasks)
        return replace(stats, wall_s=0.0, tasks=tasks)

    stripped = [
        replace(rep, snapshots=tuple(
            replace(s, parallel=untimed(s.parallel)) for s in rep.snapshots
        ))
        for rep in reports
    ]
    return hashlib.sha256(encode_value(stripped).encode()).hexdigest()


def compress_calls():
    return sum(
        m.value for m in get_registry().metrics()
        if m.name == "repro_compress_calls_total"
    )


class TestMeasureOnce:
    """The sample is compressed once per (codec, bound), never per point."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("name", sorted(MEASURE_SWEEPS))
    def test_reports_match_the_per_point_pins(self, sample, name, executor):
        reports = measure_sweep(name, sample, executor)
        assert untimed_digest(reports) == MEASURE_PINS[name]

    def test_chunked_faults_land_on_their_snapshots(self, sample):
        reports = measure_sweep("chunked-faults", sample, "serial")
        for rep in reports:
            crashed, flipped = rep.snapshots
            assert crashed.parallel.retried_tasks == (1,)
            assert crashed.resilience.faults == ("worker-crash",)
            assert flipped.parallel.retried_tasks == ()
            assert flipped.resilience.faults == ("bit-flip",)
            assert crashed.compression_ratio == flipped.compression_ratio

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_sweep_compresses_once_per_bound(self, sample, executor):
        points = tuple(
            CampaignPoint(bound, **extra)
            for bound in (1e-1, 1e-2, 1e-3)
            for extra in (
                CLOCKS,
                dict(governor="adaptive"),
                dict(governor="adaptive", power_budget_w=30.0),
            )
        )
        before = compress_calls()
        run_campaign_sweep(
            SKYLAKE_4114, "sz", sample, points, MEASURE_CAMPAIGN, repeats=1,
            executor=executor, workers=2,
        )
        assert compress_calls() - before == 3

    def test_campaign_compresses_once(self, node, sample):
        before = compress_calls()
        run_campaign(node, SZCompressor(), sample, 1e-2, CAMPAIGN, repeats=1)
        assert compress_calls() - before == 1

    def test_slab_faulted_snapshot_measures_again(self, node, sample):
        # 16 KiB in 4 KiB slabs: one measurement is four slab compresses.
        kw = dict(repeats=1, chunk_bytes=4096, executor="serial")
        before = compress_calls()
        run_campaign(node, SZCompressor(), sample, 1e-2, CAMPAIGN, **kw)
        assert compress_calls() - before == 4
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.WORKER_CRASH, snapshots=(2,), targets=(1,)),
        ))
        before = compress_calls()
        report = run_campaign(
            node, SZCompressor(), sample, 1e-2, CAMPAIGN, fault_plan=plan, **kw
        )
        assert compress_calls() - before == 8
        assert [s.parallel.retried_tasks for s in report.snapshots] == [
            (), (), (1,), (),
        ]

    @pytest.mark.parametrize("executor", ["process", "distributed"])
    def test_one_bound_sweep_matches_serial(self, sample, executor):
        points = (
            CampaignPoint(1e-2),
            CampaignPoint(1e-2, **CLOCKS),
            CampaignPoint(1e-2, governor="adaptive", power_budget_w=30.0),
        )

        def sweep(executor):
            return run_campaign_sweep(
                SKYLAKE_4114, "sz", sample, points, MEASURE_CAMPAIGN,
                repeats=1, executor=executor, workers=2,
            )

        assert encode_value(sweep(executor)) == encode_value(sweep("serial"))


@pytest.fixture(scope="module")
def cloud_level():
    """A 2-D field on which SZ's predictors give different ratios."""
    return load_field("cesm-atm", "CLDHGH", scale=32)[0]


class TestConfiguredCompressor:
    def test_configured_sweep_equals_direct_runs(self, cloud_level):
        codec = SZCompressor(predictor="regression")
        points = (1e-2, 1e-3, CampaignPoint(1e-3, **CLOCKS))
        reports = run_campaign_sweep(
            SKYLAKE_4114, codec, cloud_level, points, MEASURE_CAMPAIGN,
            repeats=1, executor=EXECUTOR, workers=2,
        )
        for point, rep in zip(points, reports):
            point = point if isinstance(point, CampaignPoint) else CampaignPoint(point)
            direct = run_campaign(
                SimulatedNode(SKYLAKE_4114, seed=0),
                SZCompressor(predictor="regression"), cloud_level,
                point.error_bound, MEASURE_CAMPAIGN, repeats=1,
                compress_freq_ghz=point.compress_freq_ghz,
                write_freq_ghz=point.write_freq_ghz,
            )
            assert encode_value(rep) == encode_value(direct)
        default = run_campaign_sweep(
            SKYLAKE_4114, "sz", cloud_level, (1e-3,), MEASURE_CAMPAIGN,
            repeats=1, executor="serial",
        )
        assert (reports[1].snapshots[0].compression_ratio
                < default[0].snapshots[0].compression_ratio)

    def test_configured_entries_do_not_alias_the_default(self, cloud_level):
        cache = ResultCache()
        set_cache(cache)
        kwargs = dict(repeats=1, executor="serial")
        for codec in ("sz", SZCompressor(), SZCompressor(predictor="regression")):
            run_campaign_sweep(
                SKYLAKE_4114, codec, cloud_level, (1e-3,), MEASURE_CAMPAIGN,
                **kwargs,
            )
        # The name and a default instance share one entry; the
        # regression-only codec gets its own.
        assert cache.stats()["misses"] == 2
        assert cache.stats()["hits"] == 1


class _RecordingCache(ResultCache):
    """Answers every lookup as a hit and records its key, so a sweep
    computes nothing and hands back only the keys it built."""

    def __init__(self):
        super().__init__()
        self.keys = []

    def lookup(self, key, context="generic", record_miss=True):
        self.keys.append(key)
        return True, None


class TestPointKeys:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        field=arrays(
            st.sampled_from([np.float32, np.float64]),
            array_shapes(min_dims=1, max_dims=3, max_side=5),
            elements=st.floats(-1e3, 1e3, width=32),
        ),
        bounds=st.lists(st.sampled_from([1e-1, 1e-2, 1e-3]), min_size=1,
                        max_size=4),
        clocks=st.booleans(),
        seed=st.integers(0, 3),
        codec=st.sampled_from(["sz", "zfp"]),
    )
    def test_each_key_is_the_fingerprint_of_its_parts(
        self, field, bounds, clocks, seed, codec
    ):
        points = tuple(
            CampaignPoint(b, **(CLOCKS if clocks else {})) for b in bounds
        )
        cache = _RecordingCache()
        set_cache(cache)
        run_campaign_sweep(
            SKYLAKE_4114, codec, field, points, MEASURE_CAMPAIGN, repeats=1,
            seed=seed,
        )
        assert cache.keys == [
            fingerprint(
                kind="campaign.point", cpu=SKYLAKE_4114,
                codec=get_compressor(codec), field=field,
                campaign=MEASURE_CAMPAIGN, nfs=None, repeats=1, seed=seed,
                fault_plan=None, chunk=None, point=point,
            )
            for point in points
        ]

    def test_field_changed_in_place_is_a_miss(self, sample):
        cache = ResultCache()
        set_cache(cache)
        field = sample.copy()

        def sweep():
            return run_campaign_sweep(
                SKYLAKE_4114, "sz", field, (1e-2,), MEASURE_CAMPAIGN,
                repeats=1, executor="serial",
            )

        first = sweep()
        field *= 3.0
        second = sweep()
        assert cache.stats()["misses"] == 2
        set_cache(ResultCache(enabled=False))
        assert encode_value(second) == encode_value(sweep())
        assert encode_value(second) != encode_value(first)
