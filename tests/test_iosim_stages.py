"""Every I/O pipeline runs its stages through one runner.

``DataDumper``, the fleet (``Cluster``/``SimulatedCluster``),
``TieredDumper``, ``SnapshotDumper``, ``DataLoader`` and
``simulate_governed_io`` pin a clock per stage, run the stage
``repeats`` times and average the node's measurements. These tests pin
the exact reports of each pipeline (sha256 of ``repr(report)``;
dataclass reprs print floats exactly), check that a clean run puts one
stage span per modeled stage on the trace and that their joules add up
to the report's, and cover the fleet's handling of nodes that left its
power-cap controller.
"""

import hashlib
import math
import os

import numpy as np
import pytest

from repro.compressors import SZCompressor, ZFPCompressor, get_compressor
from repro.core.pipeline import TunedIOPipeline
from repro.data import load_field
from repro.governor import make_governor, simulate_governed_io
from repro.governor.phases import phase_for_kind, phase_for_span
from repro.hardware.cpu import BROADWELL_D1548, SKYLAKE_4114
from repro.hardware.node import SimulatedNode
from repro.hardware.powercurves import CalibratedPowerCurve
from repro.hardware.workload import stage_kind
from repro.iosim import (
    DataDumper,
    DataLoader,
    RunConfig,
    SnapshotDumper,
    TieredDumper,
)
from repro.iosim.cluster import Cluster, SimulatedCluster
from repro.iosim.snapshot import SnapshotField, SnapshotSpec
from repro.observability import Tracer, get_registry, use_tracer
from repro.powercap import phase_caps_for_budget
from repro.resilience import FaultKind, FaultPlan, FaultSpec
from repro.service.errors import BadRequestError
from repro.service.handlers import RequestHandlers
from repro.workflow.campaign import CheckpointCampaign, run_campaign

#: CI's resilience job runs this file under each executor backend.
EXECUTOR = os.environ.get("REPRO_TEST_EXECUTOR", "serial")
GB = int(1e9)


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.fixture(scope="module")
def sample():
    return load_field("nyx", "velocity_x", scale=32)


def fleet_base(sample):
    return Cluster(SKYLAKE_4114, 4, seed=0, repeats=2).dump_all(
        SZCompressor(), sample, 1e-2, 16 * GB)


def fleet_pinned(sample):
    return Cluster(SKYLAKE_4114, 4, seed=0, repeats=2).dump_all(
        SZCompressor(), sample, 1e-2, 16 * GB,
        compress_freq_ghz=1.75, write_freq_ghz=1.35)


def fleet_capped(sample):
    return SimulatedCluster(
        BROADWELL_D1548, 4, seed=1, repeats=2,
        power_budget_w=100.0, nfs_reserve_w=40.0,
    ).dump_all(SZCompressor(), sample, 1e-2, GB)


def fleet_capped_governed(sample):
    cluster = SimulatedCluster(
        BROADWELL_D1548, 4, seed=2, repeats=2,
        power_budget_w=110.0, governor="adaptive",
    )
    reports = [
        cluster.dump_all(ZFPCompressor(), sample, 1e-2, GB) for _ in range(2)
    ]
    return reports, [g.report() for g in cluster._governors]


def fleet_governed(sample):
    cluster = SimulatedCluster(
        SKYLAKE_4114, 3, seed=3, repeats=2, governor="adaptive")
    reports = [
        cluster.dump_all(SZCompressor(), sample, 1e-3, GB) for _ in range(2)
    ]
    return reports, [g.report() for g in cluster._governors]


def tiered(sample):
    return TieredDumper(SimulatedNode(BROADWELL_D1548, seed=4), repeats=3).dump(
        SZCompressor(), sample, 1e-2, 8 * GB,
        compress_freq_ghz=1.75, drain_freq_ghz=1.7)


def snapshot(sample):
    spec = SnapshotSpec(fields=(
        SnapshotField("velocity_x", sample, 1e-2, 4 * GB),
        SnapshotField("density", np.ascontiguousarray(sample[::-1]), 1e-4,
                      2 * GB),
    ))
    return SnapshotDumper(SimulatedNode(SKYLAKE_4114, seed=5), repeats=3).dump(
        ZFPCompressor(), spec, write_freq_ghz=1.6)


def restore(sample):
    return DataLoader(SimulatedNode(BROADWELL_D1548, seed=6), repeats=3).restore(
        SZCompressor(), sample, 1e-3, 8 * GB, read_freq_ghz=1.7)


def governed_io(sample):
    node = SimulatedNode(BROADWELL_D1548, seed=7)
    governor = make_governor(
        "adaptive", node.cpu, seed=7, power_curve=node.power_curve)
    return simulate_governed_io(node, governor, snapshots=6)


def dumper_throttled(sample):
    node = SimulatedNode(BROADWELL_D1548, seed=8)
    governor = make_governor(
        "adaptive", node.cpu, seed=8, power_curve=node.power_curve)
    plan = FaultPlan(specs=(
        FaultSpec(FaultKind.DVFS_THROTTLE, snapshots=(1,), severity=0.6),
    ))
    run = RunConfig(1e-2, power_budget_w=19.0, fault_plan=plan)
    dumper = DataDumper(node, repeats=2)
    reports = [
        dumper.dump(SZCompressor(), sample, run, 8 * GB,
                    snapshot_index=index, governor=governor)
        for index in range(3)
    ]
    return reports, governor.report()


#: sha256 of ``repr`` of each case's report(s), taken with the
#: per-pipeline stage loops these pipelines had before they shared one
#: stage runner.
PINS = {
    fleet_base: (
        "e240f0b3479a300aaadbe9d0ed09907b7f8540927099f50f35837ff2157d947f"
    ),
    fleet_pinned: (
        "b0ae0dc0f176c421dc74e08805a2ccd6da32d33ee2c5a7dee1a223c9b31d49a4"
    ),
    fleet_capped: (
        "dc368617dc36935f74a79961867a03cb4ac1fa53909e31ba9e82523e4221d90e"
    ),
    fleet_capped_governed: (
        "81c09153b00b5d468a2af19f723ff6a55cd1bf8ca0b3528b31af841ca5674997"
    ),
    fleet_governed: (
        "ca9079cc9448c341c13d37ceb7c8ca175608cc1f330623cde30ad5913d6cdb81"
    ),
    tiered: (
        "b614a2accb37795a663fadf4dadc8d6324c3dad27eb8417095a3675a6698ebf1"
    ),
    snapshot: (
        "0c075505c72313a4236bad37db3855ce8b217bda964aed97d211326ca85605e9"
    ),
    restore: (
        "77d7cdff65633c6ca58a11033f46c9c5aa72eb2cef4b008c6e53ba3e93f24c0e"
    ),
    governed_io: (
        "db71c6fd4b128a81eec6337426cba2d56cdfb6d85c58c2b332293ff71fe9bc47"
    ),
    dumper_throttled: (
        "df32cf0e3f478b22584b6f58025a1a9d30689a4a269335e8cd0ee5f261471757"
    ),
}


@pytest.mark.parametrize("case", list(PINS), ids=lambda case: case.__name__)
def test_reports_keep_their_bytes(sample, case):
    assert digest(case(sample)) == PINS[case]


def stage_spans(tracer):
    """Every span carrying modeled joules, in run order (stage spans
    run one after another, and a tracer keeps finished siblings and
    roots in the order they closed)."""
    return [
        sp for root in tracer.spans for sp, _ in root.walk()
        if "modeled_energy_j" in sp.attrs
    ]


def traced(run, sample):
    with use_tracer(Tracer()) as tracer:
        report = run(sample)
    return report, stage_spans(tracer)


def check_stages(spans, expected, energies):
    """*expected* lists each stage's span name and workload kind in run
    order; *energies* are the report's stage energies."""
    assert [sp.name for sp in spans] == [name for name, _ in expected]
    for name, kind in expected:
        assert phase_for_span(name) == phase_for_kind(kind)
    if energies is not None:
        assert math.fsum(sp.attrs["modeled_energy_j"] for sp in spans) == (
            math.fsum(energies)
        )


class TestStageSpans:
    """A clean run puts one stage span per modeled stage on the trace."""

    def test_dumper_keeps_its_tree(self, sample):
        dumper = DataDumper(SimulatedNode(BROADWELL_D1548, seed=0), repeats=2)
        with use_tracer(Tracer()) as tracer:
            report = dumper.dump(SZCompressor(), sample, 1e-2, GB)
        (root,) = tracer.spans
        assert root.name == "dump"
        assert list(root.attrs) == ["codec", "error_bound", "target_bytes"]
        assert [(c.name, list(c.attrs)) for c in root.children] == [
            ("dump.ratio", ["bytes_in", "ratio"]),
            ("dump.compress", ["bytes_in", "freq_ghz", "modeled_runtime_s",
                               "modeled_energy_j"]),
            ("dump.write", ["bytes_in", "freq_ghz", "modeled_runtime_s",
                            "modeled_energy_j"]),
        ]
        check_stages(
            stage_spans(tracer),
            [("dump.compress", stage_kind("compress", "sz")),
             ("dump.write", stage_kind("write"))],
            [report.compress.energy_j, report.write.energy_j],
        )

    @pytest.mark.parametrize("run", [fleet_capped, fleet_governed])
    def test_fleet_runs_one_span_per_node_and_phase(self, sample, run):
        result, spans = traced(run, sample)
        reports = result[0] if isinstance(result, tuple) else [result]
        report = reports[-1]
        n = report.nodes
        node_ids = [f"node{i:03d}" for i in range(n)]
        expected = (
            [("cluster.compress", stage_kind("compress", "sz"))] * n
            + [("cluster.write", stage_kind("write"))] * n
        ) * len(reports)
        check_stages(spans, expected, [
            stage.energy_j
            for rep in reports
            for phase in ("compress", "write")
            for stage in (getattr(r, phase) for r in rep.per_node)
        ])
        assert [sp.attrs["node_id"] for sp in spans] == node_ids * 2 * len(reports)

    def test_tiered(self, sample):
        report, spans = traced(tiered, sample)
        check_stages(spans, [
            ("tiered.compress", stage_kind("compress", "sz")),
            ("tiered.absorb", stage_kind("write")),
            ("tiered.drain", stage_kind("write")),
        ], [report.compress.energy_j, report.absorb.energy_j,
            report.drain.energy_j])

    def test_snapshot(self, sample):
        report, spans = traced(snapshot, sample)
        check_stages(spans, [
            ("snapshot.compress", stage_kind("compress", "zfp")),
            ("snapshot.compress", stage_kind("compress", "zfp")),
            ("snapshot.write", stage_kind("write")),
        ], [s.energy_j for s in report.per_field.values()]
           + [report.write.energy_j])
        assert [sp.attrs.get("field") for sp in spans] == [
            "velocity_x", "density", None,
        ]

    def test_restore(self, sample):
        report, spans = traced(restore, sample)
        check_stages(spans, [
            ("restore.read", stage_kind("read")),
            ("restore.decompress", stage_kind("decompress", "sz")),
        ], [report.read.energy_j, report.decompress.energy_j])

    def test_governed_io(self, sample):
        # The result totals the noise-free curves, not the measured
        # stages the spans carry, so only the stages are checked.
        result, spans = traced(governed_io, sample)
        check_stages(spans, [
            ("governed.compress", stage_kind("compress", "sz")),
            ("governed.write", stage_kind("write")),
        ] * result.snapshots, None)


def fleet_under_churn(fail_while_departed):
    """A capped, governed fleet whose node001 leaves and re-joins
    between two dumps, optionally trying a dump while it is away."""
    cluster = SimulatedCluster(
        BROADWELL_D1548, 4, seed=0, repeats=1,
        power_budget_w=120.0, governor="adaptive",
    )
    sample = load_field("nyx", "velocity_x", scale=32)
    cluster.dump_all(ZFPCompressor(), sample, 1e-2, GB)
    cluster.controller.leave("node001")
    if fail_while_departed:
        controller_trace = len(cluster.controller.trace)
        decisions = [len(g.trace) for g in cluster._governors]
        with pytest.raises(ValueError, match="node001"):
            cluster.dump_all(ZFPCompressor(), sample, 1e-2, GB)
        assert len(cluster.controller.trace) == controller_trace
        assert [len(g.trace) for g in cluster._governors] == decisions
    node = cluster.nodes[1]
    cluster.controller.join("node001", node.cpu, node.power_curve)
    return cluster.dump_all(ZFPCompressor(), sample, 1e-2, GB)


class TestDepartedNodes:
    def test_failed_dump_leaves_no_trace(self):
        fleet_under_churn(fail_while_departed=True)

    def test_rejoined_fleet_dumps_as_if_it_had_not_failed(self):
        failed = fleet_under_churn(fail_while_departed=True)
        clean = fleet_under_churn(fail_while_departed=False)
        assert failed.powercap.trace_sha256 == clean.powercap.trace_sha256
        assert digest(failed) == digest(clean)


def counted(name):
    """A chunked-compressor counter, kept in this process whatever
    backend ran the slabs."""
    return sum(
        m.value for m in get_registry().metrics()
        if m.name == name and dict(m.labels).get("op") == "compress"
    )


def slabs_mapped():
    return counted("repro_chunk_slabs_total")


def crash_plan(snapshots):
    return FaultPlan(specs=(
        FaultSpec(FaultKind.WORKER_CRASH, snapshots=snapshots, targets=(1,)),
    ))


class TestLazyMeasurement:
    """A ratio measurement runs its codec on first read, so one that
    every dump replaces is never taken. The sample is 16 KiB, cut into
    four 4 KiB slabs."""

    CAMPAIGN = CheckpointCampaign(
        snapshot_bytes=GB, n_snapshots=3, compute_interval_s=60.0)

    def pair(self, fault_plan):
        pipeline = TunedIOPipeline([SimulatedNode(BROADWELL_D1548, seed=0)])
        return pipeline.apply(
            None, "broadwell", data_scale=32, target_bytes=GB,
            chunk_bytes=4096, executor=EXECUTOR, workers=2,
            fault_plan=fault_plan, governor="static",
        )

    def campaign(self, sample, fault_plan):
        return run_campaign(
            SimulatedNode(BROADWELL_D1548, seed=0), SZCompressor(), sample,
            RunConfig(1e-2, fault_plan=fault_plan), self.CAMPAIGN, repeats=1,
            chunk_bytes=4096, executor=EXECUTOR, workers=2,
        )

    def test_clean_pair_measures_once(self):
        before = slabs_mapped()
        self.pair(None)
        assert slabs_mapped() - before == 4

    def test_crashed_pair_measures_each_dump_only(self):
        before = slabs_mapped()
        retries = counted("repro_chunk_slab_retries_total")
        self.pair(crash_plan((0,)))
        assert slabs_mapped() - before == 8
        assert counted("repro_chunk_slab_retries_total") - retries == 2

    def test_clean_campaign_measures_once(self, sample):
        before = slabs_mapped()
        self.campaign(sample, None)
        assert slabs_mapped() - before == 4

    def test_all_crashing_campaign_runs_no_clean_measurement(self, sample):
        before = slabs_mapped()
        report = self.campaign(sample, crash_plan(None))
        assert slabs_mapped() - before == 4 * self.CAMPAIGN.n_snapshots
        assert [s.parallel.retried_tasks for s in report.snapshots] == [
            (1,)] * self.CAMPAIGN.n_snapshots


def node():
    return SimulatedNode(SKYLAKE_4114, seed=0)


class TestUnknownCodec:
    """One (stage, codec) lookup serves every caller; each keeps the
    error type its callers expect."""

    @pytest.mark.parametrize("run", [
        lambda codec, x: DataDumper(node()).dump(codec, x, 1e-2, GB),
        lambda codec, x: Cluster(SKYLAKE_4114, 2).dump_all(codec, x, 1e-2, GB),
        lambda codec, x: TieredDumper(node()).dump(codec, x, 1e-2, GB),
        lambda codec, x: SnapshotDumper(node()).dump(
            codec, SnapshotSpec(fields=(SnapshotField("x", x, 1e-2, GB),))),
        lambda codec, x: DataLoader(node()).restore(codec, x, 1e-2, GB),
    ], ids=["dumper", "fleet", "tiered", "snapshot", "restore"])
    def test_pipelines_raise_key_error(self, sample, run):
        with pytest.raises(KeyError, match="no workload kind for codec 'gzip'"):
            run(get_compressor("gzip"), sample)

    def test_powercap_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown codec 'gzip'; known: sz, zfp"):
            phase_caps_for_budget(
                BROADWELL_D1548, CalibratedPowerCurve(), 30.0, codec="gzip")

    def test_service_answers_bad_request(self):
        payload = dict(arch="skylake", codec="gzip", ratio=4.0,
                       error_bound=1e-2, nbytes=GB)
        with pytest.raises(BadRequestError, match="unknown codec 'gzip'") as err:
            RequestHandlers(None).handle_decide(payload)
        assert err.value.status == 400
