"""Governor integration: pipeline, campaigns, cache, fleet, service, CLI.

CI runs this file under the 4-backend ``REPRO_TEST_EXECUTOR`` matrix
(serial / thread / process / distributed): a governed sweep must be
byte-identical whichever backend runs it, and the distributed backend
must additionally ship worker-side telemetry back to the coordinator.
"""

import json
import os

import pytest

from repro.cache import ResultCache, fingerprint, use_cache
from repro.cli import main
from repro.compressors import SZCompressor
from repro.governor import GovernorSpec, StaticGovernor
from repro.governor.telemetry import TelemetryBus
from repro.hardware.cpu import BROADWELL_D1548
from repro.hardware.node import SimulatedNode
from repro.hardware.workload import WorkloadKind
from repro.iosim.dumper import DataDumper
from repro.workflow.campaign import (
    CampaignPoint,
    CheckpointCampaign,
    run_campaign,
    run_campaign_sweep,
)

EXECUTOR = os.environ.get("REPRO_TEST_EXECUTOR", "serial")
CPU = BROADWELL_D1548
EQN3_COMPRESS = CPU.snap_frequency(0.875 * CPU.fmax_ghz)
EQN3_WRITE = CPU.snap_frequency(0.85 * CPU.fmax_ghz)


@pytest.fixture(scope="module")
def field():
    from repro.data.registry import load_field

    return load_field("nyx", "velocity_x", scale=32)


@pytest.fixture()
def campaign():
    return CheckpointCampaign(
        snapshot_bytes=int(1e9), n_snapshots=2, compute_interval_s=600.0
    )


class TestStaticGovernorIsEqn3:
    def test_governed_dump_matches_pinned_dump(self, field):
        # A static governor steering the dump must be indistinguishable
        # from pinning Eqn. 3's frequencies by hand on an equal node.
        governed = DataDumper(SimulatedNode(CPU, seed=0)).dump(
            SZCompressor(), field, 1e-2, int(2e9),
            governor=StaticGovernor(CPU),
        )
        pinned = DataDumper(SimulatedNode(CPU, seed=0)).dump(
            SZCompressor(), field, 1e-2, int(2e9),
            compress_freq_ghz=EQN3_COMPRESS, write_freq_ghz=EQN3_WRITE,
        )
        assert governed.compress.freq_ghz == pinned.compress.freq_ghz
        assert governed.write.freq_ghz == pinned.write.freq_ghz
        assert governed.total_energy_j == pytest.approx(
            pinned.total_energy_j)

    def test_explicit_frequency_overrides_the_governor(self, field):
        gov = StaticGovernor(CPU)
        rep = DataDumper(SimulatedNode(CPU, seed=0)).dump(
            SZCompressor(), field, 1e-2, int(1e9),
            governor=gov, compress_freq_ghz=1.0,
        )
        assert rep.compress.freq_ghz == pytest.approx(1.0)
        # The governor still steers the stage that was left free.
        assert rep.write.freq_ghz == pytest.approx(EQN3_WRITE)

    def test_dump_feeds_observations_back(self, field):
        bus = TelemetryBus()
        gov = StaticGovernor(CPU, telemetry=bus)
        DataDumper(SimulatedNode(CPU, seed=0)).dump(
            SZCompressor(), field, 1e-2, int(1e9), governor=gov,
        )
        phases = [s.phase for s in bus.samples()]
        assert phases == ["compress", "write"]
        assert all(s.power_w > 0 and s.bytes_processed > 0
                   for s in bus.samples())


class TestCampaignIntegration:
    def test_campaign_records_a_governor_report(self, field, campaign):
        report = run_campaign(
            SimulatedNode(CPU, seed=0), SZCompressor(), field, 1e-2,
            campaign, governor="adaptive",
        )
        gov = report.governor
        assert gov is not None
        assert gov.policy == "adaptive"
        # Two phases per snapshot.
        assert len(gov.decisions) == 2 * campaign.n_snapshots

    def test_ungoverned_campaign_report_is_unchanged(self, field, campaign):
        report = run_campaign(
            SimulatedNode(CPU, seed=0), SZCompressor(), field, 1e-2,
            campaign,
        )
        assert report.governor is None

    def test_point_rejects_governor_plus_pinned_frequencies(self):
        with pytest.raises(ValueError, match="cannot pin"):
            CampaignPoint(
                error_bound=1e-2, compress_freq_ghz=1.75,
                governor=GovernorSpec(kind="adaptive"),
            )

    def test_sweep_spec_fills_only_unpinned_points(self, field, campaign):
        governed, pinned = run_campaign_sweep(
            CPU, SZCompressor(), field,
            (
                CampaignPoint(error_bound=1e-2),
                CampaignPoint(error_bound=1e-2,
                              compress_freq_ghz=EQN3_COMPRESS,
                              write_freq_ghz=EQN3_WRITE),
            ),
            campaign, governor="static",
        )
        assert governed.governor is not None
        assert pinned.governor is None
        # The static spec and the hand-pinned point decide identically.
        assert governed.io_energy_j == pytest.approx(pinned.io_energy_j,
                                                     rel=0.05)


class TestCacheNoAliasing:
    def test_governor_knob_is_part_of_the_point_fingerprint(self):
        def key(point):
            return fingerprint(kind="campaign.point", point=point)

        bare = CampaignPoint(error_bound=1e-2)
        static = CampaignPoint(error_bound=1e-2,
                               governor=GovernorSpec(kind="static"))
        adaptive = CampaignPoint(error_bound=1e-2,
                                 governor=GovernorSpec(kind="adaptive"))
        reseeded = CampaignPoint(error_bound=1e-2,
                                 governor=GovernorSpec(kind="adaptive",
                                                       seed=1))
        keys = [key(p) for p in (bare, static, adaptive, reseeded)]
        assert len(set(keys)) == 4

    def test_governed_report_survives_a_cache_round_trip(
            self, field, campaign):
        from repro.cache.serialization import decode_value, encode_value

        report = run_campaign(
            SimulatedNode(CPU, seed=0), SZCompressor(), field, 1e-2,
            campaign, governor=GovernorSpec(kind="adaptive", seed=3),
        )
        clone = decode_value(encode_value(report))
        assert clone == report
        assert clone.governor.trace_sha256 == report.governor.trace_sha256


class TestExecutorMatrix:
    def test_governed_sweep_is_backend_identical(self, field, campaign):
        # The governed sweep must not depend on which backend runs it:
        # every point re-derives its governor from the picklable spec.
        from repro.cache.serialization import encode_value

        points = (
            CampaignPoint(error_bound=1e-2),
            CampaignPoint(error_bound=1e-2,
                          governor=GovernorSpec(kind="adaptive", seed=0)),
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


def _publish_samples(n):
    """Worker-side map fn: publish *n* samples on a fresh local bus."""
    bus = TelemetryBus()
    for i in range(n):
        bus.publish("compress", 2.0, 20.0 + i, 1.0, 1000 * (i + 1))
    return n


class TestDistributedTelemetry:
    def test_worker_publishes_reach_the_coordinator(self):
        from repro.distributed import DistributedExecutor

        with DistributedExecutor(2, heartbeat_s=0.2,
                                 heartbeat_timeout_s=10.0) as ex:
            assert ex.map(_publish_samples, [2, 3]) == [2, 3]
            frames = ex.drain_telemetry()
        assert len(frames) == 5
        assert all(f["source"] == "distributed" for f in frames)
        assert all(f["worker_pid"] > 0 for f in frames)
        assert {f["phase"] for f in frames} == {"compress"}

    def test_drain_is_empty_after_drain(self):
        from repro.distributed import DistributedExecutor

        with DistributedExecutor(2, heartbeat_s=0.2,
                                 heartbeat_timeout_s=10.0) as ex:
            ex.map(_publish_samples, [1])
            ex.drain_telemetry()
            assert ex.drain_telemetry() == []


class TestGovernOverHttp:
    @pytest.fixture()
    def server(self):
        from repro.service.http import ServiceConfig, TuningServer

        srv = TuningServer(ServiceConfig(port=0, workers=2, queue_size=16))
        with srv:
            yield srv

    @staticmethod
    def _post(server, body):
        from tests.test_service_http import request_json

        return request_json(f"{server.url}/v1/govern", method="POST",
                            body=body)

    def test_observe_then_decide_round_trip(self, server):
        samples = [
            {"phase": "compress", "freq_ghz": 2.0, "power_w": 21.0,
             "runtime_s": 1.0, "bytes_processed": 1000},
            {"phase": "write", "freq_ghz": 2.0, "power_w": 23.0,
             "runtime_s": 0.5, "bytes_processed": 500},
        ]
        status, doc = self._post(server, {
            "arch": "broadwell", "policy": "adaptive", "seed": 0,
            "session": "t1", "samples": samples,
        })
        assert status == 200
        assert doc["policy"] == "adaptive"
        assert set(doc["frequencies"]) == {"compress", "write"}
        assert doc["samples_seen"] == 2

    def test_sessions_accumulate_and_do_not_share(self, server):
        _, first = self._post(server, {"session": "a", "samples": [
            {"phase": "compress", "freq_ghz": 2.0, "power_w": 21.0,
             "runtime_s": 1.0}]})
        _, again = self._post(server, {"session": "a", "samples": []})
        _, other = self._post(server, {"session": "b", "samples": []})
        assert again["samples_seen"] == first["samples_seen"]
        assert other["samples_seen"] == 0

    def test_static_policy_answers_eqn3(self, server):
        status, doc = self._post(server, {"policy": "static",
                                          "arch": "broadwell"})
        assert status == 200
        assert doc["frequencies"]["compress"] == pytest.approx(1.75)
        assert doc["frequencies"]["write"] == pytest.approx(1.70)

    @pytest.mark.parametrize("body,needle", [
        ({"arch": "quantum9000"}, "quantum9000"),
        ({"policy": "oracle"}, "ground truth"),
        ({"policy": "nosuch"}, "unknown governor policy"),
        ({"window": "wide"}, "must be integers"),
        ({"samples": "notalist"}, "must be a list"),
        ({"samples": [{"phase": "compress"}]}, "invalid telemetry sample"),
        ({"samples": [{"phase": "compress", "freq_ghz": -1.0,
                       "power_w": 1.0, "runtime_s": 1.0}]},
         "invalid telemetry sample"),
    ])
    def test_bad_requests_answer_400(self, server, body, needle):
        status, doc = self._post(server, body)
        assert status == 400
        assert doc["error"] == "bad_request"
        assert needle in doc["message"]


class TestCliGovern:
    def test_govern_smoke_writes_telemetry(self, tmp_path, capsys):
        out = tmp_path / "telemetry.jsonl"
        assert main(["govern", "--snapshots", "2", "--snapshot-gb", "1",
                     "--scale", "32", "--governor", "static",
                     "--telemetry-out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "static governor" in text
        assert "compress @ 1.75 GHz" in text
        lines = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert len(lines) == 4  # two phases x two snapshots
        assert {ln["phase"] for ln in lines} == {"compress", "write"}

    def test_campaign_governor_flag_smoke(self, capsys):
        assert main(["campaign", "--arch", "broadwell", "--snapshots", "1",
                     "--snapshot-gb", "1", "--scale", "32",
                     "--governor", "static"]) == 0
        out = capsys.readouterr().out
        assert "static gov." in out
        assert "governor" in out
