"""Governor integration: pipeline, campaigns, cache, fleet, service, CLI.

CI runs this file under the 4-backend ``REPRO_TEST_EXECUTOR`` matrix
(serial / thread / process / distributed): a governed sweep must be
byte-identical whichever backend runs it.
"""

import json
import os

import pytest

from repro.cache import ResultCache, fingerprint, use_cache
from repro.cli import main
from repro.compressors import SZCompressor
from repro.governor import GovernorSpec, StaticGovernor
from repro.hardware.cpu import BROADWELL_D1548
from repro.hardware.node import SimulatedNode
from repro.iosim.dumper import DataDumper
from repro.workflow.campaign import (
    CheckpointCampaign,
    RunConfig,
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
            SZCompressor(), field,
            RunConfig(1e-2, compress_freq_ghz=EQN3_COMPRESS,
                      write_freq_ghz=EQN3_WRITE),
            int(2e9),
        )
        assert governed.compress.freq_ghz == pinned.compress.freq_ghz
        assert governed.write.freq_ghz == pinned.write.freq_ghz
        assert governed.total_energy_j == pytest.approx(
            pinned.total_energy_j)

    def test_live_governor_rejects_a_pinned_stage(self, field):
        # A pinned stage would ignore the governor and half-apply its
        # policy, so the dump refuses the mix before anything runs.
        gov = StaticGovernor(CPU)
        with pytest.raises(ValueError, match="cannot pin"):
            DataDumper(SimulatedNode(CPU, seed=0)).dump(
                SZCompressor(), field, RunConfig(1e-2, compress_freq_ghz=1.0),
                int(1e9), governor=gov,
            )
        assert gov.trace == []

    def test_dump_feeds_observations_back(self, field):
        gov = StaticGovernor(CPU)
        DataDumper(SimulatedNode(CPU, seed=0)).dump(
            SZCompressor(), field, 1e-2, int(1e9), governor=gov,
        )
        phases = [s.phase for s in gov.telemetry.samples()]
        assert phases == ["compress", "write"]
        assert all(s.power_w > 0 and s.bytes_processed > 0
                   for s in gov.telemetry.samples())


class TestCampaignIntegration:
    def test_campaign_records_a_governor_report(self, field, campaign):
        report = run_campaign(
            SimulatedNode(CPU, seed=0), SZCompressor(), field,
            RunConfig(1e-2, governor="adaptive"), campaign,
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
            RunConfig(
                error_bound=1e-2, compress_freq_ghz=1.75,
                governor=GovernorSpec(kind="adaptive"),
            )

    def test_static_point_decides_like_the_pinned_point(self, field, campaign):
        governed, pinned = run_campaign_sweep(
            CPU, SZCompressor(), field,
            (
                RunConfig(error_bound=1e-2, governor="static"),
                RunConfig(error_bound=1e-2,
                          compress_freq_ghz=EQN3_COMPRESS,
                          write_freq_ghz=EQN3_WRITE),
            ),
            campaign,
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

        bare = RunConfig(error_bound=1e-2)
        static = RunConfig(error_bound=1e-2,
                           governor=GovernorSpec(kind="static"))
        adaptive = RunConfig(error_bound=1e-2,
                             governor=GovernorSpec(kind="adaptive"))
        reseeded = RunConfig(error_bound=1e-2,
                             governor=GovernorSpec(kind="adaptive", seed=1))
        keys = [key(p) for p in (bare, static, adaptive, reseeded)]
        assert len(set(keys)) == 4

    def test_governed_report_survives_a_cache_round_trip(
            self, field, campaign):
        from repro.cache.serialization import decode_value, encode_value

        report = run_campaign(
            SimulatedNode(CPU, seed=0), SZCompressor(), field,
            RunConfig(1e-2, governor=GovernorSpec(kind="adaptive", seed=3)),
            campaign,
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
            RunConfig(error_bound=1e-2),
            RunConfig(error_bound=1e-2,
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

    def test_unknown_fields_answer_400(self, server):
        # Mistyped, "windw" and "sesion" would otherwise step the
        # default session with the default window.
        status, doc = self._post(server, {"windw": 3, "sesion": "x"})
        assert (status, doc["error"]) == (400, "bad_request")
        assert "unknown fields ['sesion', 'windw']" in doc["message"]
        assert "samples" in doc["message"]


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
