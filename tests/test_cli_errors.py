"""CLI error paths: bad fault plans, conflicting flags, exit codes.

A CLI that dies with a traceback on a typo'd JSON file is a bug; every
failure here must exit 1 with a single ``error:`` line — and the
observability artifacts the user asked for must still be written, since
a trace of the stages that *did* run is exactly what debugging needs.
"""

import json

import pytest

from repro.cli import main
from repro.resilience import FaultPlan, example_plan

CAMPAIGN_ARGS = ["campaign", "--snapshots", "1", "--snapshot-gb", "1",
                 "--scale", "32"]


@pytest.fixture()
def plan_path(tmp_path):
    path = tmp_path / "plan.json"
    example_plan().to_file(path)
    return path


class TestFaultsSubcommand:
    def test_example_prints_valid_plan(self, capsys):
        assert main(["faults", "example"]) == 0
        doc = capsys.readouterr().out
        plan = FaultPlan.from_json(doc)
        assert plan == example_plan()

    def test_example_writes_file(self, tmp_path, capsys):
        out = tmp_path / "example.json"
        assert main(["faults", "example", "--output", str(out)]) == 0
        assert "written to" in capsys.readouterr().out
        assert FaultPlan.from_file(out) == example_plan()

    def test_validate_accepts_good_plan(self, plan_path, capsys):
        assert main(["faults", "validate", str(plan_path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "specs" in out and "policy" in out

    def test_validate_rejects_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["faults", "validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not valid JSON" in err

    def test_validate_rejects_unknown_fields(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"faults": [{"kind": "nfs-stall", "chaos": True}]}
        ))
        assert main(["faults", "validate", str(bad)]) == 1
        assert "unknown fault fields" in capsys.readouterr().err

    def test_validate_rejects_bad_policy(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"faults": [], "policy": {"retry": {"max_retries": 3}}}
        ))
        assert main(["faults", "validate", str(bad)]) == 1
        assert "unknown retry fields" in capsys.readouterr().err

    def test_validate_missing_file_is_error(self, tmp_path, capsys):
        assert main(["faults", "validate", str(tmp_path / "nope.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestBadPlanOnCommands:
    def test_campaign_rejects_malformed_plan(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[not a plan]")
        args = CAMPAIGN_ARGS + ["--fault-plan", str(bad)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_campaign_rejects_missing_plan_file(self, tmp_path, capsys):
        args = CAMPAIGN_ARGS + ["--fault-plan", str(tmp_path / "nope.json")]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestConflictingExecutorFlags:
    def test_campaign_serial_with_workers_conflicts(self, capsys):
        args = CAMPAIGN_ARGS + ["--executor", "serial", "--workers", "2"]
        assert main(args) == 1
        assert "--workers conflicts with --executor serial" \
            in capsys.readouterr().err

    def test_campaign_rejects_zero_workers_even_unchunked(self, capsys):
        # Without --chunk-mb the campaign never resolves an executor,
        # so a bad worker count used to be silently ignored.
        args = CAMPAIGN_ARGS + ["--workers", "0"]
        assert main(args) == 1
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_dump_serial_with_workers_conflicts(self, capsys):
        args = ["dump", "--executor", "serial", "--workers", "2"]
        assert main(args) == 1
        assert "conflicts" in capsys.readouterr().err


class TestGovernSubcommand:
    GOVERN_ARGS = ["govern", "--snapshots", "1", "--snapshot-gb", "1",
                   "--scale", "32"]

    def test_unknown_policy_is_an_error(self, capsys):
        # --governor deliberately has no argparse choices: the governor
        # registry owns the policy set and its error names the options.
        args = self.GOVERN_ARGS + ["--governor", "quantum"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown governor policy" in err
        assert "adaptive" in err

    @pytest.mark.parametrize("window", ["-5", "0", "3"])
    def test_too_small_window_is_an_error(self, capsys, window):
        args = self.GOVERN_ARGS + ["--window", window]
        assert main(args) == 1
        assert "window must be >= 4" in capsys.readouterr().err

    def test_adaptive_conflicts_with_throttle_plan(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "faults": [{"kind": "dvfs-throttle", "probability": 1.0,
                        "severity": 0.5}],
        }))
        args = self.GOVERN_ARGS + ["--governor", "adaptive",
                                   "--fault-plan", str(plan)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "dvfs-throttle" in err

    def test_static_tolerates_throttle_plan(self, tmp_path, capsys):
        # Only the adaptive governor races a throttle for the knob; the
        # static policy under a throttle is a legitimate experiment.
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "faults": [{"kind": "dvfs-throttle", "probability": 1.0,
                        "severity": 0.5}],
        }))
        args = self.GOVERN_ARGS + ["--governor", "static",
                                   "--fault-plan", str(plan)]
        assert main(args) == 0
        assert "static governor" in capsys.readouterr().out

    def test_campaign_adaptive_conflicts_with_throttle_plan(
            self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "faults": [{"kind": "dvfs-throttle", "probability": 1.0,
                        "severity": 0.5}],
        }))
        args = CAMPAIGN_ARGS + ["--governor", "adaptive",
                                "--fault-plan", str(plan)]
        assert main(args) == 1
        assert "dvfs-throttle" in capsys.readouterr().err


class TestCacheSubcommandPaths:
    def test_stats_on_missing_dir_reports_empty_store(self, tmp_path, capsys):
        missing = tmp_path / "never-created"
        assert main(["cache", "stats", "--cache-dir", str(missing)]) == 0
        out = capsys.readouterr().out
        assert "disk entries   : 0" in out
        assert "not created yet" in out
        # Inspecting must not create the directory as a side effect.
        assert not missing.exists()

    def test_clear_on_missing_dir_is_a_noop(self, tmp_path, capsys):
        missing = tmp_path / "never-created"
        assert main(["cache", "clear", "--cache-dir", str(missing)]) == 0
        assert "0 entrie(s) removed" in capsys.readouterr().out
        assert not missing.exists()

    def test_stats_on_file_path_is_an_error(self, tmp_path, capsys):
        not_a_dir = tmp_path / "plain-file"
        not_a_dir.write_text("x")
        assert main(["cache", "stats", "--cache-dir", str(not_a_dir)]) == 1
        err = capsys.readouterr().err
        assert "not a directory" in err
        assert "Traceback" not in err


class TestWorkersSubcommand:
    def test_rejects_malformed_connect_address(self, capsys):
        assert main(["workers", "--connect", "nocolonhere"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "HOST:PORT" in err

    def test_rejects_nonnumeric_port(self, capsys):
        assert main(["workers", "--connect", "localhost:http"]) == 1
        assert "HOST:PORT" in capsys.readouterr().err

    def test_rejects_zero_workers(self, capsys):
        assert main(["workers", "--connect", "127.0.0.1:1",
                     "--workers", "0"]) == 1
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_workers_launcher_does_not_create_cache_dir(self, capsys):
        # --cache-dir on the launcher is forwarded to workers, not
        # installed as this process's cache (which would mkdir).
        assert main(["workers", "--connect", "bad-address",
                     "--cache-dir", "/tmp/nonexistent-fleet-cache"]) == 1
        import os

        assert not os.path.exists("/tmp/nonexistent-fleet-cache")


class TestArtifactsOnFailure:
    def test_artifacts_written_when_command_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.prom"
        args = CAMPAIGN_ARGS + [
            "--fault-plan", str(bad),
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert trace.exists() and metrics.exists()
        assert "written to" in err


class TestFaultedCampaignEndToEnd:
    def test_hard_failure_plan_reports_resilience(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "faults": [{"kind": "nfs-hard-failure", "probability": 1.0}],
            "seed": 7,
        }))
        metrics = tmp_path / "metrics.prom"
        args = CAMPAIGN_ARGS + ["--fault-plan", str(plan),
                                "--metrics-out", str(metrics)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "resilience, base " in out and "resilience, tuned" in out
        assert "0 lost" in out
        body = metrics.read_text()
        assert "repro_faults_injected_total" in body
        assert "repro_failover_total" in body
