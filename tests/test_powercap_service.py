"""POST /v1/powercap: sessions, membership, caps, error taxonomy."""

import pytest

from repro.service.http import ServiceConfig, TuningServer
from tests.test_service_http import request_json


@pytest.fixture
def server():
    srv = TuningServer(ServiceConfig(port=0, workers=2, queue_size=16))
    with srv:
        yield srv


def post(server, body):
    return request_json(server.url + "/v1/powercap", method="POST",
                        body=body)


class TestPowercapSessions:
    def test_join_allocate_round_trip(self, server):
        status, doc = post(server, {
            "budget_w": 120.0,
            "nodes": [{"id": "a"}, {"id": "b", "work": 2.0}],
        })
        assert status == 200
        assert doc["policy"] == "waterfill"
        assert set(doc["caps"]) == {"a", "b"}
        assert doc["epoch"] == 2
        total = sum(c["cap_w"] for c in doc["caps"].values())
        assert total <= 120.0 - doc["nfs_reserve_w"] + 1e-6
        assert len(doc["trace_sha256"]) == 64

    def test_sessions_accumulate_membership(self, server):
        post(server, {"budget_w": 120.0, "session": "s",
                      "nodes": [{"id": "a"}]})
        status, doc = post(server, {"budget_w": 120.0, "session": "s",
                                    "nodes": [{"id": "b"}]})
        assert status == 200
        assert set(doc["caps"]) == {"a", "b"}

    def test_leave_redistributes(self, server):
        _, before = post(server, {"budget_w": 75.0, "session": "s",
                                  "nodes": [{"id": "a"}, {"id": "b"}]})
        status, after = post(server, {"budget_w": 75.0, "session": "s",
                                      "leave": ["b"]})
        assert status == 200
        assert set(after["caps"]) == {"a"}
        assert (after["caps"]["a"]["cap_w"]
                >= before["caps"]["a"]["cap_w"] - 1e-9)

    def test_distinct_sessions_do_not_share(self, server):
        post(server, {"budget_w": 120.0, "session": "x",
                      "nodes": [{"id": "a"}]})
        status, doc = post(server, {"budget_w": 120.0, "session": "y",
                                    "nodes": [{"id": "b"}]})
        assert status == 200
        assert set(doc["caps"]) == {"b"}

    def test_budgets_differing_past_six_digits_do_not_share(self, server):
        # Formatting the budget with six significant digits into the
        # session key once merged these two sessions.
        post(server, {"budget_w": 100.0001, "session": "s",
                      "nodes": [{"id": "a"}]})
        status, doc = post(server, {"budget_w": 100.0002, "session": "s",
                                    "nodes": [{"id": "b"}]})
        assert status == 200
        assert doc["budget_w"] == 100.0002
        assert doc["epoch"] == 1
        assert set(doc["caps"]) == {"b"}

    def test_demands_trigger_a_reallocation(self, server):
        _, first = post(server, {
            "budget_w": 120.0, "session": "s", "policy": "proportional",
            "nodes": [{"id": "a"}, {"id": "b"}],
        })
        status, doc = post(server, {
            "budget_w": 120.0, "session": "s", "policy": "proportional",
            "demands": {"a": 21.0, "b": 16.0},
        })
        assert status == 200
        assert doc["epoch"] > first["epoch"]

    def test_phase_boundary_is_an_epoch(self, server):
        _, first = post(server, {"budget_w": 120.0, "session": "s",
                                 "nodes": [{"id": "a"}]})
        _, doc = post(server, {"budget_w": 120.0, "session": "s",
                               "phase": "write"})
        assert doc["phase"] == "write"
        assert doc["epoch"] == first["epoch"] + 1

    def test_infeasible_caps_are_flagged(self, server):
        status, doc = post(server, {
            "budget_w": 68.0,
            "nodes": [{"id": "a"}, {"id": "b"}],
        })
        assert status == 200
        assert any(c["infeasible"] for c in doc["caps"].values())


class TestPowercapBadRequests:
    @pytest.mark.parametrize("body,needle", [
        ({}, "budget_w"),
        ({"budget_w": "lots"}, "must be a number"),
        ({"budget_w": 100.0, "policy": "greedy"}, "unknown allocation"),
        ({"budget_w": 100.0, "nodes": "a,b"}, "must be a list"),
        ({"budget_w": 100.0, "nodes": [{"work": 1.0}]}, "'id' field"),
        ({"budget_w": 100.0, "nodes": [{"id": "a", "arch": "quantum"}]},
         "quantum"),
        ({"budget_w": 100.0}, "no nodes"),
        ({"budget_w": 100.0, "nodes": [{"id": "a"}],
          "leave": ["ghost"]}, "ghost"),
        ({"budget_w": 100.0, "nodes": [{"id": "a"}],
          "demands": {"a": "hot"}}, "invalid demand"),
        ({"budget_w": 30.0, "nfs_reserve_w": 40.0,
          "nodes": [{"id": "a"}]}, "leaves no budget"),
    ])
    def test_taxonomy(self, server, body, needle):
        status, doc = post(server, body)
        assert status == 400
        assert doc["error"] == "bad_request"
        assert needle in doc["message"]

    def test_unknown_fields_answer_400(self, server):
        # A mistyped optional field must not fall back to its default:
        # "polcy" would otherwise run the waterfill policy unasked.
        status, doc = post(server, {
            "budget_w": 120.0, "nodes": [{"id": "a"}], "polcy": "uniform",
        })
        assert (status, doc["error"]) == (400, "bad_request")
        assert "unknown fields ['polcy']" in doc["message"]
        status, _ = post(server, {
            "budget_w": 120.0, "nodes": [{"id": "a"}], "policy": "uniform",
        })
        assert status == 200

    def test_get_is_not_allowed(self, server):
        status, _ = request_json(server.url + "/v1/powercap")
        assert status in (404, 405)
