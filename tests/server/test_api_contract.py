"""Contract tests: the HTTP surface the clients and docs promise.

These run over real HTTP against an in-process server, asserting the
*wire* contract — routes, status codes, payload shapes, error bodies —
rather than store internals.  If one of these breaks, deployed agents
at other facilities break with it.
"""

import json
import urllib.error
import urllib.request

import pytest

from tests.core.crash_driver import build_raw_config
from tests.server.harness import control_plane

from repro.server import RequestFailed
from repro.server.api import ROUTES


def raw_request(url, method="GET", body=None):
    """Bypass the typed client: the contract is bytes on a socket."""
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            blob = response.read()
            return response.status, json.loads(blob) if blob else None
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


@pytest.fixture()
def plane(tmp_path):
    with control_plane() as (server, client):
        yield server, client, build_raw_config(str(tmp_path), 2)


def test_health_reports_version(plane):
    server, _client, _cfg = plane
    status, payload = raw_request(server.url + "/v1/health")
    assert status == 200
    assert payload["ok"] is True
    assert payload["version"]


def test_submit_returns_201_with_unit_graph(plane):
    server, _client, cfg = plane
    status, payload = raw_request(
        server.url + "/v1/runs", "POST", {"config": cfg, "name": "c1"}
    )
    assert status == 201
    run = payload["run"]
    assert run["id"].startswith("run-")
    assert run["status"] == "queued"
    names = [u["name"] for u in run["units"]]
    assert names == ["download", "model", "preprocess", "inference", "shipment"]
    # Dependencies mirror the plan's after and stream edges.
    deps = {u["name"]: u["deps"] for u in run["units"]}
    assert deps["preprocess"] == ["model"]
    assert deps["shipment"] == ["inference"]


def test_submit_rejects_bad_bodies(plane):
    server, _client, cfg = plane
    assert raw_request(server.url + "/v1/runs", "POST", {})[0] == 400
    assert raw_request(
        server.url + "/v1/runs", "POST", {"config": {"bogus": True}}
    )[0] == 400
    # Journaling is mandatory for remote runs.
    no_journal = dict(cfg)
    no_journal["journal"] = {"enabled": False}
    status, payload = raw_request(
        server.url + "/v1/runs", "POST", {"config": no_journal}
    )
    assert status == 400
    assert "journal" in payload["error"]


def test_malformed_json_is_400_not_500(plane):
    server, _client, _cfg = plane
    request = urllib.request.Request(
        server.url + "/v1/runs", data=b"{not json", method="POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=10)
    assert err.value.code == 400


def test_unknown_route_and_method_codes(plane):
    server, _client, _cfg = plane
    assert raw_request(server.url + "/v1/nope")[0] == 404
    # Known path, wrong verb.
    assert raw_request(server.url + "/v1/health", "POST", {})[0] == 405


def test_errors_are_json_objects(plane):
    server, _client, _cfg = plane
    status, payload = raw_request(server.url + "/v1/runs/run-ghost")
    assert status == 404
    assert set(payload) == {"error"}
    assert "run-ghost" in payload["error"]


def test_empty_lease_pool_is_204(plane):
    server, _client, _cfg = plane
    status, payload = raw_request(
        server.url + "/v1/lease", "POST", {"agent": "a1"}
    )
    assert status == 204
    assert payload is None


def test_lease_requires_agent_name(plane):
    server, _client, _cfg = plane
    assert raw_request(server.url + "/v1/lease", "POST", {})[0] == 400


def test_full_protocol_round_trip(plane):
    server, client, cfg = plane
    run = client.submit(cfg, name="round-trip")

    lease = client.lease("agent-a", site="alcf")
    assert lease.unit == "download"
    assert lease.config == cfg
    assert client.heartbeat(lease.lease_id)["expires_at"] > 0

    ack = client.complete(lease.lease_id, result={"files": 6})
    assert ack["duplicate"] is False

    detail = client.run(run.run_id)
    assert detail.status == "running"
    by_name = {u.name: u for u in detail.units}
    assert by_name["download"].status == "completed"
    assert by_name["download"].result == {"files": 6}
    assert by_name["download"].agent == "agent-a"

    kinds = [e["kind"] for e in client.events(run.run_id)]
    assert kinds == ["submitted", "leased", "unit_completed"]


def test_pause_resume_retry_over_http(plane):
    server, client, cfg = plane
    run = client.submit(cfg)
    assert client.pause(run.run_id).status == "paused"
    assert client.lease("a1") is None
    assert client.resume(run.run_id).status == "queued"

    lease = client.lease("a1")
    client.complete(lease.lease_id, status="failed", error="boom")
    with pytest.raises(RequestFailed) as err:
        client.retry(run.run_id, "model")  # not terminal
    assert err.value.status == 409
    redo = client.retry(run.run_id, "download")
    assert redo.status == "pending"


def test_metrics_expose_requests_and_store_counts(plane):
    server, client, cfg = plane
    client.submit(cfg)
    client.runs()
    payload = client.metrics()
    assert payload["store"]["runs"] == {"queued": 1}
    metrics = payload["metrics"]
    assert metrics["control_plane.api.requests"] >= 2
    assert metrics["control_plane.api.latency_seconds.count"] >= 2
    assert metrics["control_plane.runs.submitted"] == 1


def test_route_table_is_total():
    """Every advertised route resolves to a real handler method."""
    from repro.server.api import ControlPlaneAPI

    for _method, _pattern, name in ROUTES:
        assert callable(getattr(ControlPlaneAPI, name))
