"""End-to-end: the remote path ships byte-identical results.

The decisive test of the control plane: a fixed-seed five-stage run
submitted over HTTP and drained by site agents must deliver the *same
bytes* as the local in-process ``EOMLWorkflow.run`` — pinned by the
same ``golden_corpus.json`` fixture the local path is pinned by.  If
distribution moved a byte, the control plane is not a deployment
option, it is a different workflow.

Also here: the server-death fault model at the service level — the
control plane is killed and restarted over its SQLite file *mid-run*,
and the run completes (still byte-identical) without resubmission.
"""

import hashlib
import json
import os
import threading

from tests.server.harness import build_raw_config, control_plane

from repro.server import ControlPlaneClient, ControlPlaneServer, SiteAgent
from repro.server.store import RunStore

GOLDEN = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "core", "golden_corpus.json"
)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def load_golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def delivered_corpus(root):
    destination = os.path.join(root, "data", "orion")
    return {
        name: sha256_file(os.path.join(destination, name))
        for name in sorted(os.listdir(destination))
    }


def drain(client, names, **agent_kwargs):
    """Run one SiteAgent per name concurrently until the pool is dry."""
    agents = [
        SiteAgent(client, name=name, poll_interval=0.05, ttl=60.0, **agent_kwargs)
        for name in names
    ]
    threads = [
        threading.Thread(target=agent.run, kwargs={"idle_exit_after": 4})
        for agent in agents
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    return agents


def test_two_agents_ship_the_golden_corpus(tmp_path):
    golden = load_golden()
    raw = build_raw_config(str(tmp_path), golden["granules"])

    with control_plane() as (_server, client):
        run = client.submit(raw, name="golden-e2e")
        agents = drain(client, ["site-a", "site-b"])
        detail = client.run(run.run_id)

    assert detail.status == "completed", {
        u.name: (u.status, u.error) for u in detail.units
    }
    # Both agents participated in polling; the unit chain is sequential,
    # so the *work* may land on either — but nothing ran twice.
    assert sum(a.stats.completed for a in agents) == len(detail.units)
    assert all(a.stats.failed == 0 for a in agents)

    # The decisive assertion: byte-identical to the local golden run.
    assert delivered_corpus(str(tmp_path)) == golden["files"]


def test_colocated_agents_share_the_cas(tmp_path):
    """Agents on a shared filesystem dedupe through one CAS.

    A second campaign against a CAS warmed by the first must fetch
    nothing from the archive — the download unit's result shows every
    granule materialized from the store — and still ship the golden
    corpus, byte-identical.
    """
    golden = load_golden()
    cas_dir = str(tmp_path / "cas")

    def cached_raw(root):
        raw = build_raw_config(str(root), golden["granules"])
        raw["cache"] = {"enabled": True, "dir": cas_dir}
        return raw

    with control_plane() as (_server, client):
        cold = client.submit(cached_raw(tmp_path / "cold"), name="cache-cold")
        drain(client, ["site-a", "site-b"])
        warm = client.submit(cached_raw(tmp_path / "warm"), name="cache-warm")
        drain(client, ["site-a", "site-b"])
        cold_detail = client.run(cold.run_id)
        warm_detail = client.run(warm.run_id)

    for detail in (cold_detail, warm_detail):
        assert detail.status == "completed", {
            u.name: (u.status, u.error) for u in detail.units
        }
    download = {u.name: u.result or {} for u in warm_detail.units}["download"]
    assert download.get("fetched_bytes") == 0
    assert download.get("cached", 0) > 0
    assert delivered_corpus(str(tmp_path / "cold")) == golden["files"]
    assert delivered_corpus(str(tmp_path / "warm")) == golden["files"]


def test_server_killed_and_restarted_mid_run_loses_nothing(tmp_path):
    golden = load_golden()
    raw = build_raw_config(str(tmp_path), golden["granules"])
    db = str(tmp_path / "control_plane.db")

    # Phase 1: submit and execute only the download unit, then "kill"
    # the server (stop serving, close the store — process death).
    server = ControlPlaneServer(db)
    server.start()
    client = ControlPlaneClient(server.url)
    run = client.submit(raw, name="survivor")
    agent = SiteAgent(client, name="site-a", poll_interval=0.05, ttl=60.0)
    agent.run(max_units=1)
    before = client.run(run.run_id)
    assert {u.name: u.status for u in before.units}["download"] == "completed"
    server.stop()
    server.store.close()

    # Phase 2: a new server process over the same SQLite file. The run,
    # its completed unit, and the pending remainder all survived.
    with control_plane(store=RunStore(db)) as (_server2, client2):
        after = client2.run(run.run_id)
        assert {u.name: u.status for u in after.units}["download"] == "completed"
        assert after.status not in ("completed", "failed")
        drain(client2, ["site-a", "site-b"])
        final = client2.run(run.run_id)

    assert final.status == "completed", {
        u.name: (u.status, u.error) for u in final.units
    }
    # No resubmission, no redone download, and still the golden bytes.
    assert {u.name: u.attempts for u in final.units}["download"] == 1
    assert delivered_corpus(str(tmp_path)) == golden["files"]
