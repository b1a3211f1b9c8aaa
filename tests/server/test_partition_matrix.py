"""The partition matrix: every protocol phase severed, nothing lost.

The acceptance bar for partition tolerance: with the wire to the control
plane cut at each protocol phase — submission, leasing, heartbeating,
completion — for outages both *shorter* and *longer* than the lease TTL,
a two-agent run must still ship a corpus byte-identical to the local
golden run, with zero duplicate publications and zero lost units.
Fixed seeds throughout: every outage here is reproducible.

Also here: the compound failure — the control-plane *server* is killed
and restarted while an agent is partitioned, so recovery must come from
the startup sweep (server side) and the spooled outbox (agent side)
meeting in one reconcile.
"""

import threading
import time

import pytest

from tests.server.harness import PARTITION_FIELDS, control_plane
from tests.server.test_service_endtoend import (
    build_raw_config,
    delivered_corpus,
    load_golden,
)

from repro.chaos import ChaosTransport, FaultInjector, FaultPlan, FaultSpec
from repro.net.retry import BackoffPolicy
from repro.server import ControlPlaneClient, ControlPlaneServer, ServerUnavailable, SiteAgent

TTL = 1.0
BLIP = 0.3       # shorter than the TTL: leases survive the outage
BLACKOUT = 2.2   # longer than the TTL: leases expire mid-outage


def wire_chaos(phase, kind, seconds, seed=99):
    return FaultInjector(FaultPlan(seed=seed, faults=(
        FaultSpec(stage="net", kind=kind, match=phase, latency=seconds),
    )))


def chaotic_client(url, transport):
    # Small budgets on purpose: a partitioned agent must *notice* the
    # outage and drop into degraded mode, not absorb it inside retries.
    return ControlPlaneClient(
        url, timeout=0.4, retries=1, backoff=0.05, opener=transport
    )


def patient_submit(client, raw, name):
    """Submit through a possibly-severed wire, retrying until it lands.

    Safe to loop: partition refuses the connection and blackout swallows
    the request before the server sees it, so a failed submit was never
    applied — and each successful submit is deduped by its request id.
    """
    deadline = time.monotonic() + 30.0
    while True:
        try:
            return client.submit(raw, name=name)
        except ServerUnavailable:
            if time.monotonic() > deadline:
                raise


def partitioned_agents(server_url, transport, tmp_path, names=("site-a", "site-b")):
    """Two agents at one facility sharing the chaotic physical link."""
    agents = []
    for name in names:
        client = chaotic_client(server_url, transport)
        agents.append(SiteAgent(
            client, name=name, ttl=TTL,
            poll_interval=0.02, heartbeat_interval=0.05,
            outbox=str(tmp_path / "spool" / f"{name}.jsonl"),
            reconnect=BackoffPolicy(base=0.05, max_delay=0.3, full_jitter=True),
            reconnect_limit=None,
        ))
    return agents


def drain(agents, idle_exit_after=8, timeout=120):
    threads = [
        threading.Thread(target=agent.run, kwargs={"idle_exit_after": idle_exit_after})
        for agent in agents
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    assert not any(thread.is_alive() for thread in threads)


def assert_exactly_once(detail, agents, golden, root):
    assert detail.status == "completed", {
        u.name: (u.status, u.error) for u in detail.units
    }
    # Zero duplicate publications: every unit's completion was applied
    # exactly once across both agents (fencing rejected any stale twin).
    assert sum(a.stats.completed for a in agents) == len(detail.units)
    assert all(a.stats.failed == 0 for a in agents)
    # Nothing left behind in a spool.
    assert all(len(a.outbox) == 0 for a in agents)
    # Zero lost units, zero drifted bytes: the corpus is the golden one.
    assert delivered_corpus(root) == golden["files"]


@pytest.mark.parametrize("outage,kind,seconds", [
    ("blip", "partition", BLIP),
    ("blackout", "blackout", BLACKOUT),
], ids=["blip", "blackout"])
@pytest.mark.parametrize("phase", ["submit", "lease", "heartbeat", "complete"])
def test_partition_matrix_ships_the_golden_corpus(tmp_path, phase, outage, kind, seconds):
    golden = load_golden()
    raw = build_raw_config(str(tmp_path), golden["granules"])
    transport = ChaosTransport(wire_chaos(phase, kind, seconds))

    with control_plane() as (server, operator):
        # The whole facility shares one physical link: the submission and
        # both agents ride the same chaotic transport, so a submit-phase
        # outage blacks out the agents too.
        run = patient_submit(
            chaotic_client(server.url, transport), raw,
            name=f"matrix-{phase}-{outage}",
        )
        agents = partitioned_agents(server.url, transport, tmp_path)
        drain(agents)
        detail = operator.run(run.run_id)
        snap = operator.metrics()["metrics"]

    assert_exactly_once(detail, agents, golden, str(tmp_path))
    # The fault actually fired on the wire.
    assert transport.stats["outages"] == 1
    assert transport.stats["refused"] + transport.stats["blackholed"] >= 1
    if phase != "submit":
        # The agents lived through the outage: degraded-mode counters are
        # non-zero on both the agent and the server side.
        assert sum(a.stats.disconnects for a in agents) >= 1 or any(
            a.stats.outbox_spooled for a in agents
        )
        assert (
            snap["control_plane.partition.reconciles"] >= 1
            or snap["control_plane.partition.fenced_rejections"] >= 1
            or snap["control_plane.partition.disconnects"] >= 1
        )


def test_clean_run_reports_zero_partition_counters(tmp_path):
    """The baseline the matrix is measured against: no chaos, all zeros."""
    golden = load_golden()
    raw = build_raw_config(str(tmp_path), golden["granules"])
    with control_plane() as (server, operator):
        run = operator.submit(raw, name="clean")
        agents = partitioned_agents(server.url, ChaosTransport(
            FaultInjector(FaultPlan(seed=0, faults=()))
        ), tmp_path)
        drain(agents)
        detail = operator.run(run.run_id)
        snap = operator.metrics()["metrics"]

    assert_exactly_once(detail, agents, golden, str(tmp_path))
    for name in ("disconnects", "reconnect_attempts", "reconciles",
                 "outbox_replayed", "fenced_rejections"):
        assert snap[f"control_plane.partition.{name}"] == 0
    for agent in agents:
        assert all(getattr(agent.stats, name) == 0 for name in PARTITION_FIELDS)


def test_server_killed_and_restarted_mid_partition(tmp_path):
    """The compound failure: the wire is cut AND the server dies.

    An agent finishes its unit into the spool while partitioned; the
    server is killed and restarted over the same SQLite file; the startup
    sweep requeues the orphaned lease; the agent reconnects to the new
    incarnation, its stale spool is fenced, and the requeued unit
    re-executes byte-identically through the journal."""
    golden = load_golden()
    raw = build_raw_config(str(tmp_path), golden["granules"])
    db = str(tmp_path / "control_plane.db")
    # One long outage triggered at the first completion POST; healed
    # manually once the replacement server is up.
    transport = ChaosTransport(wire_chaos("complete", "partition", 600.0))

    server = ControlPlaneServer(db)
    server.start()
    operator = ControlPlaneClient(server.url)
    run = operator.submit(raw, name="mid-partition")

    agent_client = chaotic_client(server.url, transport)
    agent = SiteAgent(
        agent_client, name="site-a", ttl=TTL,
        poll_interval=0.02, heartbeat_interval=0.05,
        outbox=str(tmp_path / "spool" / "site-a.jsonl"),
        reconnect=BackoffPolicy(base=0.05, max_delay=0.2, full_jitter=True),
        reconnect_limit=None,
    )
    thread = threading.Thread(target=agent.run, kwargs={"idle_exit_after": 8})
    thread.start()

    # Wait for the agent to finish its unit into the spool, cut off.
    deadline = time.monotonic() + 30.0
    while agent.stats.outbox_spooled == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert agent.stats.outbox_spooled >= 1

    # Kill the server while the agent is partitioned; let the dead lease
    # age past its TTL so the next incarnation's sweep reaps it.
    server.stop()
    server.store.close()
    time.sleep(TTL + 0.2)

    server2 = ControlPlaneServer(db)
    assert (
        server2.swept["expired_leases"] + server2.swept["orphan_units_requeued"]
    ) >= 1
    server2.start()
    try:
        # The facility's link comes back, pointed at the new incarnation.
        agent_client.base_url = server2.url.rstrip("/")
        transport.heal()
        thread.join(timeout=120)
        assert not thread.is_alive()
        operator2 = ControlPlaneClient(server2.url)
        detail = operator2.run(run.run_id)
    finally:
        server2.stop()
        server2.store.close()

    assert detail.status == "completed", {
        u.name: (u.status, u.error) for u in detail.units
    }
    # The spooled completion for the swept lease was fenced, the unit
    # re-executed (journal replay), and the corpus is still the golden
    # bytes — effectively-once despite the double execution.
    assert agent.stats.outbox_replayed >= 1
    assert agent.stats.disconnects >= 1
    assert len(agent.outbox) == 0
    assert delivered_corpus(str(tmp_path)) == golden["files"]
