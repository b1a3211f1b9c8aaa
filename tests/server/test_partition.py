"""Partition tolerance, piece by piece.

The wire-level fault model (:class:`~repro.chaos.surfaces.ChaosTransport`),
the client's idempotency-aware retry discipline, the server's dedupe +
fencing + reconcile machinery, the agent's degraded mode, and the
startup sweep — each exercised in isolation here.  The end-to-end
matrix (every protocol phase severed, outages shorter and longer than
the lease TTL, golden-corpus byte identity) lives in
``test_partition_matrix.py``.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from tests.server.harness import (
    PARTITION_FIELDS,
    FakeClock,
    control_plane,
    fresh_store,
    submit_minimal,
)

from repro.chaos import ChaosTransport, FaultInjector, FaultPlan, FaultSpec
from repro.net.retry import BackoffPolicy
from repro.server import (
    ControlPlaneClient,
    ControlPlaneServer,
    Outbox,
    RequestFailed,
    ServerUnavailable,
    SiteAgent,
)
from repro.server.execution import LeaseLost
from repro.server.store import RunStore


def wire_chaos(*specs, seed=7):
    return FaultInjector(FaultPlan(seed=seed, faults=tuple(specs)))


def spec(kind, match="", **kwargs):
    return FaultSpec(stage="net", kind=kind, match=match, **kwargs)


class FakeResponse:
    status = 200

    def __init__(self, payload=None):
        self._blob = json.dumps(payload or {}).encode()

    def read(self):
        return self._blob

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class FakeWire:
    """An inner opener that records calls and answers 200 {}."""

    def __init__(self):
        self.calls = []

    def __call__(self, req, timeout=None):
        self.calls.append((req.get_method(), req.selector, timeout))
        return FakeResponse()


def post(path):
    return urllib.request.Request(
        f"http://cp.test{path}", data=b"{}", method="POST"
    )


def get(path):
    return urllib.request.Request(f"http://cp.test{path}", method="GET")


class TestChaosTransport:
    def test_partition_triggers_on_matched_phase_then_severs_all(self):
        clock = FakeClock()
        inner = FakeWire()
        transport = ChaosTransport(
            wire_chaos(spec("partition", match="lease", latency=5.0)),
            inner=inner, clock=clock, sleeper=lambda s: None,
        )
        # Unmatched phases pass while the link is intact.
        transport(get("/v1/health"))
        assert len(inner.calls) == 1
        # The first lease-phase request trips the outage...
        with pytest.raises(ConnectionRefusedError):
            transport(post("/v1/lease"))
        # ...and while it lasts, EVERY phase is severed, not just lease.
        with pytest.raises(ConnectionRefusedError):
            transport(get("/v1/health"))
        assert transport.severed
        # The window is wall-clock: past `latency` seconds the link heals.
        clock.advance(5.1)
        assert not transport.severed
        transport(get("/v1/health"))
        assert len(inner.calls) == 2
        assert transport.stats["outages"] == 1
        assert transport.stats["refused"] == 2

    def test_partition_outage_fires_once_per_times_budget(self):
        clock = FakeClock()
        transport = ChaosTransport(
            wire_chaos(spec("partition", match="lease", latency=1.0)),
            inner=FakeWire(), clock=clock, sleeper=lambda s: None,
        )
        with pytest.raises(ConnectionRefusedError):
            transport(post("/v1/lease"))
        clock.advance(2.0)
        # times defaults to 1: the healed link stays healed.
        transport(post("/v1/lease"))
        assert transport.stats["outages"] == 1

    def test_blackout_hangs_until_timeout_then_raises(self):
        clock = FakeClock()
        slept = []
        transport = ChaosTransport(
            wire_chaos(spec("blackout", match="heartbeat", latency=3.0)),
            inner=FakeWire(), clock=clock, sleeper=slept.append,
        )
        with pytest.raises(TimeoutError):
            transport(post("/v1/lease/abc/heartbeat"), timeout=0.5)
        # A blackout eats the caller's full timeout, not the whole window.
        assert slept == [0.5]
        assert transport.stats["blackholed"] == 1

    def test_reset_delivers_the_request_but_drops_the_response(self):
        inner = FakeWire()
        transport = ChaosTransport(
            wire_chaos(spec("reset", match="complete")),
            inner=inner, clock=FakeClock(), sleeper=lambda s: None,
        )
        with pytest.raises(ConnectionResetError):
            transport(post("/v1/lease/abc/complete"))
        # The at-least-once hazard: the server DID see the request.
        assert len(inner.calls) == 1
        assert transport.stats["resets"] == 1

    def test_flaky_drops_calls_and_slow_link_delays_them(self):
        inner = FakeWire()
        slept = []
        transport = ChaosTransport(
            wire_chaos(
                spec("flaky", times=2),
                spec("slow_link", latency=0.25, times=1),
            ),
            inner=inner, clock=FakeClock(), sleeper=slept.append,
        )
        results = []
        for _ in range(4):
            try:
                transport(get("/v1/health"))
                results.append("ok")
            except ConnectionResetError:
                results.append("dropped")
        assert results.count("dropped") == 2
        assert transport.stats["dropped"] == 2
        assert 0.25 in slept
        assert transport.stats["delayed"] == 1

    def test_heal_clears_an_active_outage(self):
        transport = ChaosTransport(
            wire_chaos(spec("partition", match="lease", latency=100.0)),
            inner=FakeWire(), clock=FakeClock(), sleeper=lambda s: None,
        )
        with pytest.raises(ConnectionRefusedError):
            transport(post("/v1/lease"))
        assert transport.severed
        transport.heal()
        assert not transport.severed
        transport(post("/v1/lease"))

    def test_same_seed_same_wire_behaviour(self):
        def run_sequence(seed):
            transport = ChaosTransport(
                wire_chaos(spec("flaky", rate=0.5, times=None), seed=seed),
                inner=FakeWire(), clock=FakeClock(), sleeper=lambda s: None,
            )
            out = []
            for _ in range(12):
                try:
                    transport(get("/v1/health"))
                    out.append(1)
                except ConnectionResetError:
                    out.append(0)
            return out

        assert run_sequence(3) == run_sequence(3)


class Refuser:
    """An opener that always refuses, counting attempts."""

    def __init__(self):
        self.calls = 0

    def __call__(self, req, timeout=None):
        self.calls += 1
        raise ConnectionRefusedError("refused")


class TestRetryDiscipline:
    def make_client(self, opener, **kwargs):
        kwargs.setdefault("retries", 3)
        kwargs.setdefault("backoff", 0.0)
        kwargs.setdefault("sleeper", lambda s: None)
        return ControlPlaneClient("http://cp.test", opener=opener, **kwargs)

    def test_non_idempotent_post_without_token_gets_one_attempt(self):
        refuser = Refuser()
        client = self.make_client(refuser)
        with pytest.raises(ServerUnavailable):
            client.request("POST", "/v1/lease", {"agent": "a"})
        assert refuser.calls == 1

    def test_dedupe_token_buys_the_retry_budget_back(self):
        refuser = Refuser()
        client = self.make_client(refuser)
        with pytest.raises(ServerUnavailable):
            client.request(
                "POST", "/v1/lease", {"agent": "a"}, retry_token="lease-a-1"
            )
        assert refuser.calls == 4  # 1 + retries

    def test_idempotent_get_retries_connect_errors(self):
        refuser = Refuser()
        client = self.make_client(refuser)
        with pytest.raises(ServerUnavailable):
            client.request("GET", "/v1/runs")
        assert refuser.calls == 4

    def test_4xx_is_definitive_and_never_retried(self):
        calls = []

        def opener(req, timeout=None):
            calls.append(req.selector)
            import io

            raise urllib.error.HTTPError(
                req.full_url, 400, "bad", {}, io.BytesIO(b'{"error":"nope"}')
            )

        client = self.make_client(opener)
        with pytest.raises(RequestFailed) as caught:
            client.request("GET", "/v1/runs")
        assert caught.value.status == 400
        assert len(calls) == 1

    def test_5xx_retried_only_for_idempotent_or_tokened(self):
        import io

        failures = {"n": 0}

        def opener(req, timeout=None):
            failures["n"] += 1
            if failures["n"] < 3:
                raise urllib.error.HTTPError(
                    req.full_url, 503, "busy", {}, io.BytesIO(b'{"error":"busy"}')
                )
            return FakeResponse({"runs": []})

        client = self.make_client(opener)
        assert client.request("GET", "/v1/runs") == {"runs": []}
        assert failures["n"] == 3

        failures["n"] = -100  # fail every attempt from here on
        with pytest.raises(RequestFailed):
            # Bare non-idempotent POST: the 503 is NOT retried.
            client.request("POST", "/v1/lease", {"agent": "a"})
        assert failures["n"] == -99

    def test_fenced_409_surfaces_on_the_exception(self):
        import io

        def opener(req, timeout=None):
            raise urllib.error.HTTPError(
                req.full_url, 409, "conflict", {},
                io.BytesIO(b'{"error":"stale","fenced":true}'),
            )

        client = self.make_client(opener)
        with pytest.raises(RequestFailed) as caught:
            client.request("POST", "/v1/lease/abc/complete", {}, retry_token="abc")
        assert caught.value.status == 409
        assert caught.value.fenced

    def test_health_probe_uses_a_short_timeout(self):
        seen = []

        def opener(req, timeout=None):
            seen.append(timeout)
            return FakeResponse({"status": "ok"})

        client = self.make_client(opener, timeout=10.0)
        client.health()
        assert seen == [5.0]  # timeout_scale 0.5


class TestDedupe:
    def test_lease_request_id_replays_the_original_grant(self):
        store = fresh_store()
        submit_minimal(store)
        first = store.lease("agent-a", ttl=30, request_id="lease-a-1")
        replay = store.lease("agent-a", ttl=30, request_id="lease-a-1")
        assert replay == first
        # A fresh ask is a different grant (next unit or None).
        other = store.lease("agent-a", ttl=30, request_id="lease-a-2")
        assert other != first

    def test_submit_request_id_replays_instead_of_twinning(self):
        store = fresh_store()
        run_a = submit_minimal(store)
        replay = store.submit_run(
            {"name": "dup"},
            [("download", [])],
            name="dup",
            request_id="submit-1",
        )
        again = store.submit_run(
            {"name": "dup"},
            [("download", [])],
            name="dup",
            request_id="submit-1",
        )
        assert replay["id"] == again["id"]
        assert run_a["id"] != replay["id"]
        assert len(store.list_runs()) == 2


class TestOutbox:
    def test_durable_roundtrip_and_clear(self, tmp_path):
        path = str(tmp_path / "spool" / "agent.jsonl")
        box = Outbox(path)
        box.append({"kind": "heartbeat", "lease_id": "l1"})
        box.append({"kind": "complete", "lease_id": "l1", "status": "completed"})
        # A successor process (agent restarted while partitioned) reloads.
        reborn = Outbox(path)
        assert len(reborn) == 2
        assert reborn.records()[0]["kind"] == "heartbeat"
        reborn.clear()
        assert len(reborn) == 0
        assert len(Outbox(path)) == 0

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        path = str(tmp_path / "agent.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"kind": "heartbeat", "lease_id": "l1"}) + "\n")
            handle.write('{"kind": "complete", "lease')  # crash mid-append
        box = Outbox(path)
        assert [r["kind"] for r in box.records()] == ["heartbeat"]
        # The torn bytes are gone from the file, so a record spooled
        # after the restart survives the next one.
        box.append({"kind": "complete", "lease_id": "l2"})
        reborn = Outbox(path)
        assert [r["kind"] for r in reborn.records()] == ["heartbeat", "complete"]

    def test_memory_only_outbox_needs_no_path(self):
        box = Outbox()
        box.append({"kind": "heartbeat", "lease_id": "l1"})
        assert len(box) == 1
        box.clear()
        assert len(box) == 0


class TestFencing:
    def test_two_agents_exactly_once_loser_rejected_idempotently(self):
        """Satellite (d): lease expires mid-execution, a second agent
        finishes the unit, and the first agent's late POST is rejected
        with a fenced 409 — as many times as it retries."""
        clock = FakeClock()
        store = fresh_store(clock)
        submit_minimal(store)
        with control_plane(store=store) as (_server, client):
            stale = client.lease("agent-a", ttl=10.0)
            clock.advance(11.0)  # agent-a goes quiet past its TTL
            fresh = client.lease("agent-b", ttl=10.0)
            assert fresh.unit == stale.unit
            assert fresh.fence == stale.fence + 1
            client.complete(fresh.lease_id, result={"files": 7})
            for _ in range(2):  # the rejection is idempotent
                with pytest.raises(RequestFailed) as caught:
                    client.complete(stale.lease_id, result={"files": 1})
                assert caught.value.status == 409
                assert caught.value.fenced
            detail = client.run(stale.run_id)
        unit = {u.name: u for u in detail.units}[stale.unit]
        assert unit.status == "completed"
        assert unit.result == {"files": 7}  # the winner's bytes, once

    def test_heartbeat_reveals_fenced_lease_and_agent_stands_down(self):
        """Satellite (c): the heartbeat learns the lease was requeued;
        the executor is cancelled at a checkpoint and no completion is
        ever POSTed by the loser."""
        clock = FakeClock()
        store = fresh_store(clock)
        submit_minimal(store)

        started = threading.Event()

        def blocking_executor(config, unit, chaos=None, cancel=None):
            started.set()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if cancel is not None and cancel.is_set():
                    raise LeaseLost("fenced away; standing down")
                time.sleep(0.005)
            raise AssertionError("cancel never fired")

        with control_plane(store=store) as (_server, client):
            agent = SiteAgent(
                client, name="agent-a", ttl=10.0,
                poll_interval=0.01, heartbeat_interval=0.03,
                executor=blocking_executor,
            )
            thread = threading.Thread(target=agent.run, kwargs={"max_units": 1})
            thread.start()
            assert started.wait(5.0)
            clock.advance(11.0)  # the lease silently expires server-side
            usurper = client.lease("agent-b", ttl=10.0)
            client.complete(usurper.lease_id, result={"files": 3})
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            detail = client.run(usurper.run_id)

        assert agent.stats.lost_leases == 1
        assert agent.stats.completed == 0
        unit = {u.name: u for u in detail.units}[usurper.unit]
        assert unit.result == {"files": 3}


class TestDegradedAgent:
    def test_outage_spools_then_reconciles_exactly_once(self, tmp_path):
        """A partition at the complete phase: the agent finishes its
        unit, spools the result, probes, reconnects, and the replay
        lands exactly once."""
        chaos = wire_chaos(spec("partition", match="complete", latency=0.4))
        transport = ChaosTransport(chaos)
        executed = []

        def stub_executor(config, unit, chaos=None):
            executed.append(unit)
            return {"unit": unit}

        store = RunStore(":memory:")
        submit_minimal(store)
        with control_plane(store=store) as (server, _operator):
            client = ControlPlaneClient(
                server.url, timeout=0.3, retries=1, backoff=0.02,
                opener=transport,
            )
            agent = SiteAgent(
                client, name="site-a", ttl=30.0,
                poll_interval=0.01, heartbeat_interval=10.0,
                executor=stub_executor,
                outbox=str(tmp_path / "spool" / "a.jsonl"),
                reconnect=BackoffPolicy(base=0.02, max_delay=0.1, full_jitter=True),
            )
            agent.run(idle_exit_after=5)
            operator = ControlPlaneClient(server.url)
            detail = operator.run(store.list_runs()[0]["id"])
            snap = operator.metrics()["metrics"]

        assert all(u.status == "completed" for u in detail.units)
        # Every unit executed once and landed once.
        assert sorted(executed) == sorted(u.name for u in detail.units)
        assert all(u.attempts == 1 for u in detail.units)
        assert agent.stats.completed == len(detail.units)
        # The outage was real and the spool made it home.
        assert agent.stats.disconnects >= 1
        assert agent.stats.outbox_spooled >= 1
        assert agent.stats.outbox_replayed >= 1
        assert len(agent.outbox) == 0
        # The server's view of the same story.
        assert snap["control_plane.partition.reconciles"] >= 1
        assert snap["control_plane.partition.outbox_replayed"] >= 1
        assert snap["control_plane.partition.disconnects"] >= 1
        assert snap["control_plane.partition.reconnect_attempts"] >= 1

    def test_reconnect_limit_exhaustion_raises_for_the_cli(self):
        client = ControlPlaneClient(
            "http://127.0.0.1:9", timeout=0.1, retries=0, backoff=0.0,
            sleeper=lambda s: None,
        )
        agent = SiteAgent(
            client, name="site-a", poll_interval=0.0,
            reconnect=BackoffPolicy(base=0.0, max_delay=0.0, full_jitter=True),
            reconnect_limit=2, sleeper=lambda s: None,
        )
        with pytest.raises(ServerUnavailable):
            agent.run()
        assert agent.stats.disconnects == 1
        assert agent.stats.reconnect_attempts == 2

    def test_stop_event_interrupts_degraded_probing(self):
        client = ControlPlaneClient(
            "http://127.0.0.1:9", timeout=0.1, retries=0, backoff=0.0,
            sleeper=lambda s: None,
        )
        stop = threading.Event()
        probes = {"n": 0}

        def sleeper(seconds):
            probes["n"] += 1
            if probes["n"] >= 3:
                stop.set()

        agent = SiteAgent(
            client, name="site-a", poll_interval=0.0,
            reconnect=BackoffPolicy(base=0.0, max_delay=0.0, full_jitter=True),
            sleeper=sleeper,
        )
        stats = agent.run(stop=stop)  # reconnect_limit=None: probes forever
        assert stats.disconnects == 1
        assert stats.reconnect_attempts >= 2

    def test_a_new_agent_starts_with_zero_partition_counters(self):
        stats = SiteAgent(
            ControlPlaneClient("http://127.0.0.1:9"), name="x"
        ).stats
        assert all(getattr(stats, name) == 0 for name in PARTITION_FIELDS)


class TestRecovery:
    def test_startup_sweep_requeues_expired_leases_after_a_kill(self, tmp_path):
        db = str(tmp_path / "cp.db")
        store = RunStore(db)
        submit_minimal(store)
        grant = store.lease("agent-a", ttl=0.01)
        assert grant is not None
        time.sleep(0.05)  # the holder died; its lease ages out
        store.close()

        # A new server process over the same file repairs state before
        # serving: the sweep expires the dead lease and requeues the unit.
        server = ControlPlaneServer(db)
        assert server.swept["expired_leases"] >= 1
        server.start()
        try:
            client = ControlPlaneClient(server.url)
            regrant = client.lease("agent-b", ttl=30.0)
            assert regrant is not None
            assert regrant.unit == grant["unit"]
            assert regrant.fence == grant["fence"] + 1
        finally:
            server.stop()
            server.store.close()

    def test_reconcile_replay_is_idempotent(self):
        store = fresh_store()
        submit_minimal(store)
        grant = store.lease("agent-a", ttl=30.0)
        records = [
            {"kind": "heartbeat", "lease_id": grant["lease_id"], "ttl": 30.0},
            {
                "kind": "complete", "lease_id": grant["lease_id"],
                "status": "completed", "result": {"files": 2},
            },
        ]
        first = store.reconcile("agent-a", records)
        second = store.reconcile("agent-a", records)
        outcomes = [o["outcome"] for o in first["outcomes"]]
        assert outcomes[1] == "applied"
        assert [o["outcome"] for o in second["outcomes"]][1] == "duplicate"
        unit = {
            u["name"]: u for u in store.get_run(grant["run_id"])["units"]
        }[grant["unit"]]
        assert unit["status"] == "completed"
        assert unit["result"] == {"files": 2}
        assert unit["attempts"] == 1
