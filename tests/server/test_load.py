"""Load test: the control plane under a concurrent client burst.

Marked ``slow``: the tier-1 job skips it (``-m "not slow"``); the
bench-smoke CI job runs it, alongside the ``agents_wire`` workload of
``BENCHMARK.json``, whose ``server.*`` ledger rows carry the lease-cycle
latency.

The shape mirrors the paper's multi-facility reality: many operators
and agents hammering one service — here ≥200 concurrent clients, each
submitting a run, polling status, and driving the lease protocol end to
end.  The assertions are about *correctness under concurrency* (every
request answered, every run drained, no double-assignment); latency
numbers belong to the benchmark, not the test.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from tests.server.harness import build_raw_config, control_plane

from repro.server import ControlPlaneClient

pytestmark = pytest.mark.slow

CLIENTS = 200
UNITS_PER_RUN = 5  # the five-stage plan


@pytest.mark.slow
def test_200_concurrent_clients_all_served_and_drained(tmp_path):
    raw = build_raw_config(str(tmp_path), 2)
    with control_plane() as (server, _client):
        url = server.url
        errors = []
        run_ids = []
        lock = threading.Lock()

        def one_client(index):
            try:
                client = ControlPlaneClient(url, timeout=60.0, retries=5)
                run = client.submit(raw, name=f"load-{index}")
                with lock:
                    run_ids.append(run.run_id)
                # A status poll and a lease-protocol round per client.
                client.run(run.run_id)
                lease = client.lease(f"agent-{index}")
                if lease is not None:
                    client.heartbeat(lease.lease_id)
                    client.complete(lease.lease_id, result={"by": index})
            except Exception as exc:  # noqa: BLE001 — collect, assert below
                with lock:
                    errors.append(f"client {index}: {exc!r}")

        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            list(pool.map(one_client, range(CLIENTS)))

        assert errors == [], errors[:10]
        assert len(run_ids) == CLIENTS

        # Drain whatever the burst left behind with a few worker loops.
        def drainer(name):
            client = ControlPlaneClient(url, timeout=60.0, retries=5)
            while True:
                lease = client.lease(name)
                if lease is None:
                    return
                client.complete(lease.lease_id, result={"by": name})

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(drainer, [f"drainer-{i}" for i in range(8)]))

        stats = server.store.stats()
        assert stats["runs"] == {"completed": CLIENTS}
        assert stats["units"] == {"completed": UNITS_PER_RUN * CLIENTS}
        # Every unit completed exactly once: granted leases that finished
        # == units, everything else expired/abandoned cleanly.
        assert stats["leases"].get("active", 0) == 0

        # The server saw and metered the whole burst.
        snapshot = server.api.metrics.snapshot()
        assert snapshot["control_plane.runs.submitted"] == CLIENTS
        assert snapshot["control_plane.api.latency_seconds.count"] >= 5 * CLIENTS
