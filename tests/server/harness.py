"""Test harness for the control plane: in-process server + helpers.

Every test talks to a *real* :class:`~repro.server.service.
ControlPlaneServer` over genuine HTTP on an ephemeral loopback port —
the same transport production uses — but in-process, so a test owns the
store and the clock.  The helpers here are the vocabulary all the
server tests share:

* :func:`control_plane` — context-managed (server, client) pair;
* :func:`fake_clock` — a manually advanced clock for lease-expiry tests;
* :func:`submit_minimal` — registers a run with a tiny synthetic unit
  graph (for protocol tests that never execute real stages);
* :data:`PARTITION_FIELDS` — the degraded-mode counters an agent keeps
  in its :class:`~repro.server.agent.AgentStats`.
"""

from contextlib import contextmanager

from tests.core.crash_driver import build_raw_config  # noqa: F401 (re-export)

from repro.server import ControlPlaneClient, ControlPlaneServer
from repro.server.store import RunStore

PARTITION_FIELDS = (
    "disconnects",
    "reconnect_attempts",
    "outbox_spooled",
    "outbox_replayed",
    "fenced_rejections",
)


class FakeClock:
    """A clock the test advances by hand — lease expiry becomes exact."""

    def __init__(self, start: float = 1_000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


@contextmanager
def control_plane(db_path=":memory:", store=None, **client_kwargs):
    """A running control plane and a client pointed at it."""
    server = ControlPlaneServer(db_path, store=store)
    server.start()
    try:
        yield server, ControlPlaneClient(server.url, **client_kwargs)
    finally:
        server.stop()


def fresh_store(clock=None, **kwargs) -> RunStore:
    return RunStore(":memory:", clock=clock or FakeClock(), **kwargs)


# A synthetic unit graph shaped like the real plan (chain with a fan-in),
# for protocol tests that never execute stages.
CHAIN_UNITS = [
    ("download", []),
    ("model", ["download"]),
    ("preprocess", ["download", "model"]),
    ("inference", ["preprocess", "model"]),
    ("shipment", ["inference"]),
]


def submit_minimal(store, name="test-run", units=None, config=None):
    return store.submit_run(
        config if config is not None else {"name": name},
        units if units is not None else CHAIN_UNITS,
        name=name,
    )
