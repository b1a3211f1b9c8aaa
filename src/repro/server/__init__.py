"""repro.server — the multi-facility control plane.

The paper's workflow service, made concrete: a central HTTP service owns
runs and their work-units in a SQLite store, facilities are polling
**site agents** that lease units, execute them through the existing
stage runtime, heartbeat while working, and report results.  A lease
that expires (agent death, network partition) requeues its unit, and the
run journal makes re-execution idempotent — a killed agent never loses
or duplicates work.

Layers (each importable on its own):

* :mod:`repro.server.store`     — SQLite-backed run/unit/lease store;
* :mod:`repro.server.wire`      — JSON token logs for cross-process state;
* :mod:`repro.server.execution` — standalone execution of one plan node;
* :mod:`repro.server.metrics`   — the counters served at ``/v1/metrics``;
* :mod:`repro.server.api`       — transport-free request handlers;
* :mod:`repro.server.service`   — stdlib threaded HTTP server;
* :mod:`repro.server.client`    — typed HTTP client;
* :mod:`repro.server.agent`     — the polling site agent.

The CLI front-ends are ``repro serve`` / ``submit`` / ``status`` /
``agent``; local ``repro run`` never touches this package.
"""

from repro.server.agent import AgentStats, SiteAgent
from repro.server.api import ApiError, ControlPlaneAPI
from repro.server.client import (
    ControlPlaneClient,
    ControlPlaneError,
    Lease,
    RequestFailed,
    RunSummary,
    ServerUnavailable,
    UnitSummary,
)
from repro.server.execution import LeaseLost, execute_unit, unit_graph
from repro.server.outbox import Outbox
from repro.server.service import ControlPlaneServer, serve
from repro.server.store import (
    Conflict,
    Fenced,
    NotFound,
    RunStore,
    StoreError,
)

__all__ = [
    "AgentStats",
    "ApiError",
    "Conflict",
    "ControlPlaneAPI",
    "ControlPlaneClient",
    "ControlPlaneError",
    "ControlPlaneServer",
    "Fenced",
    "Lease",
    "LeaseLost",
    "NotFound",
    "Outbox",
    "RequestFailed",
    "RunStore",
    "RunSummary",
    "ServerUnavailable",
    "SiteAgent",
    "StoreError",
    "UnitSummary",
    "execute_unit",
    "serve",
    "unit_graph",
]
