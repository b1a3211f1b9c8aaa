"""An HTTPS file-server model (the LAADS DAAC download path).

Three effects shape the paper's Fig. 3 (download speed vs product size for
3 vs 6 workers):

* **per-request overhead** — TLS + HTTP + catalog round trips dominate
  small files, so single-file downloads see no benefit from more workers;
* **per-connection ceiling** — one HTTPS stream tops out well below the
  WAN capacity (TCP window / server throttling), so adding workers adds
  aggregate bandwidth...
* **shared WAN capacity** — ...until the workers saturate the effective
  site-to-site share, which is why 6 workers gain only a few MB/s over 3.

:class:`HttpServer` composes all three on a :class:`FluidPipe`.

This module also owns the control plane's **wire phase taxonomy**:
every HTTP exchange between a facility and the central service belongs
to one of :data:`PHASES`, and :func:`classify_phase` maps a concrete
``(method, path)`` onto it.  The taxonomy is the shared vocabulary of
the per-endpoint retry budgets in :class:`~repro.server.client.
ControlPlaneClient` and the wire-level fault injector
(:class:`~repro.chaos.surfaces.ChaosTransport`): a fault plan says
"sever the link at the *heartbeat* phase" in the same words the client
uses to decide how hard that request may be retried.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.sim import Event, FluidPipe, Simulation
from repro.util.logging import EventLog

__all__ = [
    "HttpServer", "DownloadResult", "HttpError",
    "PHASES", "classify_phase",
]

# The agent/server interaction phases of the control-plane protocol.
# ``submit``/``status``/``control`` are the operator's phases; ``lease``
# ``heartbeat``/``complete``/``reconcile`` are the agent's; ``health``/
# ``metrics`` are probes.  ``other`` catches unrouted paths.
PHASES = (
    "submit", "status", "control",
    "lease", "heartbeat", "complete", "reconcile",
    "health", "metrics", "other",
)


def classify_phase(method: str, path: str) -> str:
    """Map one control-plane request onto its protocol phase."""
    path = path.rstrip("/")
    if path == "/v1/health":
        return "health"
    if path == "/v1/metrics":
        return "metrics"
    if path == "/v1/lease":
        return "lease"
    if path.startswith("/v1/lease/"):
        if path.endswith("/heartbeat"):
            return "heartbeat"
        if path.endswith("/complete"):
            return "complete"
        return "other"
    if path == "/v1/reconcile":
        return "reconcile"
    if path == "/v1/runs":
        return "submit" if method.upper() == "POST" else "status"
    if path.startswith("/v1/runs/"):
        if path.endswith(("/pause", "/resume", "/retry")):
            return "control"
        return "status"
    return "other"


class HttpError(RuntimeError):
    """A request failed server-side (5xx / dropped connection)."""


class DownloadResult:
    """Timing record for one completed request."""

    __slots__ = ("nbytes", "started_at", "finished_at")

    def __init__(self, nbytes: int, started_at: float, finished_at: float):
        self.nbytes = nbytes
        self.started_at = started_at
        self.finished_at = finished_at

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def mean_rate(self) -> float:
        return self.nbytes / self.duration if self.duration > 0 else float("inf")


class HttpServer:
    """A remote HTTPS archive endpoint with shared egress bandwidth.

    Defaults approximate a well-connected public archive reached from a
    DOE site: ~8 MB/s per HTTPS stream, ~30 MB/s effective per-user WAN
    share, ~2 s of request setup (matching the magnitudes behind Fig. 3's
    5-25 MB/s observed speeds).
    """

    def __init__(
        self,
        sim: Simulation,
        name: str = "laads",
        wan_bandwidth: float = 30e6,
        per_connection_bw: float = 8e6,
        request_overhead: float = 2.0,
        failure_rate: float = 0.0,
        seed: int = 0,
        log: Optional[EventLog] = None,
    ):
        if request_overhead < 0:
            raise ValueError("request overhead must be non-negative")
        if not 0.0 <= failure_rate < 1.0:
            raise ValueError("failure rate must be in [0, 1)")
        self.sim = sim
        self.name = name
        self.pipe = FluidPipe(sim, capacity=wan_bandwidth, per_flow_cap=per_connection_bw)
        self.request_overhead = request_overhead
        self.failure_rate = failure_rate
        self._rng = np.random.default_rng(seed)
        self.log = log or EventLog()
        self.requests_served = 0
        self.requests_failed = 0

    def request(self, nbytes: int, label: str = "") -> Event:
        """Issue one GET; the returned event fires with a DownloadResult."""
        if nbytes < 0:
            raise ValueError("request size must be non-negative")
        done = self.sim.event()
        started = self.sim.now

        def body() -> Generator:
            yield self.sim.timeout(self.request_overhead)
            if self.failure_rate > 0 and self._rng.uniform() < self.failure_rate:
                # Connection dropped partway: the time is spent, the bytes
                # are not delivered.
                yield self.pipe.transfer(float(nbytes) * float(self._rng.uniform(0.05, 0.6)))
                self.requests_failed += 1
                self.log.emit(self.sim.now, self.name, "failed", label=label, nbytes=nbytes)
                done.fail(HttpError(f"connection dropped serving {label or nbytes}"))
                return
            yield self.pipe.transfer(float(nbytes))
            self.requests_served += 1
            result = DownloadResult(nbytes, started, self.sim.now)
            self.log.emit(
                self.sim.now, self.name, "served",
                label=label, nbytes=nbytes, seconds=round(result.duration, 3),
            )
            done.succeed(result)

        self.sim.process(body(), name=f"http-{label or nbytes}")
        return done

    @property
    def active_connections(self) -> int:
        return self.pipe.active_flows
