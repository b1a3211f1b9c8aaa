"""The control-plane API: transport-free handlers over the run store.

Every route is a pure function ``(match, body) -> (status, payload)``
over the :class:`~repro.server.store.RunStore`, so the same handler
layer serves the stdlib HTTP server today and could mount on FastAPI
unchanged.  The table below is the service contract (pinned by
``tests/server/test_api_contract.py`` and documented in
``docs/architecture.md``):

    GET  /v1/health                          liveness + version
    GET  /v1/metrics                         telemetry snapshot + store stats
    POST /v1/runs                            submit {config, name?}
    GET  /v1/runs                            list runs
    GET  /v1/runs/{run}                      run detail (units, config)
    GET  /v1/runs/{run}/events               run event log
    POST /v1/runs/{run}/pause                stop leasing this run's units
    POST /v1/runs/{run}/resume               resume leasing
    POST /v1/runs/{run}/units/{unit}/retry   requeue a terminal unit
    POST /v1/lease                           {agent, site?, ttl?, request_id?} -> unit | 204
    POST /v1/lease/{lease}/heartbeat         {ttl?} extend the lease
    POST /v1/lease/{lease}/complete          {status, result?, error?}
    POST /v1/reconcile                       {agent, records} replay a spooled outbox

Errors are JSON ``{"error": message}`` with conventional status codes:
400 malformed, 404 unknown entity, 409 state conflict (including fenced
stale-lease writes).  Expired leases are swept on every request, so a
dead agent's work requeues no later than the next API touch.  The
non-idempotent POSTs (submit, lease) accept a ``request_id`` dedupe key
so a client may retry them safely over a lossy wire.
"""

from __future__ import annotations

import re
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import repro
from repro.server.metrics import MetricsRegistry
from repro.server.store import Conflict, Fenced, NotFound, RunStore

__all__ = ["ApiError", "ControlPlaneAPI", "ROUTES"]

Response = Tuple[int, Optional[Dict[str, Any]]]


class ApiError(Exception):
    """A request the API rejects, with its HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


# (method, path regex, handler attribute).  The canonical route table —
# docs and contract tests introspect this.
ROUTES: List[Tuple[str, str, str]] = [
    ("GET", r"^/v1/health$", "health"),
    ("GET", r"^/v1/metrics$", "metrics_snapshot"),
    ("POST", r"^/v1/runs$", "submit_run"),
    ("GET", r"^/v1/runs$", "list_runs"),
    ("GET", r"^/v1/runs/(?P<run>[^/]+)$", "get_run"),
    ("GET", r"^/v1/runs/(?P<run>[^/]+)/events$", "run_events"),
    ("POST", r"^/v1/runs/(?P<run>[^/]+)/pause$", "pause_run"),
    ("POST", r"^/v1/runs/(?P<run>[^/]+)/resume$", "resume_run"),
    ("POST", r"^/v1/runs/(?P<run>[^/]+)/units/(?P<unit>[^/]+)/retry$", "retry_unit"),
    ("POST", r"^/v1/lease$", "lease"),
    ("POST", r"^/v1/lease/(?P<lease>[^/]+)/heartbeat$", "heartbeat"),
    ("POST", r"^/v1/lease/(?P<lease>[^/]+)/complete$", "complete"),
    ("POST", r"^/v1/reconcile$", "reconcile"),
]


class ControlPlaneAPI:
    """Dispatches (method, path, body) onto store operations."""

    def __init__(
        self,
        store: RunStore,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.store = store
        self.metrics = metrics or MetricsRegistry(prefix="control_plane")
        self._clock = clock
        self._routes = [
            (method, re.compile(pattern), getattr(self, name))
            for method, pattern, name in ROUTES
        ]
        self._latency = self.metrics.histogram(
            "api.latency_seconds",
            buckets=(0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
        )
        # Partition-tolerance counters are always present (registered at
        # zero) so dashboards and tests can assert "zero on clean runs"
        # instead of "absent".
        for name in ("partition.fenced_rejections", "partition.reconciles",
                     "partition.outbox_replayed", "partition.deduped_requests",
                     "partition.disconnects", "partition.reconnect_attempts"):
            self.metrics.counter(name).inc(0)

    # -- dispatch -------------------------------------------------------------

    def handle(
        self, method: str, path: str, body: Optional[Mapping[str, Any]] = None
    ) -> Response:
        """Route one request; never raises — errors become JSON responses."""
        started = self._clock()
        # Sweep on every touch: a dead agent's unit requeues no later than
        # the next API request, regardless of which route it hits.
        for _run_id, unit in self.store.expire_leases():
            self.metrics.counter("leases.expired").inc(unit=unit)
        status, payload, route = self._dispatch(method, path, body)
        self._latency.observe(self._clock() - started)
        self.metrics.counter("api.requests").inc(
            route=route, method=method, code=str(status)
        )
        return status, payload

    def _dispatch(
        self, method: str, path: str, body: Optional[Mapping[str, Any]]
    ) -> Tuple[int, Optional[Dict[str, Any]], str]:
        matched_path = False
        for route_method, pattern, handler in self._routes:
            match = pattern.match(path)
            if match is None:
                continue
            matched_path = True
            if route_method != method:
                continue
            route = handler.__name__
            run_id = match.groupdict().get("run")
            if run_id:
                # Per-run API traffic, for operator dashboards.
                self.metrics.counter("api.run_requests").inc(run=run_id)
            try:
                status, payload = handler(match.groupdict(), body or {})
                return status, payload, route
            except ApiError as exc:
                return exc.status, {"error": exc.message}, route
            except NotFound as exc:
                return 404, {"error": str(exc)}, route
            except Fenced as exc:
                self.metrics.counter("partition.fenced_rejections").inc()
                return 409, {"error": str(exc), "fenced": True}, route
            except Conflict as exc:
                return 409, {"error": str(exc)}, route
            except (ValueError, KeyError, TypeError) as exc:
                return 400, {"error": str(exc)}, route
        if matched_path:
            return 405, {"error": f"method {method} not allowed on {path}"}, "none"
        return 404, {"error": f"no route {method} {path}"}, "none"

    # -- handlers -------------------------------------------------------------

    def health(self, match: Dict[str, str], body: Mapping[str, Any]) -> Response:
        return 200, {"ok": True, "version": repro.__version__}

    def metrics_snapshot(self, match: Dict[str, str], body: Mapping[str, Any]) -> Response:
        return 200, {
            "metrics": self.metrics.snapshot(),
            "store": self.store.stats(),
        }

    def submit_run(self, match: Dict[str, str], body: Mapping[str, Any]) -> Response:
        config = body.get("config")
        if not isinstance(config, Mapping):
            raise ApiError(400, "body must carry a 'config' mapping")
        # Validate and derive the unit graph server-side, so a malformed
        # config is rejected at submission, not at first lease.
        from repro.server.execution import unit_graph, validate_remote_config

        try:
            parsed = validate_remote_config(config)
        except Exception as exc:  # ConfigError or ValueError
            raise ApiError(400, f"invalid workflow config: {exc}") from exc
        units = unit_graph(parsed)
        before = self.store.dedupe_hits
        run = self.store.submit_run(
            config, units, name=str(body.get("name") or parsed.name),
            request_id=str(body.get("request_id") or ""),
        )
        if self.store.dedupe_hits > before:
            self.metrics.counter("partition.deduped_requests").inc(kind="submit")
        else:
            self.metrics.counter("runs.submitted").inc()
        return 201, {"run": run}

    def list_runs(self, match: Dict[str, str], body: Mapping[str, Any]) -> Response:
        return 200, {"runs": self.store.list_runs()}

    def get_run(self, match: Dict[str, str], body: Mapping[str, Any]) -> Response:
        return 200, {"run": self.store.get_run(match["run"])}

    def run_events(self, match: Dict[str, str], body: Mapping[str, Any]) -> Response:
        return 200, {"events": self.store.events(match["run"])}

    def pause_run(self, match: Dict[str, str], body: Mapping[str, Any]) -> Response:
        return 200, {"run": self.store.pause_run(match["run"])}

    def resume_run(self, match: Dict[str, str], body: Mapping[str, Any]) -> Response:
        return 200, {"run": self.store.resume_run(match["run"])}

    def retry_unit(self, match: Dict[str, str], body: Mapping[str, Any]) -> Response:
        return 200, {
            "unit": self.store.retry_unit(match["run"], match["unit"])
        }

    def lease(self, match: Dict[str, str], body: Mapping[str, Any]) -> Response:
        agent = body.get("agent")
        if not agent or not isinstance(agent, str):
            raise ApiError(400, "lease body must carry an 'agent' name")
        ttl = body.get("ttl")
        before = self.store.dedupe_hits
        leased = self.store.lease(
            agent,
            site=str(body.get("site") or ""),
            ttl=float(ttl) if ttl is not None else None,
            request_id=str(body.get("request_id") or ""),
        )
        if leased is None:
            return 204, None
        if self.store.dedupe_hits > before:
            self.metrics.counter("partition.deduped_requests").inc(kind="lease")
        else:
            self.metrics.counter("leases.granted").inc(unit=leased["unit"])
        return 200, {"lease": leased}

    def heartbeat(self, match: Dict[str, str], body: Mapping[str, Any]) -> Response:
        ttl = body.get("ttl")
        beat = self.store.heartbeat(
            match["lease"], ttl=float(ttl) if ttl is not None else None
        )
        return 200, beat

    def complete(self, match: Dict[str, str], body: Mapping[str, Any]) -> Response:
        status = str(body.get("status") or "completed")
        result = body.get("result")
        if result is not None and not isinstance(result, Mapping):
            raise ApiError(400, "'result' must be a mapping when present")
        outcome = self.store.complete(
            match["lease"],
            status=status,
            result=result,
            error=body.get("error"),
        )
        self.metrics.counter("units.completed").inc(status=outcome["status"])
        return 200, outcome

    def reconcile(self, match: Dict[str, str], body: Mapping[str, Any]) -> Response:
        agent = body.get("agent")
        if not agent or not isinstance(agent, str):
            raise ApiError(400, "reconcile body must carry an 'agent' name")
        records = body.get("records", [])
        if not isinstance(records, list) or any(
            not isinstance(r, Mapping) for r in records
        ):
            raise ApiError(400, "'records' must be a list of mappings")
        outcome = self.store.reconcile(agent, records)
        self.metrics.counter("partition.reconciles").inc(agent=agent)
        # The agent's own view of the outage rides along: how many times
        # it dropped into degraded mode and how many probes the reconnect
        # took.  The server cannot observe a severed wire directly, so
        # this is the only way those counters reach central /metrics.
        stats = body.get("stats")
        if isinstance(stats, Mapping):
            for key in ("disconnects", "reconnect_attempts"):
                try:
                    value = int(stats.get(key, 0))
                except (TypeError, ValueError):
                    continue
                if value > 0:
                    self.metrics.counter(f"partition.{key}").inc(value, agent=agent)
        counts = outcome["counts"]
        replayed = counts.get("applied", 0) + counts.get("duplicate", 0)
        if replayed:
            self.metrics.counter("partition.outbox_replayed").inc(replayed)
        if counts.get("fenced"):
            self.metrics.counter("partition.fenced_rejections").inc(
                counts["fenced"]
            )
        return 200, outcome
