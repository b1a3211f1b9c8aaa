"""The site agent: a facility's worker loop against the control plane.

An agent is the paper's "site" made executable: a process at one
facility that polls the central service for ready work-units, executes
each through the existing stage runtime
(:func:`~repro.server.execution.execute_unit`), heartbeats while the
work runs, and reports the outcome.  Several agents at several sites
drain one run cooperatively — the server's lease protocol decides who
does what, the shared filesystem and run journal carry the state.

Failure is the design center, not the exception path:

* If the agent dies mid-unit (modelled by the ``agent`` chaos crash
  surface), its heartbeats stop, the lease expires, and the server
  requeues the unit for the next poller — whose journal replay makes
  the re-execution idempotent.
* If the *wire* dies — partition, blackout, server kill — the agent
  **keeps operating disconnected**: it finishes its in-flight unit,
  spools the result and missed heartbeats to a durable
  :class:`~repro.server.outbox.Outbox`, and enters a degraded state
  probing ``/v1/health`` with full-jitter exponential backoff (a fleet
  of agents must not thundering-herd a healed server).  On reconnect it
  replays the spool through the idempotent ``/v1/reconcile`` endpoint.
* If a heartbeat reveals the lease was **fenced away** (expired and
  requeued while the agent was slow or away), the agent cancels its
  execution at the next checkpoint and relinquishes cleanly — the
  unit's new owner is authoritative, and the server would reject the
  stale result anyway.
* If the unit's body raises, the failure is reported honestly and the
  server decides (operator ``retry``) whether it runs again.
"""

from __future__ import annotations

import inspect
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Union

from repro.chaos.surfaces import chaos_crash
from repro.net.retry import BackoffPolicy
from repro.server.client import (
    ControlPlaneClient,
    Lease,
    RequestFailed,
    ServerUnavailable,
)
from repro.server.execution import LeaseLost, execute_unit
from repro.server.outbox import Outbox

__all__ = ["AgentStats", "SiteAgent"]

# The reconnect probe schedule: full jitter, so a fleet of agents that
# lost the same link spreads its probes across the whole backoff window
# when the partition heals.
_DEFAULT_RECONNECT = BackoffPolicy(
    base=0.05, factor=2.0, max_delay=5.0, full_jitter=True
)


@dataclass
class AgentStats:
    """What one agent did with its life."""

    polls: int = 0
    idle_polls: int = 0
    leases: int = 0
    completed: int = 0
    failed: int = 0
    lost_leases: int = 0
    heartbeats: int = 0
    # Partition-tolerance accounting.  The reconcile call carries
    # disconnects and reconnect_attempts to the server, which counts
    # them under control_plane.partition.* in /v1/metrics.
    disconnects: int = 0
    reconnect_attempts: int = 0
    outbox_spooled: int = 0
    outbox_replayed: int = 0
    fenced_rejections: int = 0
    errors: Dict[str, str] = field(default_factory=dict)


class SiteAgent:
    """Polls, leases, executes, heartbeats, reports — until told to stop."""

    def __init__(
        self,
        client: ControlPlaneClient,
        name: str,
        site: str = "",
        ttl: float = 15.0,
        poll_interval: float = 0.05,
        heartbeat_interval: Optional[float] = None,
        chaos: Any = None,
        executor: Callable[..., Mapping[str, Any]] = execute_unit,
        sleeper: Callable[[float], None] = time.sleep,
        outbox: Union[Outbox, str, None] = None,
        reconnect: Optional[BackoffPolicy] = None,
        reconnect_limit: Optional[int] = None,
    ):
        self.client = client
        self.name = name
        self.site = site
        self.ttl = ttl
        self.poll_interval = poll_interval
        # A third of the TTL keeps two missed beats survivable.
        self.heartbeat_interval = (
            heartbeat_interval if heartbeat_interval is not None else ttl / 3.0
        )
        self.chaos = chaos
        self.executor = executor
        self.outbox = outbox if isinstance(outbox, Outbox) else Outbox(outbox)
        self.reconnect = reconnect or _DEFAULT_RECONNECT
        # None = probe forever (the disconnected-operation default for
        # embedded agents); an int bounds the probes before giving up
        # with ServerUnavailable (the CLI's choice).
        self.reconnect_limit = reconnect_limit
        self.stats = AgentStats()
        self._sleep = sleeper
        self._executor_cancels = _accepts_cancel(executor)
        # Outage accounting the server has not heard about yet; shipped
        # with the next reconcile so central /metrics sees wire failures
        # the service itself could never observe.
        self._unreported = {"disconnects": 0, "reconnect_attempts": 0}

    def run(
        self,
        stop: Optional[threading.Event] = None,
        max_units: Optional[int] = None,
        idle_exit_after: Optional[int] = None,
    ) -> AgentStats:
        """The agent main loop.

        Stops when ``stop`` is set, after ``max_units`` executed units,
        or after ``idle_exit_after`` *consecutive* empty polls (the
        drain-and-exit mode the e2e tests and one-shot CLI use).
        Returns the accumulated :class:`AgentStats`.  When the control
        plane is unreachable the loop drops into degraded mode instead
        of raising — unless ``reconnect_limit`` probes are exhausted.
        """
        idle_streak = 0
        executed = 0
        while True:
            if stop is not None and stop.is_set():
                break
            if max_units is not None and executed >= max_units:
                break
            if len(self.outbox) or any(self._unreported.values()):
                # Spooled records (or unshipped outage counters) from an
                # earlier blip: replay them the moment the wire
                # cooperates, before asking for new work.
                self._reconcile()
            self.stats.polls += 1
            try:
                lease = self.client.lease(self.name, site=self.site, ttl=self.ttl)
            except ServerUnavailable:
                if not self._degraded(stop):
                    break
                continue
            if lease is None:
                self.stats.idle_polls += 1
                idle_streak += 1
                if idle_exit_after is not None and idle_streak >= idle_exit_after:
                    break
                self._sleep(self.poll_interval)
                continue
            idle_streak = 0
            executed += 1
            self.stats.leases += 1
            self._execute(lease)
        return self.stats

    # -- one unit -------------------------------------------------------------

    def _run_executor(self, lease: Lease, lost: threading.Event):
        if self._executor_cancels:
            return self.executor(
                lease.config, lease.unit, chaos=self.chaos, cancel=lost
            )
        return self.executor(lease.config, lease.unit, chaos=self.chaos)

    def _execute(self, lease: Lease) -> None:
        # The killed-mid-lease fault surface: the agent holds the lease,
        # the unit is not done, and the process dies without cleanup.
        chaos_crash(self.chaos, "agent", f"{lease.run_id}/{lease.unit}")

        lost = threading.Event()
        done = threading.Event()
        beater = threading.Thread(
            target=self._heartbeat_loop,
            args=(lease, done, lost),
            name=f"heartbeat-{lease.lease_id}",
            daemon=True,
        )
        beater.start()
        relinquished = False
        result: Optional[Mapping[str, Any]] = None
        status, error = "completed", None
        try:
            try:
                result = self._run_executor(lease, lost)
            except LeaseLost:
                # The heartbeat thread learned the lease was fenced away
                # and the executor stood down at a checkpoint.
                relinquished = True
            except Exception as exc:
                result = None
                status = "failed"
                error = f"{type(exc).__name__}: {exc}"
                self.stats.errors[f"{lease.run_id}/{lease.unit}"] = (
                    traceback.format_exc()
                )
        finally:
            done.set()
            beater.join(timeout=5)

        if relinquished or lost.is_set():
            # The server moved on while we worked: a successor holds (or
            # held) the lease, and its result is the authoritative one.
            self.stats.lost_leases += 1
            return
        try:
            self.client.complete(
                lease.lease_id, status=status, result=result, error=error
            )
        except RequestFailed as exc:
            if exc.status in (404, 409):
                if exc.fenced:
                    self.stats.fenced_rejections += 1
                self.stats.lost_leases += 1
                return
            raise
        except ServerUnavailable:
            # The work is done but the server is gone: spool the result
            # durably and deliver it at reconcile time.  The lease may
            # outlive the outage (blip shorter than the TTL) or not
            # (the replay gets fenced) — either way nothing is lost and
            # nothing lands twice.
            self._spool(
                {
                    "kind": "complete",
                    "lease_id": lease.lease_id,
                    "run_id": lease.run_id,
                    "unit": lease.unit,
                    "fence": lease.fence,
                    "status": status,
                    "result": dict(result) if result else None,
                    "error": error,
                }
            )
            return
        if status == "completed":
            self.stats.completed += 1
        else:
            self.stats.failed += 1

    def _heartbeat_loop(
        self, lease: Lease, done: threading.Event, lost: threading.Event
    ) -> None:
        while not done.wait(self.heartbeat_interval):
            try:
                self.client.heartbeat(lease.lease_id, ttl=self.ttl)
                self.stats.heartbeats += 1
            except RequestFailed as exc:
                if exc.status in (404, 409):
                    # The fencing check: the lease expired and the unit
                    # was requeued.  Fire `lost` — the executor stands
                    # down at its next checkpoint and the agent skips the
                    # completion POST entirely.
                    lost.set()
                    return
            except ServerUnavailable:
                # Keep computing, but record the missed beat durably —
                # the reconcile replay tells the server (and the audit
                # trail) the agent was alive throughout the outage.
                self._spool(
                    {
                        "kind": "heartbeat",
                        "lease_id": lease.lease_id,
                        "unit": lease.unit,
                        "ttl": self.ttl,
                    }
                )
                continue

    # -- degraded operation ---------------------------------------------------

    def _spool(self, record: Mapping[str, Any]) -> None:
        self.outbox.append(record)
        self.stats.outbox_spooled += 1

    def _degraded(self, stop: Optional[threading.Event]) -> bool:
        """Probe the wire until it heals, then reconcile.

        Returns ``True`` once reconnected (outbox replayed, loop may
        resume leasing), ``False`` when ``stop`` fired first.  Raises
        :class:`ServerUnavailable` if ``reconnect_limit`` probes are
        spent — the operator asked this agent not to wait forever.
        """
        self.stats.disconnects += 1
        self._unreported["disconnects"] += 1
        attempt = 0
        while True:
            if stop is not None and stop.is_set():
                return False
            if self.reconnect_limit is not None and attempt >= self.reconnect_limit:
                raise ServerUnavailable(
                    f"control plane at {self.client.base_url} still unreachable "
                    f"after {attempt} reconnect probe(s)"
                )
            self._sleep(self.reconnect.delay(min(attempt, 16), key=self.name))
            attempt += 1
            self.stats.reconnect_attempts += 1
            self._unreported["reconnect_attempts"] += 1
            try:
                self.client.health()
            except ServerUnavailable:
                continue
            except RequestFailed:
                pass  # the server answered: the wire is back
            self._reconcile()
            return True

    def _reconcile(self) -> None:
        """Replay the outbox; fold the server's verdicts into the stats."""
        records = self.outbox.records()
        pending = {k: v for k, v in self._unreported.items() if v}
        if not records and not pending:
            return
        try:
            response = self.client.reconcile(self.name, records, stats=pending)
        except (ServerUnavailable, RequestFailed):
            # Still (or again) unreachable: keep the spool for next time.
            return
        self.outbox.clear()
        self._unreported = {"disconnects": 0, "reconnect_attempts": 0}
        self.stats.outbox_replayed += len(records)
        for record, outcome in zip(records, response.get("outcomes", [])):
            if record.get("kind") != "complete":
                continue
            verdict = outcome.get("outcome")
            if verdict in ("applied", "duplicate"):
                if record.get("status") == "failed":
                    self.stats.failed += 1
                else:
                    self.stats.completed += 1
            elif verdict == "fenced":
                # The lease died during the outage and someone else owns
                # the unit now; our local copy of the work stands down.
                self.stats.fenced_rejections += 1
                self.stats.lost_leases += 1


def _accepts_cancel(executor: Callable[..., Any]) -> bool:
    """Does this executor take the cooperative ``cancel`` event?"""
    try:
        parameters = inspect.signature(executor).parameters
    except (TypeError, ValueError):
        return False
    return "cancel" in parameters or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )
