"""The DB-backed run store: runs, work-units, leases, and the event log.

One SQLite file owns the whole control-plane state, so a killed and
restarted server reloads every run exactly where it stood — the same
crash-consistency bar the run journal sets for artifacts, applied to
orchestration state.

The concurrency contract this store guarantees (property-tested in
``tests/server/test_store_properties.py``):

* **No double assignment** — at any instant a work-unit has at most one
  ``active`` lease; granting a lease first sweeps expired ones, so a
  stale lease can never coexist with a fresh one.
* **Lost agents never lose work** — a lease whose ``expires_at`` passes
  without a heartbeat is expired exactly once: its unit returns to
  ``pending`` (requeue counter bumped) and becomes leasable again.  A
  unit requeued more than ``max_requeues`` times fails instead of
  looping forever.
* **Results are idempotent** — a completed lease re-POSTing its result
  is a recorded no-op (``duplicate``), and an expired lease's late
  result is rejected with :class:`Fenced` (every grant bumps the unit's
  fencing epoch; the new owner is authoritative); the run journal makes
  the redone work byte-identical either way.
* **Lossy wires are survivable** — the non-idempotent POSTs (submit,
  lease) accept a ``request_id`` dedupe key: a retry after a lost
  response replays the original outcome instead of creating a twin, and
  :meth:`reconcile` replays a disconnected agent's whole spooled outbox
  idempotently in one call.

Every method takes the store lock and commits before returning; the
single connection is shared across the HTTP server's handler threads.
The clock is injectable so lease expiry is testable without sleeping.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import uuid
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "RUN_QUEUED", "RUN_RUNNING", "RUN_PAUSED", "RUN_COMPLETED", "RUN_FAILED",
    "UNIT_PENDING", "UNIT_LEASED", "UNIT_COMPLETED", "UNIT_FAILED",
    "LEASE_ACTIVE", "LEASE_COMPLETED", "LEASE_EXPIRED",
    "StoreError", "NotFound", "Conflict", "Fenced", "RunStore",
]

# Run statuses (derived from unit states; ``paused`` is an operator flag).
RUN_QUEUED = "queued"
RUN_RUNNING = "running"
RUN_PAUSED = "paused"
RUN_COMPLETED = "completed"
RUN_FAILED = "failed"

# Work-unit statuses.
UNIT_PENDING = "pending"
UNIT_LEASED = "leased"
UNIT_COMPLETED = "completed"
UNIT_FAILED = "failed"

# Lease statuses.
LEASE_ACTIVE = "active"
LEASE_COMPLETED = "completed"
LEASE_EXPIRED = "expired"

TERMINAL_UNIT = (UNIT_COMPLETED, UNIT_FAILED)
TERMINAL_RUN = (RUN_COMPLETED, RUN_FAILED)


class StoreError(Exception):
    """Base class for store contract violations."""


class NotFound(StoreError):
    """The named run / unit / lease does not exist."""


class Conflict(StoreError):
    """The operation is invalid in the entity's current state."""


class Fenced(Conflict):
    """A stale lease-holder tried to act after losing its fence.

    Raised when a completion (or reconcile replay) arrives from a lease
    that expired and whose unit was requeued: a newer fencing epoch
    exists, so the late writer must stand down.  Subclasses
    :class:`Conflict` — the wire answer is still 409 — but lets callers
    and metrics distinguish "you lost the race" from other conflicts.
    """


_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id           TEXT PRIMARY KEY,
    name         TEXT NOT NULL,
    config       TEXT NOT NULL,
    status       TEXT NOT NULL,
    paused       INTEGER NOT NULL DEFAULT 0,
    error        TEXT,
    submitted_at REAL NOT NULL,
    updated_at   REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS units (
    run_id     TEXT NOT NULL,
    name       TEXT NOT NULL,
    seq        INTEGER NOT NULL,
    deps       TEXT NOT NULL,
    status     TEXT NOT NULL,
    attempts   INTEGER NOT NULL DEFAULT 0,
    requeues   INTEGER NOT NULL DEFAULT 0,
    fence      INTEGER NOT NULL DEFAULT 0,
    agent      TEXT,
    lease_id   TEXT,
    result     TEXT,
    error      TEXT,
    updated_at REAL NOT NULL,
    PRIMARY KEY (run_id, name)
);
CREATE TABLE IF NOT EXISTS leases (
    id         TEXT PRIMARY KEY,
    run_id     TEXT NOT NULL,
    unit       TEXT NOT NULL,
    agent      TEXT NOT NULL,
    site       TEXT NOT NULL DEFAULT '',
    status     TEXT NOT NULL,
    fence      INTEGER NOT NULL DEFAULT 0,
    created_at REAL NOT NULL,
    expires_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS events (
    seq    INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id TEXT NOT NULL,
    at     REAL NOT NULL,
    kind   TEXT NOT NULL,
    detail TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS requests (
    id       TEXT PRIMARY KEY,
    kind     TEXT NOT NULL,
    response TEXT NOT NULL,
    at       REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_units_status ON units (status);
CREATE INDEX IF NOT EXISTS idx_leases_status ON leases (status, expires_at);
CREATE INDEX IF NOT EXISTS idx_events_run ON events (run_id, seq);
"""

def _new_id(prefix: str) -> str:
    return f"{prefix}-{uuid.uuid4().hex[:12]}"


class RunStore:
    """SQLite-backed store of runs, work-units, leases, and events."""

    def __init__(
        self,
        path: str,
        clock: Callable[[], float] = time.time,
        max_requeues: int = 3,
        default_ttl: float = 30.0,
    ):
        self.path = path
        self.clock = clock
        self.max_requeues = max_requeues
        self.default_ttl = default_ttl
        # Monotone count of request_id dedupe-key replays (observability).
        self.dedupe_hits = 0
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.executescript(_SCHEMA)
            self._conn.commit()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internal helpers -----------------------------------------------------

    def _event(self, run_id: str, kind: str, detail: str = "") -> None:
        self._conn.execute(
            "INSERT INTO events (run_id, at, kind, detail) VALUES (?, ?, ?, ?)",
            (run_id, self.clock(), kind, detail),
        )

    def _unit_row(self, run_id: str, unit: str) -> sqlite3.Row:
        row = self._conn.execute(
            "SELECT * FROM units WHERE run_id = ? AND name = ?", (run_id, unit)
        ).fetchone()
        if row is None:
            raise NotFound(f"run {run_id!r} has no unit {unit!r}")
        return row

    def _run_row(self, run_id: str) -> sqlite3.Row:
        row = self._conn.execute(
            "SELECT * FROM runs WHERE id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise NotFound(f"no run {run_id!r}")
        return row

    def _recompute_run(self, run_id: str) -> str:
        """Derive the run status from its unit states and store it."""
        statuses = [
            row["status"] for row in self._conn.execute(
                "SELECT status FROM units WHERE run_id = ?", (run_id,)
            )
        ]
        if any(s == UNIT_FAILED for s in statuses):
            status = RUN_FAILED
        elif all(s == UNIT_COMPLETED for s in statuses):
            status = RUN_COMPLETED
        elif any(s in (UNIT_LEASED, UNIT_COMPLETED) for s in statuses):
            status = RUN_RUNNING
        else:
            status = RUN_QUEUED
        self._conn.execute(
            "UPDATE runs SET status = ?, updated_at = ? WHERE id = ?",
            (status, self.clock(), run_id),
        )
        return status

    def _expire(self, now: float) -> List[Tuple[str, str]]:
        """Sweep overdue active leases; requeue (or fail) their units.

        Each lease is expired exactly once: its row flips to ``expired``
        in the same transaction that requeues the unit, so repeated
        sweeps cannot requeue again.
        """
        expired: List[Tuple[str, str]] = []
        rows = self._conn.execute(
            "SELECT * FROM leases WHERE status = ? AND expires_at < ?",
            (LEASE_ACTIVE, now),
        ).fetchall()
        for lease in rows:
            self._conn.execute(
                "UPDATE leases SET status = ? WHERE id = ?",
                (LEASE_EXPIRED, lease["id"]),
            )
            unit = self._conn.execute(
                "SELECT * FROM units WHERE run_id = ? AND name = ?",
                (lease["run_id"], lease["unit"]),
            ).fetchone()
            # Only the lease that still owns the unit may requeue it; a
            # unit already completed (late sweep) is left alone.
            if unit is None or unit["lease_id"] != lease["id"] or (
                unit["status"] != UNIT_LEASED
            ):
                continue
            requeues = unit["requeues"] + 1
            if requeues > self.max_requeues:
                self._conn.execute(
                    "UPDATE units SET status = ?, requeues = ?, lease_id = NULL,"
                    " agent = NULL, error = ?, updated_at = ? "
                    "WHERE run_id = ? AND name = ?",
                    (UNIT_FAILED, requeues,
                     f"lease expired {requeues} times (agent kept dying)",
                     now, lease["run_id"], lease["unit"]),
                )
                self._event(lease["run_id"], "unit_failed",
                            f"{lease['unit']}: requeue budget exhausted")
            else:
                self._conn.execute(
                    "UPDATE units SET status = ?, requeues = ?, lease_id = NULL,"
                    " agent = NULL, updated_at = ? WHERE run_id = ? AND name = ?",
                    (UNIT_PENDING, requeues, now, lease["run_id"], lease["unit"]),
                )
            self._event(
                lease["run_id"], "lease_expired",
                f"{lease['unit']} leased by {lease['agent']} (lease {lease['id']})",
            )
            self._recompute_run(lease["run_id"])
            expired.append((lease["run_id"], lease["unit"]))
        return expired

    def _replayed(self, request_id: str, kind: str) -> Optional[Dict[str, Any]]:
        """The recorded response of an already-seen dedupe key, if any.

        Dedupe keys make the non-idempotent POSTs (submit, lease) safe to
        retry over a lossy wire: a ``reset`` fault delivers the request
        and drops the response, and the retry must observe the first
        outcome instead of creating a second run / second lease.
        """
        if not request_id:
            return None
        row = self._conn.execute(
            "SELECT * FROM requests WHERE id = ?", (request_id,)
        ).fetchone()
        if row is None:
            return None
        if row["kind"] != kind:
            raise Conflict(
                f"request id {request_id!r} was already used for {row['kind']!r}"
            )
        self.dedupe_hits += 1
        return json.loads(row["response"])

    def _record_request(
        self, request_id: str, kind: str, response: Mapping[str, Any]
    ) -> None:
        if not request_id:
            return
        self._conn.execute(
            "INSERT OR REPLACE INTO requests (id, kind, response, at)"
            " VALUES (?, ?, ?, ?)",
            (request_id, kind, json.dumps(dict(response)), self.clock()),
        )

    # -- run lifecycle --------------------------------------------------------

    def submit_run(
        self,
        config: Mapping[str, Any],
        units: Sequence[Tuple[str, Sequence[str]]],
        name: str = "",
        request_id: str = "",
    ) -> Dict[str, Any]:
        """Register a run and its dependency-ordered work-units.

        A ``request_id`` dedupe key makes resubmission after a lost
        response return the originally-created run instead of a twin.
        """
        if not units:
            raise Conflict("a run needs at least one work-unit")
        names = [unit for unit, _deps in units]
        if len(set(names)) != len(names):
            raise Conflict("duplicate work-unit names")
        known = set(names)
        for unit, deps in units:
            for dep in deps:
                if dep not in known:
                    raise Conflict(f"unit {unit!r} depends on unknown unit {dep!r}")
        run_id = _new_id("run")
        now = self.clock()
        with self._lock:
            replay = self._replayed(request_id, "submit")
            if replay is not None:
                return self.get_run(replay["run_id"])
            self._conn.execute(
                "INSERT INTO runs (id, name, config, status, submitted_at, updated_at)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (run_id, name or run_id, json.dumps(dict(config)),
                 RUN_QUEUED, now, now),
            )
            for seq, (unit, deps) in enumerate(units):
                self._conn.execute(
                    "INSERT INTO units (run_id, name, seq, deps, status, updated_at)"
                    " VALUES (?, ?, ?, ?, ?, ?)",
                    (run_id, unit, seq, json.dumps(list(deps)), UNIT_PENDING, now),
                )
            self._event(run_id, "submitted", f"{len(units)} unit(s)")
            self._record_request(request_id, "submit", {"run_id": run_id})
            self._conn.commit()
        return self.get_run(run_id)

    def list_runs(self) -> List[Dict[str, Any]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM runs ORDER BY submitted_at, id"
            ).fetchall()
            return [self._run_summary(row) for row in rows]

    def _run_summary(self, row: sqlite3.Row) -> Dict[str, Any]:
        counts: Dict[str, int] = {}
        for unit in self._conn.execute(
            "SELECT status, COUNT(*) AS n FROM units WHERE run_id = ? GROUP BY status",
            (row["id"],),
        ):
            counts[unit["status"]] = unit["n"]
        status = RUN_PAUSED if row["paused"] and row["status"] not in TERMINAL_RUN \
            else row["status"]
        return {
            "id": row["id"],
            "name": row["name"],
            "status": status,
            "paused": bool(row["paused"]),
            "error": row["error"],
            "units": counts,
            "submitted_at": row["submitted_at"],
            "updated_at": row["updated_at"],
        }

    def get_run(self, run_id: str) -> Dict[str, Any]:
        with self._lock:
            run = self._run_row(run_id)
            units = [
                {
                    "name": row["name"],
                    "deps": json.loads(row["deps"]),
                    "status": row["status"],
                    "attempts": row["attempts"],
                    "requeues": row["requeues"],
                    "fence": row["fence"],
                    "agent": row["agent"],
                    "result": json.loads(row["result"]) if row["result"] else None,
                    "error": row["error"],
                }
                for row in self._conn.execute(
                    "SELECT * FROM units WHERE run_id = ? ORDER BY seq", (run_id,)
                )
            ]
            summary = self._run_summary(run)
            summary["config"] = json.loads(run["config"])
            summary["units"] = units
            return summary

    def events(self, run_id: str) -> List[Dict[str, Any]]:
        with self._lock:
            self._run_row(run_id)
            return [
                {"seq": row["seq"], "at": row["at"],
                 "kind": row["kind"], "detail": row["detail"]}
                for row in self._conn.execute(
                    "SELECT * FROM events WHERE run_id = ? ORDER BY seq", (run_id,)
                )
            ]

    # -- operator actions -----------------------------------------------------

    def pause_run(self, run_id: str) -> Dict[str, Any]:
        """Stop leasing this run's units; in-flight leases finish normally."""
        with self._lock:
            self._run_row(run_id)
            self._conn.execute(
                "UPDATE runs SET paused = 1, updated_at = ? WHERE id = ?",
                (self.clock(), run_id),
            )
            self._event(run_id, "paused")
            self._conn.commit()
            return self._run_summary(self._run_row(run_id))

    def resume_run(self, run_id: str) -> Dict[str, Any]:
        with self._lock:
            self._run_row(run_id)
            self._conn.execute(
                "UPDATE runs SET paused = 0, updated_at = ? WHERE id = ?",
                (self.clock(), run_id),
            )
            self._event(run_id, "resumed")
            self._conn.commit()
            return self._run_summary(self._run_row(run_id))

    def retry_unit(self, run_id: str, unit: str) -> Dict[str, Any]:
        """Requeue a terminal unit; the run journal makes the redo idempotent.

        This is the API face of the journal's ``ResumeDecision`` machinery:
        the re-leased unit replays the journal, verified completions come
        back ``RESUMED`` (zero work redone) and anything untrustworthy is
        replayed — so operator retries are always safe.
        """
        with self._lock:
            row = self._unit_row(run_id, unit)
            if row["status"] not in TERMINAL_UNIT:
                raise Conflict(
                    f"unit {unit!r} is {row['status']}; only completed or "
                    "failed units can be retried"
                )
            self._conn.execute(
                "UPDATE units SET status = ?, requeues = 0, lease_id = NULL,"
                " agent = NULL, error = NULL, updated_at = ?"
                " WHERE run_id = ? AND name = ?",
                (UNIT_PENDING, self.clock(), run_id, unit),
            )
            self._event(run_id, "unit_retried", unit)
            self._conn.execute(
                "UPDATE runs SET error = NULL WHERE id = ?", (run_id,)
            )
            self._recompute_run(run_id)
            self._conn.commit()
            return {"run": run_id, "unit": unit, "status": UNIT_PENDING}

    # -- the lease protocol ---------------------------------------------------

    def lease(
        self,
        agent: str,
        site: str = "",
        ttl: Optional[float] = None,
        request_id: str = "",
    ) -> Optional[Dict[str, Any]]:
        """Grant the oldest ready work-unit to ``agent``, or ``None``.

        Ready = pending, every dependency completed, run not paused and
        not failed.  The sweep of expired leases happens first, so work
        abandoned by a dead agent is immediately re-grantable.

        Every grant bumps the unit's **fencing epoch**; the lease carries
        it, and any later writer holding an older epoch is rejected with
        :class:`Fenced`.  A ``request_id`` dedupe key returns the original
        grant when the response was lost in flight, instead of leasing a
        second unit to the same ask.
        """
        ttl = self.default_ttl if ttl is None else float(ttl)
        if ttl <= 0:
            raise Conflict("lease ttl must be positive")
        now = self.clock()
        with self._lock:
            replay = self._replayed(request_id, "lease")
            if replay is not None:
                return replay or None
            self._expire(now)
            candidates = self._conn.execute(
                "SELECT u.*, r.config AS run_config, r.submitted_at AS run_at"
                " FROM units u JOIN runs r ON r.id = u.run_id"
                " WHERE u.status = ? AND r.paused = 0 AND r.status NOT IN (?, ?)"
                " ORDER BY r.submitted_at, r.id, u.seq",
                (UNIT_PENDING, RUN_FAILED, RUN_COMPLETED),
            ).fetchall()
            chosen = None
            for row in candidates:
                deps = json.loads(row["deps"])
                done = all(
                    self._unit_row(row["run_id"], dep)["status"] == UNIT_COMPLETED
                    for dep in deps
                )
                if done:
                    chosen = row
                    break
            if chosen is None:
                self._conn.commit()
                return None
            lease_id = _new_id("lease")
            fence = chosen["fence"] + 1
            self._conn.execute(
                "INSERT INTO leases (id, run_id, unit, agent, site, status,"
                " fence, created_at, expires_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (lease_id, chosen["run_id"], chosen["name"], agent, site,
                 LEASE_ACTIVE, fence, now, now + ttl),
            )
            self._conn.execute(
                "UPDATE units SET status = ?, attempts = attempts + 1,"
                " fence = ?, lease_id = ?, agent = ?, updated_at = ?"
                " WHERE run_id = ? AND name = ?",
                (UNIT_LEASED, fence, lease_id, agent, now,
                 chosen["run_id"], chosen["name"]),
            )
            self._event(chosen["run_id"], "leased",
                        f"{chosen['name']} -> {agent} (lease {lease_id})")
            self._recompute_run(chosen["run_id"])
            grant = {
                "lease_id": lease_id,
                "run_id": chosen["run_id"],
                "unit": chosen["name"],
                "attempt": chosen["attempts"] + 1,
                "fence": fence,
                "expires_at": now + ttl,
                "ttl": ttl,
                "config": json.loads(chosen["run_config"]),
            }
            self._record_request(request_id, "lease", grant)
            self._conn.commit()
            return grant

    def heartbeat(self, lease_id: str, ttl: Optional[float] = None) -> Dict[str, Any]:
        """Extend a live lease; a lost (expired/finished) lease conflicts."""
        ttl = self.default_ttl if ttl is None else float(ttl)
        now = self.clock()
        with self._lock:
            self._expire(now)
            row = self._conn.execute(
                "SELECT * FROM leases WHERE id = ?", (lease_id,)
            ).fetchone()
            if row is None:
                raise NotFound(f"no lease {lease_id!r}")
            if row["status"] != LEASE_ACTIVE:
                raise Conflict(f"lease {lease_id!r} is {row['status']}")
            expires = now + ttl
            self._conn.execute(
                "UPDATE leases SET expires_at = ? WHERE id = ?", (expires, lease_id)
            )
            self._conn.commit()
            return {"lease_id": lease_id, "expires_at": expires,
                    "fence": row["fence"]}

    def complete(
        self,
        lease_id: str,
        status: str = UNIT_COMPLETED,
        result: Optional[Mapping[str, Any]] = None,
        error: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Record a leased unit's outcome; idempotent on duplicates.

        Fencing discipline: a lease that already **completed** may re-POST
        freely (its work landed; the answer is a ``duplicate`` ack), but a
        lease that **expired** is behind the unit's fencing epoch — its
        late result is refused with :class:`Fenced` even if a successor
        has since finished the unit, because the stale holder must learn
        it lost, not mistake the successor's landing for its own.
        """
        if status not in TERMINAL_UNIT:
            raise Conflict(f"completion status must be one of {TERMINAL_UNIT}")
        now = self.clock()
        with self._lock:
            self._expire(now)
            lease = self._conn.execute(
                "SELECT * FROM leases WHERE id = ?", (lease_id,)
            ).fetchone()
            if lease is None:
                raise NotFound(f"no lease {lease_id!r}")
            unit = self._unit_row(lease["run_id"], lease["unit"])
            if lease["status"] == LEASE_EXPIRED or (
                lease["status"] == LEASE_ACTIVE and unit["lease_id"] != lease["id"]
            ):
                raise Fenced(
                    f"lease {lease_id!r} holds fence {lease['fence']} but the "
                    f"unit is at fence {unit['fence']}; the unit was requeued "
                    "and its new owner is authoritative"
                )
            if unit["status"] in TERMINAL_UNIT:
                # The work already landed via this same lease's earlier
                # POST: acknowledge, change nothing.
                run_status = self._recompute_run(lease["run_id"])
                self._conn.commit()
                return {
                    "run": lease["run_id"], "unit": lease["unit"],
                    "status": unit["status"], "duplicate": True,
                    "run_status": run_status,
                }
            if lease["status"] != LEASE_ACTIVE:
                raise Conflict(
                    f"lease {lease_id!r} is {lease['status']}; the unit was "
                    "requeued and its new owner is authoritative"
                )
            self._conn.execute(
                "UPDATE leases SET status = ? WHERE id = ?",
                (LEASE_COMPLETED, lease_id),
            )
            self._conn.execute(
                "UPDATE units SET status = ?, result = ?, error = ?,"
                " updated_at = ? WHERE run_id = ? AND name = ?",
                (status, json.dumps(dict(result)) if result else None, error,
                 now, lease["run_id"], lease["unit"]),
            )
            kind = "unit_completed" if status == UNIT_COMPLETED else "unit_failed"
            detail = lease["unit"] if not error else f"{lease['unit']}: {error}"
            self._event(lease["run_id"], kind, detail)
            if status == UNIT_FAILED and error:
                self._conn.execute(
                    "UPDATE runs SET error = ? WHERE id = ?",
                    (f"{lease['unit']}: {error}", lease["run_id"]),
                )
            run_status = self._recompute_run(lease["run_id"])
            self._conn.commit()
            return {
                "run": lease["run_id"], "unit": lease["unit"],
                "status": status, "duplicate": False, "run_status": run_status,
            }

    def expire_leases(self, now: Optional[float] = None) -> List[Tuple[str, str]]:
        """Public sweep (also runs inside every lease-protocol call)."""
        with self._lock:
            expired = self._expire(self.clock() if now is None else now)
            self._conn.commit()
            return expired

    # -- partition recovery ---------------------------------------------------

    def reconcile(
        self, agent: str, records: Sequence[Mapping[str, Any]]
    ) -> Dict[str, Any]:
        """Replay an agent's spooled outbox after a partition heals.

        ``records`` is the agent's durable outbox, oldest first: results
        and heartbeats it could not deliver while the link was down.
        Each is applied through the normal (idempotent, fenced) protocol
        paths and answered with an outcome instead of an error, so one
        round trip settles the whole backlog:

        * ``applied``    — the record landed (result recorded / lease
          extended);
        * ``duplicate``  — already landed (an earlier replay of the same
          outbox);
        * ``fenced``     — the lease lost its fencing epoch while the
          agent was away; the unit's new owner is authoritative and the
          agent must discard its local copy of the work;
        * ``lost``       — a heartbeat for a lease no longer active;
        * ``not_found`` / ``conflict`` / ``ignored`` — bookkeeping noise.

        The response also carries the agent's still-active leases so it
        can decide what to resume and what to relinquish.  The call is
        idempotent: replaying the same outbox again yields duplicates,
        never double-application.
        """
        outcomes: List[Dict[str, Any]] = []
        counts: Dict[str, int] = {}
        with self._lock:
            for record in records:
                kind = record.get("kind", "")
                lease_id = record.get("lease_id", "")
                try:
                    if kind == "complete":
                        ack = self.complete(
                            lease_id,
                            status=record.get("status", UNIT_COMPLETED),
                            result=record.get("result"),
                            error=record.get("error"),
                        )
                        outcome = "duplicate" if ack.get("duplicate") else "applied"
                    elif kind == "heartbeat":
                        self.heartbeat(lease_id, record.get("ttl"))
                        outcome = "applied"
                    else:
                        outcome = "ignored"
                except Fenced:
                    outcome = "fenced"
                except NotFound:
                    outcome = "not_found"
                except Conflict:
                    outcome = "lost" if kind == "heartbeat" else "conflict"
                outcomes.append(
                    {"kind": kind, "lease_id": lease_id, "outcome": outcome}
                )
                counts[outcome] = counts.get(outcome, 0) + 1
            active = [
                {"lease_id": row["id"], "run_id": row["run_id"],
                 "unit": row["unit"], "fence": row["fence"],
                 "expires_at": row["expires_at"]}
                for row in self._conn.execute(
                    "SELECT * FROM leases WHERE agent = ? AND status = ?"
                    " ORDER BY created_at, id",
                    (agent, LEASE_ACTIVE),
                )
            ]
            self._conn.commit()
        return {"agent": agent, "outcomes": outcomes,
                "counts": counts, "leases": active}

    def startup_sweep(self) -> Dict[str, int]:
        """Repair half-completed state after a server kill/restart.

        Every mutation commits atomically, so a killed server cannot tear
        a single transaction — but it *can* die between granting a lease
        and the response reaching the agent, or leave referential orphans
        behind a crashed filesystem.  The sweep restores the invariants a
        fresh server relies on:

        * overdue active leases are expired (the normal sweep);
        * ``leased`` units whose lease row is missing or no longer active
          go back to ``pending`` — without a requeue penalty, because the
          server (not the agent) lost track;
        * active leases no longer referenced by their unit are expired;
        * every run's derived status is recomputed.
        """
        now = self.clock()
        with self._lock:
            expired = len(self._expire(now))
            orphan_units = 0
            for unit in self._conn.execute(
                "SELECT * FROM units WHERE status = ?", (UNIT_LEASED,)
            ).fetchall():
                lease = None
                if unit["lease_id"]:
                    lease = self._conn.execute(
                        "SELECT * FROM leases WHERE id = ?", (unit["lease_id"],)
                    ).fetchone()
                if lease is None or lease["status"] != LEASE_ACTIVE:
                    self._conn.execute(
                        "UPDATE units SET status = ?, lease_id = NULL,"
                        " agent = NULL, updated_at = ?"
                        " WHERE run_id = ? AND name = ?",
                        (UNIT_PENDING, now, unit["run_id"], unit["name"]),
                    )
                    self._event(unit["run_id"], "sweep_requeued", unit["name"])
                    orphan_units += 1
            orphan_leases = 0
            for lease in self._conn.execute(
                "SELECT * FROM leases WHERE status = ?", (LEASE_ACTIVE,)
            ).fetchall():
                unit = self._conn.execute(
                    "SELECT * FROM units WHERE run_id = ? AND name = ?",
                    (lease["run_id"], lease["unit"]),
                ).fetchone()
                if unit is None or unit["lease_id"] != lease["id"]:
                    self._conn.execute(
                        "UPDATE leases SET status = ? WHERE id = ?",
                        (LEASE_EXPIRED, lease["id"]),
                    )
                    orphan_leases += 1
            for run in self._conn.execute("SELECT id FROM runs").fetchall():
                self._recompute_run(run["id"])
            self._conn.commit()
            return {
                "expired_leases": expired,
                "orphan_units_requeued": orphan_units,
                "orphan_leases_expired": orphan_leases,
            }

    # -- introspection --------------------------------------------------------

    def leases(self, run_id: Optional[str] = None) -> List[Dict[str, Any]]:
        query = "SELECT * FROM leases"
        args: Tuple = ()
        if run_id is not None:
            query += " WHERE run_id = ?"
            args = (run_id,)
        with self._lock:
            return [
                dict(row) for row in self._conn.execute(
                    query + " ORDER BY created_at, id", args
                )
            ]

    def stats(self) -> Dict[str, Any]:
        """Counts the metrics endpoint exposes."""
        with self._lock:
            runs: Dict[str, int] = {}
            for row in self._conn.execute(
                "SELECT status, COUNT(*) AS n FROM runs GROUP BY status"
            ):
                runs[row["status"]] = row["n"]
            units: Dict[str, int] = {}
            for row in self._conn.execute(
                "SELECT status, COUNT(*) AS n FROM units GROUP BY status"
            ):
                units[row["status"]] = row["n"]
            leases: Dict[str, int] = {}
            for row in self._conn.execute(
                "SELECT status, COUNT(*) AS n FROM leases GROUP BY status"
            ):
                leases[row["status"]] = row["n"]
            return {"runs": runs, "units": units, "leases": leases}
