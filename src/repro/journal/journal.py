"""The write-ahead run journal: append-only, checksummed, crash-safe.

A campaign that runs for days across facilities dies for operational
reasons — Slurm preemption, node crash, OOM — not just flaky fetches.
The journal makes orchestrator death survivable: before a stage touches
a work item it appends an ``intent`` record, and after the item's
artifact is durably published it appends a ``complete`` record carrying
the artifact's SHA-256.  A resumed run replays the journal and skips
every item whose completion verifies, redoes the rest.

Crash-consistency properties:

* **Appends are durable** — each record is one JSON line, flushed and
  fsynced before the append returns, so a ``complete`` record implies
  the artifact rename that preceded it is also on disk (write ordering:
  artifact fsync + rename happen before the journal append).
* **Torn tails are harmless** — every record carries a checksum over its
  canonical serialization; replay stops at the first record that fails
  to parse or verify, treating the valid prefix as the journal.  On
  resume the journal is compacted (temp file + fsync + ``os.replace``)
  so the torn tail never shadows new appends.
* **Determinism** — records carry no wall-clock fields that influence
  replay; the same journal always reconstructs the same state.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.util.digest import atomic_publish_bytes

__all__ = ["INTENT", "COMPLETE", "JournalRecord", "RunJournal", "JournalState"]

INTENT = "intent"
COMPLETE = "complete"


def _canonical(mapping: Dict[str, Any]) -> str:
    return json.dumps(mapping, sort_keys=True, separators=(",", ":"))


def _record_checksum(mapping: Dict[str, Any]) -> str:
    return hashlib.sha256(_canonical(mapping).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class JournalRecord:
    """One journaled event: a stage-item intent or completion."""

    seq: int
    stage: str
    event: str                  # INTENT | COMPLETE
    key: str                    # the work item (filename, granule key, ...)
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_mapping(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "stage": self.stage,
            "event": self.event,
            "key": self.key,
            "payload": dict(self.payload),
        }

    @staticmethod
    def from_mapping(mapping: Dict[str, Any]) -> "JournalRecord":
        return JournalRecord(
            seq=int(mapping["seq"]),
            stage=str(mapping["stage"]),
            event=str(mapping["event"]),
            key=str(mapping["key"]),
            payload=dict(mapping.get("payload") or {}),
        )


class RunJournal:
    """Append-only JSONL journal with per-record checksums.

    Thread-safe: stages append from worker pools concurrently; sequence
    numbers and the file handle are guarded by one lock.
    """

    def __init__(self, path: str, durable: bool = True):
        self.path = path
        self.durable = durable
        self._lock = threading.Lock()
        self._seq = 0
        self._handle = None
        self.torn_records = 0   # invalid trailing lines dropped on replay

    # -- reading -------------------------------------------------------------

    def replay(self) -> List[JournalRecord]:
        """Read back every intact record; stops at the first torn one."""
        self.torn_records = 0
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return []
        records: List[JournalRecord] = []
        for index, line in enumerate(lines):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                mapping = json.loads(stripped)
                sha = mapping.pop("sha")
                record = JournalRecord.from_mapping(mapping)
            except (ValueError, KeyError, TypeError):
                self.torn_records = len(lines) - index
                break
            if _record_checksum(record.to_mapping()) != sha:
                self.torn_records = len(lines) - index
                break
            records.append(record)
        if records:
            with self._lock:
                self._seq = max(self._seq, records[-1].seq)
        return records

    def compact(self, records: List[JournalRecord]) -> None:
        """Atomically rewrite the journal to exactly ``records``.

        Used on resume to drop a torn tail: the validated prefix is
        written to a temp file, fsynced, and ``os.replace``d over the
        journal, so a crash mid-compaction loses nothing.
        """
        with self._lock:
            self._close_handle()
            lines = []
            for record in records:
                mapping = record.to_mapping()
                mapping["sha"] = _record_checksum(record.to_mapping())
                lines.append(_canonical(mapping))
            payload = ("\n".join(lines) + "\n") if lines else b"".decode()
            atomic_publish_bytes(self.path, payload.encode("utf-8"),
                               durable=self.durable)
            self._seq = records[-1].seq if records else 0

    # -- writing -------------------------------------------------------------

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _ensure_handle(self):
        if self._handle is None:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def append(self, stage: str, event: str, key: str,
               **payload: Any) -> JournalRecord:
        """Durably append one record; returns it."""
        with self._lock:
            self._seq += 1
            record = JournalRecord(
                seq=self._seq, stage=stage, event=event, key=key,
                payload=dict(payload),
            )
            mapping = record.to_mapping()
            mapping["sha"] = _record_checksum(record.to_mapping())
            handle = self._ensure_handle()
            handle.write(_canonical(mapping) + "\n")
            handle.flush()
            if self.durable:
                os.fsync(handle.fileno())
            return record

    def intent(self, stage: str, key: str, **payload: Any) -> JournalRecord:
        return self.append(stage, INTENT, key, **payload)

    def complete(self, stage: str, key: str, **payload: Any) -> JournalRecord:
        return self.append(stage, COMPLETE, key, **payload)

    def reset(self) -> None:
        """Start a fresh journal (truncates any previous run's records)."""
        with self._lock:
            self._close_handle()
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            with open(self.path, "w", encoding="utf-8"):
                pass
            self._seq = 0
            self.torn_records = 0

    def close(self) -> None:
        with self._lock:
            self._close_handle()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class JournalState:
    """A replayed journal's view: what finished, what was caught mid-flight."""

    def __init__(self, records: List[JournalRecord]):
        self.completions: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self.intents: Set[Tuple[str, str]] = set()
        for record in records:
            site = (record.stage, record.key)
            if record.event == INTENT:
                self.intents.add(site)
            elif record.event == COMPLETE:
                # Re-done items overwrite: the last completion wins.
                self.completions[site] = dict(record.payload)

    def completion(self, stage: str, key: str) -> Optional[Dict[str, Any]]:
        return self.completions.get((stage, key))

    def has_intent(self, stage: str, key: str) -> bool:
        return (stage, key) in self.intents
