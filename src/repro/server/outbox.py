"""The disconnected agent's durable outbox: spooled results + heartbeats.

When the wire to the control plane goes down mid-unit, a site agent
finishes the work it holds (the lease may well still be valid) and
spools what it could not deliver — completion records and missed
heartbeats — to this outbox.  On reconnect the whole backlog is replayed
in one idempotent ``/v1/reconcile`` round trip and the outbox is
cleared.

The durable form is a JSONL file (one record per line, flushed and
fsynced per append) living in the run's journal directory next to the
token logs, so an agent killed *while partitioned* loses nothing:
its successor replays the spool.  The same discipline as
:mod:`repro.journal` applies on read: a torn final line (the classic
crash artifact) is tolerated and dropped.

Constructed without a path the outbox is memory-only — same replay
semantics, no crash durability — which keeps casual agents working
without choosing a spool location.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Optional

from repro.util.digest import atomic_publish_bytes

__all__ = ["Outbox"]


class Outbox:
    """An append-only spool of undeliverable control-plane records."""

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._memory: List[Dict[str, Any]] = []
        if path:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            self._memory = self._load()

    def _load(self) -> List[Dict[str, Any]]:
        if not self.path or not os.path.exists(self.path):
            return []
        records: List[Dict[str, Any]] = []
        torn = False
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    # A torn tail from a crash mid-append: drop it — the
                    # record was never acknowledged to anyone.
                    torn = True
                    continue
                if isinstance(record, dict):
                    records.append(record)
        if torn:
            # Rewrite the spool without the torn bytes, or the next
            # append would land on the torn line and be dropped with it.
            payload = "".join(json.dumps(r) + "\n" for r in records)
            atomic_publish_bytes(self.path, payload.encode("utf-8"))
        return records

    def append(self, record: Mapping[str, Any]) -> None:
        """Spool one record durably (fsync before returning)."""
        entry = dict(record)
        self._memory.append(entry)
        if self.path:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(entry) + "\n")
                handle.flush()
                os.fsync(handle.fileno())

    def records(self) -> List[Dict[str, Any]]:
        """The spooled records, oldest first (copies)."""
        return [dict(r) for r in self._memory]

    def clear(self) -> None:
        """Drop the spool after a successful replay."""
        self._memory = []
        if self.path and os.path.exists(self.path):
            os.remove(self.path)

    def __len__(self) -> int:
        return len(self._memory)

    def __bool__(self) -> bool:
        return True
