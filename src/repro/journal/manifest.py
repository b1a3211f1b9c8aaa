"""Integrity manifests: one SHA-256 per artifact, checked at boundaries.

Production EO pipelines treat every stage output as a checksummed
artifact so later stages (and resumed runs) can distinguish "present and
intact" from "present but torn/rotted".  The manifest maps artifact
paths to their digest and size; it is consulted

* by resume logic, to decide whether a journaled completion still holds;
* by the monitor's integrity gate, before a tile file is triggered;
* after shipment, to verify the delivered bytes end to end.

Snapshots are published atomically (temp + fsync + ``os.replace``); the
journal's completion records carry the same digests, so a snapshot lost
to a crash is rebuilt from the journal on resume.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List, Optional

from repro.util.digest import atomic_publish_bytes, digest_file, sha256_file

__all__ = ["IntegrityManifest"]

# Verification outcomes for IntegrityManifest.check().
OK = "ok"
MISSING_ENTRY = "missing-entry"
MISSING_FILE = "missing-file"
MISMATCH = "mismatch"


class IntegrityManifest:
    """Artifact path -> {sha256, nbytes}, with atomic snapshots."""

    def __init__(self, path: str, durable: bool = True):
        self.path = path
        self.durable = durable
        self._lock = threading.Lock()
        self._entries: Dict[str, Dict[str, Any]] = {}

    @staticmethod
    def _key(path: str) -> str:
        return os.path.abspath(path)

    # -- persistence ---------------------------------------------------------

    def load(self) -> None:
        """Load the snapshot; missing or corrupt files yield an empty map.

        Tolerance matters: the journal is the source of truth, so a
        snapshot torn by a crash must not block recovery.
        """
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                parsed = json.load(handle)
        except (FileNotFoundError, ValueError):
            return
        artifacts = parsed.get("artifacts") if isinstance(parsed, dict) else None
        if not isinstance(artifacts, dict):
            return
        with self._lock:
            for key, entry in artifacts.items():
                if isinstance(entry, dict) and "sha256" in entry:
                    self._entries[str(key)] = {
                        "sha256": str(entry["sha256"]),
                        "nbytes": int(entry.get("nbytes", -1)),
                    }

    def save(self) -> None:
        """Atomically publish the current snapshot."""
        with self._lock:
            payload = json.dumps(
                {"version": 1, "artifacts": self._entries},
                sort_keys=True, indent=0, separators=(",", ":"),
            ).encode("utf-8")
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        atomic_publish_bytes(self.path, payload, durable=self.durable)

    def reset(self) -> None:
        with self._lock:
            self._entries = {}
        self.save()

    # -- recording -----------------------------------------------------------

    def record(
        self, path: str, sha256: Optional[str] = None, nbytes: Optional[int] = None
    ) -> str:
        """Digest ``path`` (or trust ``sha256``) and store its entry.

        When digesting, the size comes from the same read pass as the
        hash (:func:`repro.util.digest.digest_file`), never a separate
        ``stat`` — a concurrent writer between digest and stat would
        otherwise publish an entry whose size and digest describe two
        different file states.  Callers supplying a precomputed
        ``sha256`` should supply the matching ``nbytes`` too; absent
        that, the stat is taken best-effort and marked trusted-size.
        """
        if sha256 is None:
            digest, size = digest_file(path)
        else:
            digest = sha256
            size = int(nbytes) if nbytes is not None else os.path.getsize(path)
        with self._lock:
            self._entries[self._key(path)] = {"sha256": digest, "nbytes": size}
        return digest

    def put(self, path: str, sha256: str, nbytes: Optional[int] = None) -> None:
        """Store an entry from an external source (journal replay)."""
        with self._lock:
            self._entries[self._key(path)] = {
                "sha256": sha256,
                "nbytes": int(nbytes) if nbytes is not None else -1,
            }

    # -- verification --------------------------------------------------------

    def entry(self, path: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            entry = self._entries.get(self._key(path))
            return dict(entry) if entry else None

    def expected_sha(self, path: str) -> Optional[str]:
        entry = self.entry(path)
        return entry["sha256"] if entry else None

    def check(self, path: str) -> str:
        """Classify an artifact: OK, MISSING_ENTRY, MISSING_FILE, MISMATCH.

        The size short-circuit means a truncated file fails without a
        full digest; matching sizes still digest the content.
        """
        entry = self.entry(path)
        if entry is None:
            return MISSING_ENTRY
        try:
            nbytes = os.path.getsize(path)
        except OSError:
            return MISSING_FILE
        if entry["nbytes"] >= 0 and nbytes != entry["nbytes"]:
            return MISMATCH
        if sha256_file(path) != entry["sha256"]:
            return MISMATCH
        return OK

    def verify(self, path: str) -> bool:
        return self.check(path) == OK

    def paths(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
