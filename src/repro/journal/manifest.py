"""Integrity manifest: one SHA-256 per artifact, checked at boundaries.

Production EO pipelines treat every stage output as a checksummed
artifact so later stages (and resumed runs) can distinguish "present and
intact" from "present but torn/rotted".  The manifest is an in-memory
index from artifact path to digest and size; it is consulted

* by resume logic, to decide whether a journaled completion still holds;
* by preprocess, for the digest it announces with a tile file it found
  already in place;
* after shipment, to verify the delivered bytes end to end.

Nothing of it is written to disk: each entry is a journal completion's
``sha256`` and ``nbytes``, so a resumed run rebuilds the index from the
journal it replays.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Optional

from repro.util.digest import digest_file, sha256_file

__all__ = ["IntegrityManifest"]

# Verification outcomes for IntegrityManifest.check().
OK = "ok"
MISSING_ENTRY = "missing-entry"
MISSING_FILE = "missing-file"
MISMATCH = "mismatch"


class IntegrityManifest:
    """Artifact path -> {sha256, nbytes}, filled from journal completions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, Dict[str, Any]] = {}

    @staticmethod
    def _key(path: str) -> str:
        return os.path.abspath(path)

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

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
