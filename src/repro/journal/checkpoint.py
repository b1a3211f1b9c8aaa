"""The workflow-facing checkpoint facade: journal + manifest + counters.

``WorkflowJournal`` is what stages actually hold.  It couples the
write-ahead :class:`~repro.journal.journal.RunJournal` with the
:class:`~repro.journal.manifest.IntegrityManifest` and exposes the one
question every idempotent stage asks per work item:

    decision = journal.resume(stage, key)

* ``FRESH``   — no usable history; do the work, then ``complete()``.
* ``RESUMED`` — a prior run completed this item and its artifact still
  verifies against the manifest; skip the work, reuse the journaled
  payload (tile counts, byte counts, output paths).
* ``REPLAY``  — the item has history that does not hold up (caught
  mid-flight, artifact missing or digest mismatch); redo it, bypassing
  any ``skip_existing`` shortcut so a torn file cannot be trusted.

Counters (``resumed_items``, ``replayed_items``, ``manifest_mismatches``)
accumulate across stages; :meth:`WorkflowJournal.counters` ships them to
the driver, which sums every process's into ``WorkflowReport``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.journal import manifest as manifest_mod
from repro.journal.journal import JournalState, RunJournal
from repro.journal.manifest import IntegrityManifest
from repro.util.digest import sha256_file

__all__ = [
    "FRESH", "RESUMED", "REPLAY",
    "ResumeDecision", "WorkflowJournal",
    "JOURNAL_NAME", "MANIFEST_NAME",
]

FRESH = "fresh"
RESUMED = "resumed"
REPLAY = "replay"

JOURNAL_NAME = "run.journal.jsonl"
MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class ResumeDecision:
    """What a stage should do with one work item on this run."""

    outcome: str                                  # FRESH | RESUMED | REPLAY
    payload: Dict[str, Any] = field(default_factory=dict)

    @property
    def skip(self) -> bool:
        return self.outcome == RESUMED

    @property
    def redo(self) -> bool:
        return self.outcome == REPLAY


class WorkflowJournal:
    """Journal + manifest pair for one run directory, with resume logic."""

    def __init__(self, directory: str, durable: bool = True):
        self.directory = directory
        self.journal = RunJournal(os.path.join(directory, JOURNAL_NAME),
                                  durable=durable)
        self.manifest = IntegrityManifest(os.path.join(directory, MANIFEST_NAME),
                                          durable=durable)
        self._state: Optional[JournalState] = None
        self._lock = threading.Lock()
        self.resumed_items = 0
        self.replayed_items = 0
        self.manifest_mismatches = 0
        self.torn_records = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self, resume: bool = False) -> None:
        """Open the journal for a fresh run or reconstruct state to resume.

        Resume order matters: replay first (tolerating a torn tail),
        compact the validated prefix so the tail cannot shadow new
        appends, then rebuild the manifest from the journal's completion
        records — the journal, not the manifest snapshot, is the source
        of truth after a crash.
        """
        os.makedirs(self.directory, exist_ok=True)
        if not resume:
            self.journal.reset()
            self.manifest.reset()
            self._state = JournalState([])
            return
        records = self.journal.replay()
        self.torn_records = self.journal.torn_records
        if self.torn_records:
            self.journal.compact(records)
        self._state = JournalState(records)
        self.manifest.load()
        for (_, _), payload in self._state.completions.items():
            artifact = payload.get("artifact")
            sha = payload.get("sha256")
            if artifact and sha:
                self.manifest.put(artifact, sha, payload.get("nbytes"))

    def close(self) -> None:
        self.journal.close()

    def __enter__(self) -> "WorkflowJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def state(self) -> JournalState:
        if self._state is None:
            self._state = JournalState([])
        return self._state

    # -- per-item resume decisions -------------------------------------------

    def resume(self, stage: str, key: str) -> ResumeDecision:
        """Decide FRESH / RESUMED / REPLAY for one (stage, key).

        Call exactly once per item per run: counters are bumped here.
        """
        completion = self.state.completion(stage, key)
        if completion is not None:
            artifact = completion.get("artifact")
            if artifact:
                status = self.manifest.check(artifact)
                if status != manifest_mod.OK:
                    with self._lock:
                        self.replayed_items += 1
                        if status == manifest_mod.MISMATCH:
                            self.manifest_mismatches += 1
                    return ResumeDecision(REPLAY, dict(completion))
            with self._lock:
                self.resumed_items += 1
            return ResumeDecision(RESUMED, dict(completion))
        if self.state.has_intent(stage, key):
            # Intent without completion: the crash caught this item
            # mid-flight; whatever is on disk cannot be trusted.
            with self._lock:
                self.replayed_items += 1
            return ResumeDecision(REPLAY)
        return ResumeDecision(FRESH)

    # -- journaling helpers ---------------------------------------------------

    def intent(self, stage: str, key: str, **payload: Any) -> None:
        self.journal.intent(stage, key, **payload)

    def complete(self, stage: str, key: str, artifact: Optional[str] = None,
                 sha256: Optional[str] = None, **payload: Any) -> None:
        """Record a durable completion; digests ``artifact`` if present.

        The artifact must already be published under its final name
        (write ordering: artifact rename precedes the journal append).
        Without one, ``sha256`` is kept as it was given (a deferred
        download hit names its content, not a file).
        """
        if artifact is None:
            if sha256 is not None:
                payload = dict(payload, sha256=sha256)
        else:
            digest = self.manifest.record(
                artifact, sha256=sha256, nbytes=payload.get("nbytes")
            )
            payload = dict(payload)
            payload["artifact"] = os.path.abspath(artifact)
            payload["sha256"] = digest
            if payload.get("nbytes") is None:
                # The manifest observed size and digest in one read pass;
                # reuse it rather than re-stat'ing a file a concurrent
                # writer may have touched since.
                entry = self.manifest.entry(artifact) or {}
                payload["nbytes"] = entry.get("nbytes", os.path.getsize(artifact))
        self.journal.complete(stage, key, **payload)

    def checkpoint(self) -> None:
        """Publish a manifest snapshot (stage boundary)."""
        self.manifest.save()

    # -- integrity queries ----------------------------------------------------

    def artifact_ok(self, path: str, sha256: str, observed: Optional[str] = None) -> bool:
        """Integrity gate for consumers (inference): do ``path``'s bytes
        hash to ``sha256``, the digest its producer announced?

        ``observed`` is the digest the consumer already took of the bytes
        it read (None: read and hash the file here).  A mismatch is
        counted.  A file that cannot be read passes: its consumer fails
        on it and says why.
        """
        try:
            if (observed or sha256_file(path)) == sha256:
                return True
        except OSError:
            return True
        with self._lock:
            self.manifest_mismatches += 1
        return False

    def expected_sha(self, path: str) -> Optional[str]:
        return self.manifest.expected_sha(path)

    # -- reporting ------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "resumed_items": self.resumed_items,
                "replayed_items": self.replayed_items,
                "manifest_mismatches": self.manifest_mismatches,
            }

    def summary(self) -> Dict[str, Any]:
        """Where the run directory is and what it holds.

        The resume counters are not repeated here: this process's share
        of them is not the run's, and the report sums every process's.
        """
        return {
            "directory": self.directory,
            "torn_records": self.torn_records,
            "manifest_entries": len(self.manifest),
        }
