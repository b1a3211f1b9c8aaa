"""Crash-consistent run journaling: WAL + integrity manifests + resume."""

from repro.journal.journal import (
    COMPLETE,
    INTENT,
    JournalRecord,
    JournalState,
    RunJournal,
)
from repro.journal.manifest import IntegrityManifest
from repro.journal.checkpoint import (
    FRESH,
    JOURNAL_NAME,
    MANIFEST_NAME,
    REPLAY,
    RESUMED,
    ResumeDecision,
    WorkflowJournal,
)

__all__ = [
    "INTENT", "COMPLETE", "JournalRecord", "RunJournal", "JournalState",
    "IntegrityManifest",
    "FRESH", "RESUMED", "REPLAY", "ResumeDecision", "WorkflowJournal",
    "JOURNAL_NAME", "MANIFEST_NAME",
]
