"""Crash-consistent run journaling: the WAL, the digest index its
completions fill, and resume."""

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
    REPLAY,
    RESUMED,
    ResumeDecision,
    WorkflowJournal,
)

__all__ = [
    "INTENT", "COMPLETE", "JournalRecord", "RunJournal", "JournalState",
    "IntegrityManifest",
    "FRESH", "RESUMED", "REPLAY", "ResumeDecision", "WorkflowJournal",
    "JOURNAL_NAME",
]
