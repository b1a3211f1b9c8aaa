"""Unit tests for the crash-consistent run journal subsystem."""

import json
import os

import pytest

from repro.journal import (
    COMPLETE,
    FRESH,
    INTENT,
    JOURNAL_NAME,
    REPLAY,
    RESUMED,
    IntegrityManifest,
    JournalState,
    RunJournal,
    WorkflowJournal,
)
from repro.journal import manifest as manifest_mod
from repro.util.digest import sha256_file


class TestRunJournal:
    def test_append_and_replay_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.journal.jsonl")
        with RunJournal(path) as journal:
            journal.intent("download", "a.nc")
            journal.complete("download", "a.nc", artifact="/x/a.nc", nbytes=10)
            journal.intent("preprocess", "scene-1")
        replayed = RunJournal(path).replay()
        assert [(r.stage, r.event, r.key) for r in replayed] == [
            ("download", INTENT, "a.nc"),
            ("download", COMPLETE, "a.nc"),
            ("preprocess", INTENT, "scene-1"),
        ]
        assert replayed[1].payload == {"artifact": "/x/a.nc", "nbytes": 10}
        assert [r.seq for r in replayed] == [1, 2, 3]

    def test_sequence_continues_after_replay(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path) as journal:
            journal.intent("download", "a")
        second = RunJournal(path)
        second.replay()
        record = second.append("download", COMPLETE, "a")
        second.close()
        assert record.seq == 2

    def test_torn_tail_is_dropped(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path) as journal:
            journal.intent("download", "a")
            journal.complete("download", "a")
        # Simulate a crash mid-append: a half-written trailing line.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "stage": "downl')
        journal = RunJournal(path)
        records = journal.replay()
        assert len(records) == 2
        assert journal.torn_records == 1

    def test_corrupted_checksum_stops_replay(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path) as journal:
            journal.intent("download", "a")
            journal.complete("download", "a")
        lines = open(path).read().splitlines()
        doctored = json.loads(lines[1])
        doctored["key"] = "b"  # bytes changed, checksum now stale
        lines[1] = json.dumps(doctored)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        journal = RunJournal(path)
        assert len(journal.replay()) == 1
        assert journal.torn_records == 1

    def test_compact_removes_torn_tail_permanently(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path) as journal:
            journal.intent("download", "a")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        journal = RunJournal(path)
        records = journal.replay()
        journal.compact(records)
        # New appends land after the validated prefix, and a fresh
        # replay sees everything (the tail no longer shadows it).
        journal.complete("download", "a")
        journal.close()
        final = RunJournal(path).replay()
        assert [(r.event, r.seq) for r in final] == [(INTENT, 1), (COMPLETE, 2)]

    def test_reset_truncates(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal(path)
        journal.intent("download", "a")
        journal.reset()
        journal.close()
        assert RunJournal(path).replay() == []

    def test_replay_missing_file_is_empty(self, tmp_path):
        assert RunJournal(str(tmp_path / "absent.jsonl")).replay() == []


class TestJournalState:
    def test_completions_and_in_flight(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path) as journal:
            journal.intent("download", "a")
            journal.complete("download", "a", nbytes=5)
            journal.intent("download", "b")  # crashed mid-flight
            journal.complete("preprocess", "s1", tiles=3)
        state = JournalState(RunJournal(path).replay())
        assert state.completion("download", "a") == {"nbytes": 5}
        assert state.completion("download", "b") is None
        assert state.has_intent("download", "b")
        assert state.completion("preprocess", "s1") == {"tiles": 3}
        assert not state.has_intent("preprocess", "s1")

    def test_last_completion_wins(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path) as journal:
            journal.complete("download", "a", nbytes=1)
            journal.complete("download", "a", nbytes=2)
        state = JournalState(RunJournal(path).replay())
        assert state.completion("download", "a") == {"nbytes": 2}


class TestIntegrityManifest:
    def test_record_check_roundtrip(self, tmp_path):
        artifact = tmp_path / "a.nc"
        artifact.write_bytes(b"payload")
        manifest = IntegrityManifest()
        digest = manifest.record(str(artifact))
        assert digest == sha256_file(str(artifact))
        assert manifest.check(str(artifact)) == manifest_mod.OK

    def test_check_states(self, tmp_path):
        artifact = tmp_path / "a.nc"
        artifact.write_bytes(b"payload")
        manifest = IntegrityManifest()
        assert manifest.check(str(artifact)) == manifest_mod.MISSING_ENTRY
        manifest.record(str(artifact))
        artifact.write_bytes(b"tampered")
        assert manifest.check(str(artifact)) == manifest_mod.MISMATCH
        os.remove(artifact)
        assert manifest.check(str(artifact)) == manifest_mod.MISSING_FILE


class TestWorkflowJournal:
    def _make(self, tmp_path, resume=False):
        journal = WorkflowJournal(str(tmp_path / "journal"))
        journal.start(resume=resume)
        return journal

    def test_fresh_item_then_resumed(self, tmp_path):
        artifact = tmp_path / "a.nc"
        artifact.write_bytes(b"tile bytes")
        journal = self._make(tmp_path)
        assert journal.resume("download", "a").outcome == FRESH
        journal.intent("download", "a")
        journal.complete("download", "a", artifact=str(artifact))
        journal.close()

        resumed = self._make(tmp_path, resume=True)
        decision = resumed.resume("download", "a")
        assert decision.outcome == RESUMED
        assert decision.skip
        assert decision.payload["sha256"] == sha256_file(str(artifact))
        assert resumed.counters()["resumed_items"] == 1
        resumed.close()

    def test_in_flight_item_replays(self, tmp_path):
        journal = self._make(tmp_path)
        journal.intent("download", "a")  # crash before completion
        journal.close()
        resumed = self._make(tmp_path, resume=True)
        decision = resumed.resume("download", "a")
        assert decision.outcome == REPLAY
        assert decision.redo
        assert resumed.counters()["replayed_items"] == 1
        resumed.close()

    def test_mismatched_artifact_replays_and_counts(self, tmp_path):
        artifact = tmp_path / "a.nc"
        artifact.write_bytes(b"original")
        journal = self._make(tmp_path)
        journal.complete("download", "a", artifact=str(artifact))
        journal.close()
        artifact.write_bytes(b"rotted!!")  # same size, different bytes
        resumed = self._make(tmp_path, resume=True)
        decision = resumed.resume("download", "a")
        assert decision.outcome == REPLAY
        counters = resumed.counters()
        assert counters["replayed_items"] == 1
        assert counters["manifest_mismatches"] == 1
        resumed.close()

    def test_missing_artifact_replays_without_mismatch(self, tmp_path):
        artifact = tmp_path / "a.nc"
        artifact.write_bytes(b"original")
        journal = self._make(tmp_path)
        journal.complete("download", "a", artifact=str(artifact))
        journal.close()
        os.remove(artifact)
        resumed = self._make(tmp_path, resume=True)
        assert resumed.resume("download", "a").outcome == REPLAY
        assert resumed.counters()["manifest_mismatches"] == 0
        resumed.close()

    def test_completion_without_artifact_keeps_its_digest(self, tmp_path):
        """A deferred download hit names content, not a file: its digest
        and size replay as given, and nothing enters the manifest."""
        digest = "ab" * 32
        journal = self._make(tmp_path)
        journal.complete("download", "a", sha256=digest, nbytes=123)
        journal.close()
        resumed = self._make(tmp_path, resume=True)
        decision = resumed.resume("download", "a")
        assert decision.outcome == RESUMED
        assert decision.payload["sha256"] == digest
        assert decision.payload["nbytes"] == 123
        assert "artifact" not in decision.payload and len(resumed.manifest) == 0
        resumed.close()

    def test_fresh_start_discards_previous_history(self, tmp_path):
        journal = self._make(tmp_path)
        journal.complete("download", "a", nbytes=1)
        journal.close()
        fresh = self._make(tmp_path, resume=False)
        assert fresh.resume("download", "a").outcome == FRESH
        fresh.close()

    def test_manifest_rebuilt_from_journal(self, tmp_path):
        """The journal is the source of truth."""
        artifact = tmp_path / "a.nc"
        artifact.write_bytes(b"tile bytes")
        journal = self._make(tmp_path)
        journal.complete("preprocess", "s1", artifact=str(artifact), tiles=4)
        journal.close()
        resumed = self._make(tmp_path, resume=True)
        assert resumed.resume("preprocess", "s1").outcome == RESUMED
        assert resumed.manifest.check(str(artifact)) == manifest_mod.OK
        resumed.close()

    def test_torn_journal_tail_compacted_on_resume(self, tmp_path):
        journal = self._make(tmp_path)
        journal.complete("download", "a", nbytes=1)
        journal.close()
        with open(journal.journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"torn')
        resumed = self._make(tmp_path, resume=True)
        assert resumed.torn_records == 1
        assert resumed.resume("download", "a").outcome == RESUMED
        resumed.close()
        # The compaction removed the torn line from disk.
        final = RunJournal(journal.journal.path).replay()
        assert all(r.event in (INTENT, COMPLETE) for r in final)

    def test_artifact_gate_counts_each_mismatch_once(self, tmp_path):
        artifact = tmp_path / "a.nc"
        artifact.write_bytes(b"original")
        journal = self._make(tmp_path)
        announced = sha256_file(str(artifact))
        assert journal.artifact_ok(str(artifact), announced)
        artifact.write_bytes(b"rotted!!")
        assert not journal.artifact_ok(str(artifact), announced)
        assert journal.counters()["manifest_mismatches"] == 1
        # A file that cannot be read is its consumer's to report.
        assert journal.artifact_ok(str(tmp_path / "gone.nc"), announced)
        assert journal.counters()["manifest_mismatches"] == 1
        journal.close()

    def test_completion_indexes_its_artifact_and_writes_only_the_journal(self, tmp_path):
        artifact = tmp_path / "a.nc"
        artifact.write_bytes(b"tile bytes")
        journal = self._make(tmp_path)
        journal.complete("preprocess", "s1", artifact=str(artifact))
        journal.close()
        assert journal.summary()["manifest_entries"] == 1
        assert os.listdir(journal.directory) == [JOURNAL_NAME]


class TestCrashFaultKind:
    def test_chaos_crash_uses_abort_indirection(self, monkeypatch):
        from repro.chaos import CRASH_EXIT_CODE, FaultPlan, FaultSpec, build_injector
        from repro.chaos import surfaces

        calls = []
        monkeypatch.setattr(surfaces, "_abort", calls.append)
        plan = FaultPlan(seed=0, faults=(FaultSpec(stage="download", kind="crash"),))
        chaos = build_injector(plan)
        surfaces.chaos_crash(chaos, "download", "a.nc")
        assert calls == [CRASH_EXIT_CODE]
        # times=1: the same key does not crash twice.
        surfaces.chaos_crash(chaos, "download", "a.nc")
        assert calls == [CRASH_EXIT_CODE]

    def test_chaos_crash_noop_without_injector(self):
        from repro.chaos import chaos_crash

        chaos_crash(None, "download", "a.nc")  # must not raise or exit

    def test_crash_is_a_valid_plan_kind(self):
        from repro.chaos import load_plan

        plan = load_plan(
            {"seed": 7, "faults": [{"stage": "inference", "kind": "crash"}]}
        )
        assert plan.kinds() == ("crash",)
