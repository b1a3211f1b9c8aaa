"""Behind the download barrier, only the barrier blocks.

In the barrier plan the model node, preprocess, inference and shipment
each wait on download with an ``after`` edge, so they start together
once every download has finished, each reading its producer's stream as
it is written.  These tests pin what that changes and what it must not:
the model's journal completion names the file's digest on every path,
only a process that labels ever loads the model, and the first labelled
file ships before the last one is published.
"""

import os
import shutil
import threading
import time

import pytest

from tests.core.crash_driver import build_raw_config

from repro.core import EOMLWorkflow, load_config
from repro.core import inference as inference_module
from repro.core.context import MODEL_FILE, MODEL_JOURNAL_KEY
from repro.journal import JOURNAL_NAME, JournalState, RunJournal
from repro.modis import MINI_SWATH, LaadsArchive
from repro.ricc.aicca import AICCAModel
from repro.transfer import LocalTransferClient
from repro.util.digest import digest_file


def run(raw, resume=False, streaming=False):
    workflow = EOMLWorkflow(load_config(raw), archive=LaadsArchive(seed=3, swath=MINI_SWATH))
    report = workflow.run(provenance=False, resume=resume, streaming=streaming)
    assert report.errors == []
    return report


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    """A persisted model, as a configured ``inference.model_path``."""
    root = str(tmp_path_factory.mktemp("bootstrap"))
    raw = build_raw_config(root, 1)
    run(raw)
    path = os.path.join(str(tmp_path_factory.mktemp("model")), MODEL_FILE)
    shutil.copy(os.path.join(raw["journal"]["dir"], MODEL_FILE), path)
    return path


def configured(root, model_file, **sections):
    raw = build_raw_config(str(root), 2)
    raw["inference"]["model_path"] = model_file
    raw.update(sections)
    return raw


def model_completion(raw):
    records = RunJournal(os.path.join(raw["journal"]["dir"], JOURNAL_NAME)).replay()
    return JournalState(records).completion("model", MODEL_JOURNAL_KEY)


@pytest.mark.parametrize("streaming", [False, True], ids=["barrier", "streaming"])
@pytest.mark.parametrize("mode", ["fresh", "resumed", "pooled"])
def test_model_completion_names_the_files_digest(tmp_path, model_file, mode, streaming):
    """Journaled after the relay, the completion still carries the file's
    digest — taken on a fresh or pooled run, trusted from the resume
    check on a resumed one."""
    if mode == "resumed":
        raw = build_raw_config(str(tmp_path), 2)  # the journal-owned model
        run(raw, streaming=streaming)
        run(raw, resume=True, streaming=streaming)
        path = os.path.join(raw["journal"]["dir"], MODEL_FILE)
    else:
        runtime = {"runtime": {"workers": 2}} if mode == "pooled" else {}
        raw = configured(tmp_path, model_file, **runtime)
        run(raw, streaming=streaming)
        path = model_file
    completion = model_completion(raw)
    sha256, nbytes = digest_file(path)
    assert completion["artifact"] == os.path.abspath(path)
    assert (completion["sha256"], completion["nbytes"]) == (sha256, nbytes)


@pytest.mark.parametrize("workers, loads", [(None, 1), (2, 0)], ids=["inline", "pool"])
def test_only_a_labelling_process_loads_the_model(tmp_path, model_file, monkeypatch,
                                                  workers, loads):
    """The driver of a pool run labels nothing, so it never loads the
    model; inline, the driver labels and loads it once.  (Forked pool
    workers inherit the spy, but not this process's list.)"""
    calls = []
    real = AICCAModel.load.__func__

    def spy(cls, path):
        calls.append(path)
        return real(cls, path)

    monkeypatch.setattr(AICCAModel, "load", classmethod(spy))
    runtime = {"runtime": {"workers": workers}} if workers else {}
    report = run(configured(tmp_path, model_file, **runtime))
    assert len(report.inference) >= 2
    assert calls == [model_file] * loads


def test_a_barrier_run_ships_while_it_labels(tmp_path, monkeypatch):
    """Shipment overlaps labelling: each labelled file ships once it is
    published, so the first lands at the destination before the last
    is published — every publish after the first waits (up to 5 s) for
    a delivery, which only a running shipment can make."""
    raw = build_raw_config(str(tmp_path), 3)
    raw["inference"]["batch_files"] = 1
    published, delivered, moved = [], [], threading.Event()
    real_publish, real_move = inference_module._publish, LocalTransferClient.move_one

    def publish(*args, **kwargs):
        if published:
            moved.wait(5.0)
        result = real_publish(*args, **kwargs)
        published.append(time.monotonic())
        return result

    def move_one(self, *args, **kwargs):
        result = real_move(self, *args, **kwargs)
        delivered.append(time.monotonic())
        moved.set()
        return result

    monkeypatch.setattr(inference_module, "_publish", publish)
    monkeypatch.setattr(LocalTransferClient, "move_one", move_one)
    report = run(raw)
    assert report.stream is None and len(published) >= 2
    assert len(delivered) == len(published)
    assert delivered[0] < published[-1]
    overlap = report.stage_overlap_seconds
    assert overlap["model+preprocess"] > 0
    assert overlap["inference+shipment"] > 0
