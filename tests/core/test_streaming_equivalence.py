"""Streaming-vs-barrier equivalence: pipelining must not move a byte.

The streaming runner reorders *when* work happens — scenes preprocess
while later downloads are still in flight, labelled files ship while the
inference queue drains — but the delivered corpus must be byte-identical
to the barrier pipeline (and to the pinned ``golden_corpus.json``),
including when a streaming run is crashed mid-flight and resumed.
"""

import hashlib
import json
import os

import pytest

from tests.core.crash_driver import build_raw_config
from tests.core.test_crash_resume import (
    CRASH_STAGES,
    parse_stats,
    read_corpus,
    run_driver,
)

from repro.chaos.surfaces import CRASH_EXIT_CODE
from repro.core import EOMLWorkflow, load_config
from repro.modis import MINI_SWATH, LaadsArchive

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_corpus.json")


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def test_streaming_run_ships_the_golden_corpus(tmp_path):
    with open(GOLDEN) as handle:
        golden = json.load(handle)

    raw = build_raw_config(str(tmp_path), golden["granules"])
    raw["runtime"] = {"stream": {"enabled": True}}
    config = load_config(raw)
    workflow = EOMLWorkflow(
        config, archive=LaadsArchive(seed=golden["seed"], swath=MINI_SWATH)
    )
    report = workflow.run(provenance=False)
    assert report.errors == []

    delivered = {
        name: sha256_file(os.path.join(config.destination, name))
        for name in sorted(os.listdir(config.destination))
    }
    assert delivered == golden["files"]

    # The report carries the streaming accounting the paper's Fig. 6
    # overlap claims: per-edge channel stats and stage-overlap seconds.
    assert report.stream is not None and report.stream["enabled"]
    edges = report.stream["edges"]
    assert set(edges) == {
        "download->model", "model->preprocess", "preprocess->inference",
        "inference->shipment",
    }
    for stats in edges.values():
        assert stats["closed"]
        assert stats["max_depth"] >= 0
        assert stats["producer_stall_seconds"] >= 0.0
    assert edges["download->model"]["items"] > 0
    assert edges["inference->shipment"]["items"] == len(report.inference)
    assert all(v >= 0.0 for v in report.stage_overlap_seconds.values())


def test_streaming_report_matches_barrier_report(tmp_path):
    def run(mode_dir, streaming):
        raw = build_raw_config(str(tmp_path / mode_dir), 2)
        config = load_config(raw)
        workflow = EOMLWorkflow(
            config, archive=LaadsArchive(seed=3, swath=MINI_SWATH)
        )
        return workflow.run(provenance=False, streaming=streaming), config

    barrier, _ = run("barrier", streaming=False)
    streamed, _ = run("streamed", streaming=True)
    assert barrier.stream is None
    assert streamed.stream is not None
    # Same work observed either way: granules, tiles, labels, shipments.
    assert streamed.download.files == barrier.download.files
    assert streamed.total_tiles == barrier.total_tiles
    assert len(streamed.inference) == len(barrier.inference)
    assert sorted(os.path.basename(p) for p in streamed.shipment.moved) == \
        sorted(os.path.basename(p) for p in barrier.shipment.moved)


@pytest.mark.parametrize("stage", CRASH_STAGES)
def test_streaming_crash_then_resume_matches_golden(stage, tmp_path):
    with open(GOLDEN) as handle:
        golden = json.load(handle)

    crashed = run_driver(tmp_path, "--streaming", "--crash-stage", stage)
    assert crashed.returncode == CRASH_EXIT_CODE, (
        f"crash fault at {stage!r} did not abort the streaming run: "
        f"rc={crashed.returncode}\n{crashed.stdout}\n{crashed.stderr}"
    )

    resumed = run_driver(tmp_path, "--streaming", "--resume")
    assert resumed.returncode == 0, resumed.stderr
    stats = parse_stats(resumed.stdout)
    assert stats["errors"] == 0

    corpus = {
        name: hashlib.sha256(blob).hexdigest()
        for name, blob in read_corpus(tmp_path).items()
    }
    assert corpus == golden["files"]


def test_streaming_resume_of_completed_run_is_a_noop(tmp_path):
    first = run_driver(tmp_path, "--streaming")
    assert first.returncode == 0, first.stderr

    again = run_driver(tmp_path, "--streaming", "--resume")
    assert again.returncode == 0, again.stderr
    stats = parse_stats(again.stdout)
    assert stats["fetched"] == 0
    assert stats["replayed_items"] == 0
    assert stats["resumed_items"] > 0
    assert stats["errors"] == 0
