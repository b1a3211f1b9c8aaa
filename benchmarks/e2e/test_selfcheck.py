"""Self-check of the benchmark harness.  Run explicitly; tier-1 does not collect it:

    python3 -m pytest -q benchmarks/e2e/test_selfcheck.py

Builds the input corpus on first use (~20 s).
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _declared(kind: str) -> set:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"] for metric in json.load(handle)[kind]}


def _run(*args: str, cwd: str = ROOT, script: str = RUN) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_quick_run_emits_exactly_the_declared_metrics(tmp_path, trace, kind):
    done = _run("--quick", "--only", "small_units", "--trace", trace, "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr[-2000:]
    last = done.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    # json.loads keeps one entry per key; count the keys in the text itself.
    for name in result["metrics"]:
        assert last.count(f'"{name}":') == 1, name
        assert NAME.match(name), name
        assert math.isfinite(result["metrics"][name]["value"]), name
    assert set(result["metrics"]) == _declared(kind)
    # ... and each is printed by name with its unit in the readable part.
    for name, entry in result["metrics"].items():
        assert re.search(rf"^{re.escape(name)}\s+\S+ {re.escape(entry['unit'])}", done.stdout, re.M), name
    if trace == "1":
        with open(tmp_path / "small_units-trace.json", encoding="utf-8") as handle:
            spans = json.load(handle)
        ids = {span["id"] for span in spans}
        assert all(span["parent"] is None or span["parent"] in ids for span in spans)


def test_replay_archive_serves_the_generators_bytes():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import corpus
    from repro import netcdf
    from repro.modis.archive import LaadsArchive

    cache_root = os.path.join(HERE, ".cache")
    try:
        corpus.load_manifest(cache_root)
    except (FileNotFoundError, ValueError):
        assert _run("--build-corpus").returncode == 0
    size = corpus.SIZES["mini"]
    pool_dir = os.path.join(corpus.corpus_dir(cache_root), size.name)
    replay = corpus.ReplayArchive(pool_dir, size.swath)
    original = LaadsArchive(seed=corpus.CORPUS_SEED, swath=size.swath)
    refs = corpus.corpus_refs(size)
    for ref in (refs[0], refs[len(refs) // 2], refs[-1]):   # one of each product
        assert netcdf.to_bytes(replay.fetch(ref)) == netcdf.to_bytes(original.fetch(ref))


def test_exits_nonzero_without_the_program(tmp_path):
    """In a tree holding only BENCHMARK.json and the benchmark's own files
    there is nothing to measure: no result line, non-zero exit."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".cache", ".out", ".work", "__pycache__"),
    )
    done = _run(
        "--workload", "small_units", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path), script=str(tmp_path / "benchmarks" / "e2e" / "run.py"),
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
