"""Kill-and-resume harness for crash-consistent checkpointing.

For every fault-injection surface, a seeded run is killed mid-flight by a
``crash`` fault (``os._exit`` in a subprocess), then restarted with
``--resume``.  The delivered corpus must be byte-identical to an
uninterrupted run with the same seed, and manifest-verified granules must
not be re-downloaded.
"""

import os
import subprocess
import sys

import pytest

from repro.chaos.surfaces import CRASH_EXIT_CODE

DRIVER = os.path.join(os.path.dirname(__file__), "crash_driver.py")
SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
)

# The workflow stages, each with a crash surface.
CRASH_STAGES = ["download", "preprocess", "inference", "shipment"]


def run_driver(root, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, DRIVER, str(root), *extra],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def parse_stats(stdout):
    stats = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            stats[key.strip()] = int(value)
    return stats


def read_corpus(root):
    dest = os.path.join(str(root), "data", "orion")
    corpus = {}
    for name in sorted(os.listdir(dest)):
        with open(os.path.join(dest, name), "rb") as handle:
            corpus[name] = handle.read()
    return corpus


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    root = tmp_path_factory.mktemp("uninterrupted")
    proc = run_driver(root)
    assert proc.returncode == 0, proc.stderr
    stats = parse_stats(proc.stdout)
    assert stats["errors"] == 0
    assert stats["shipped"] > 0
    return read_corpus(root), stats


@pytest.mark.parametrize("stage", CRASH_STAGES)
def test_crash_then_resume_matches_uninterrupted(stage, tmp_path, baseline):
    expected_corpus, expected_stats = baseline

    crashed = run_driver(tmp_path, "--crash-stage", stage)
    assert crashed.returncode == CRASH_EXIT_CODE, (
        f"crash fault at {stage!r} did not abort the run: "
        f"rc={crashed.returncode}\n{crashed.stdout}\n{crashed.stderr}"
    )

    resumed = run_driver(tmp_path, "--resume")
    assert resumed.returncode == 0, resumed.stderr
    stats = parse_stats(resumed.stdout)
    assert stats["errors"] == 0
    assert stats["shipped"] == expected_stats["shipped"]

    # Byte-identical delivered corpus: same filenames, same contents.
    assert read_corpus(tmp_path) == expected_corpus

    if stage != "download":
        # Every granule survived the crash with a verified manifest entry,
        # so the resumed run must not re-download anything.
        assert stats["fetched"] == 0
        assert stats["resumed_downloads"] == expected_stats["fetched"]
        assert stats["resumed_items"] > 0
    else:
        # Only granules that never completed before the crash are refetched;
        # together with the journal-resumed ones they cover the full set.
        assert stats["fetched"] + stats["resumed_downloads"] == expected_stats["fetched"]


def test_resume_of_completed_run_is_a_noop(tmp_path, baseline):
    _, expected_stats = baseline

    first = run_driver(tmp_path)
    assert first.returncode == 0, first.stderr

    again = run_driver(tmp_path, "--resume")
    assert again.returncode == 0, again.stderr
    stats = parse_stats(again.stdout)
    assert stats["fetched"] == 0
    assert stats["replayed_items"] == 0
    assert stats["resumed_items"] > 0
    assert stats["shipped"] == expected_stats["shipped"]
    assert stats["errors"] == 0
