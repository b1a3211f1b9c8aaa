"""Crash-consistency contracts of the atomic publication helpers.

``atomic_publish_bytes`` is the one primitive every publishing stage
trusts to leave either the old file or the complete new file — never a
torn one.  These tests cover the edges the happy path never exercises:
a stale ``.part`` survivor from a dead writer, a crash injected in the
window between the temp write and ``os.replace`` (via the chaos crash
fault), and fsync failures (the file's must propagate; the directory's
is best-effort by design).
"""

import os

import numpy as np
import pytest

import repro.chaos.surfaces as surfaces
from repro.chaos import FaultInjector, FaultPlan, FaultSpec
from repro.chaos.surfaces import CRASH_EXIT_CODE, chaos_atomic_write
from repro.netcdf import Dataset, read
from repro.util.digest import (
    HASH_SLICE,
    TEMP_SUFFIX,
    atomic_publish_bytes,
    fsync_dir,
)


class FakeCrash(SystemExit):
    """Stands in for os._exit so a test can observe an injected crash."""


@pytest.fixture
def crashing_abort(monkeypatch):
    def abort(code):
        raise FakeCrash(code)

    monkeypatch.setattr(surfaces, "_abort", abort)


def tiny_dataset():
    ds = Dataset()
    ds.create_dimension("tile", None)
    ds.create_variable(
        "radiance", "f4", ("tile",), np.arange(4, dtype=np.float32)
    )
    return ds


class TestAtomicWriteBytes:
    def test_returns_byte_count_and_publishes(self, tmp_path):
        path = str(tmp_path / "artifact.nc")
        assert atomic_publish_bytes(path, b"payload")[0] == 7
        with open(path, "rb") as handle:
            assert handle.read() == b"payload"
        assert not os.path.exists(path + TEMP_SUFFIX)

    def test_stale_part_file_from_a_dead_writer_is_overwritten(self, tmp_path):
        # A previous writer died mid-publication and left a torn temp
        # file under the shared name; the next writer must win cleanly.
        path = str(tmp_path / "artifact.nc")
        with open(path + TEMP_SUFFIX, "wb") as handle:
            handle.write(b"torn half-writ")
        atomic_publish_bytes(path, b"complete")
        with open(path, "rb") as handle:
            assert handle.read() == b"complete"
        assert not os.path.exists(path + TEMP_SUFFIX)

    def test_replaces_previous_content_atomically(self, tmp_path):
        path = str(tmp_path / "artifact.nc")
        atomic_publish_bytes(path, b"old")
        atomic_publish_bytes(path, b"new")
        with open(path, "rb") as handle:
            assert handle.read() == b"new"

    def test_publish_digest_matches_hashlib(self, tmp_path):
        import hashlib

        path = str(tmp_path / "artifact.nc")
        payload = bytes(range(256)) * 100
        nbytes, digest = atomic_publish_bytes(path, payload)
        assert nbytes == len(payload)
        assert digest == hashlib.sha256(payload).hexdigest()
        with open(path, "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == digest

    def test_publish_digest_spans_multiple_hash_slices(self, tmp_path):
        # The digest is folded in HASH_SLICE chunks while the temp file
        # is written; a payload crossing slice boundaries must hash the
        # same as one pass over the whole buffer.
        import hashlib

        path = str(tmp_path / "big.bin")
        payload = os.urandom(HASH_SLICE + 4096)
        nbytes, digest = atomic_publish_bytes(path, payload, durable=False)
        assert nbytes == len(payload)
        assert digest == hashlib.sha256(payload).hexdigest()

    def test_publish_empty_payload(self, tmp_path):
        import hashlib

        path = str(tmp_path / "empty.bin")
        nbytes, digest = atomic_publish_bytes(path, b"")
        assert nbytes == 0
        assert digest == hashlib.sha256(b"").hexdigest()
        assert os.path.getsize(path) == 0

    def test_file_fsync_failure_propagates(self, tmp_path, monkeypatch):
        # If the payload's own fsync fails, durability cannot be
        # promised — the writer must hear about it, not publish anyway.
        def failing_fsync(fd):
            raise OSError("disk on fire")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        path = str(tmp_path / "artifact.nc")
        with pytest.raises(OSError, match="disk on fire"):
            atomic_publish_bytes(path, b"payload")
        assert not os.path.exists(path)          # nothing published

    def test_non_durable_write_skips_fsync(self, tmp_path, monkeypatch):
        def failing_fsync(fd):
            raise OSError("should never be called")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        path = str(tmp_path / "artifact.nc")
        assert atomic_publish_bytes(path, b"payload", durable=False)[0] == 7
        with open(path, "rb") as handle:
            assert handle.read() == b"payload"


class TestFsyncDir:
    def test_directory_fsync_failure_is_swallowed(self, tmp_path, monkeypatch):
        # Directory fsync is best-effort: some filesystems refuse
        # directory fds, and the rename itself already happened.
        def failing_fsync(fd):
            raise OSError("EINVAL")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        fsync_dir(str(tmp_path))                 # must not raise

    def test_unopenable_directory_is_tolerated(self, tmp_path):
        fsync_dir(str(tmp_path / "never-created"))


class TestCrashWindow:
    """The exact window resume must close: temp written, rename pending."""

    def chaos(self):
        return FaultInjector(FaultPlan(seed=0, faults=(
            FaultSpec("preprocess", "crash", rate=1.0, times=1),
        )))

    def test_crash_between_temp_write_and_replace(self, tmp_path, crashing_abort):
        path = str(tmp_path / "tiles.nc")
        with pytest.raises(FakeCrash) as crash:
            chaos_atomic_write(tiny_dataset(), path, chaos=self.chaos())
        assert crash.value.code == CRASH_EXIT_CODE
        # The crash hit after the temp file was fully written but before
        # the rename: the final name must not exist, and the survivor
        # must carry the temp suffix crawlers skip unconditionally.
        assert not os.path.exists(path)
        assert os.path.exists(path + TEMP_SUFFIX)

    def test_rerun_after_crash_publishes_cleanly(self, tmp_path, crashing_abort):
        path = str(tmp_path / "tiles.nc")
        chaos = self.chaos()
        with pytest.raises(FakeCrash):
            chaos_atomic_write(tiny_dataset(), path, chaos=chaos)
        # The restarted worker (same injector: the scheduled crash has
        # fired) redoes the item over the stale temp file.
        chaos_atomic_write(tiny_dataset(), path, chaos=chaos)
        assert os.path.exists(path)
        assert not os.path.exists(path + TEMP_SUFFIX)
        assert read(path)["radiance"].data.shape == (4,)
