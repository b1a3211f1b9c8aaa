"""Allocation budget: how many copies of a scene a stage holds at once.

The read path maps files and hands out views, the tiler builds its cube
once and the writers stream, so a stage's peak live heap is a small
multiple of the *one* artifact it produces.  Counted with ``tracemalloc``
over real stage calls on a mini-swath scene — a re-introduced whole-file
copy shows up as a number, not as a fatter benchmark run.
"""

import hashlib
import os
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import DownloadStage, PreprocessStage, load_config
from repro.core.inference import InferenceWorker
from repro.modis import MINI_SWATH, LaadsArchive
from repro.netcdf import from_bytes, read
from repro.util.digest import HASH_SLICE, digest_file, read_chunks


class Peak:
    bytes = 0


@contextmanager
def traced():
    """Peak bytes allocated inside the block, over what was live at entry."""
    peak = Peak()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        yield peak
        peak.bytes = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class ConstantModel:
    """Labels everything 0 and allocates next to nothing, so the budget
    measures the stage's own buffers rather than an encoder's."""

    num_classes = 4

    def assign(self, radiance):
        return np.zeros(radiance.shape[0], dtype=np.int32)


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    root = tmp_path_factory.mktemp("alloc")
    config = load_config(
        {
            "archive": {"start_date": "2022-01-01", "max_granules_per_day": 1, "seed": 3},
            "paths": {
                key: str(root / key)
                for key in ("staging", "preprocessed", "transfer_out", "destination")
            },
            "preprocess": {"tile_size": MINI_SWATH.tile_size},
            "journal": {"enabled": False},
        }
    )
    report = DownloadStage(config, archive=LaadsArchive(seed=3, swath=MINI_SWATH)).run()
    (scene,) = report.granule_sets
    return config, scene


def test_from_bytes_allocates_under_one_percent_of_the_blob(staged):
    _config, scene = staged
    with open(scene.path_for("021KM"), "rb") as handle:
        blob = handle.read()
    with traced() as peak:
        parsed = from_bytes(blob)
    assert peak.bytes < len(blob) // 100
    assert parsed["radiance"].data.size


def test_reading_a_granule_allocates_no_buffer(staged):
    _config, scene = staged
    path = scene.path_for("021KM")
    assert os.path.getsize(path) > 512 * 1024
    with traced() as peak:
        parsed = read(path)
    assert peak.bytes < 64 * 1024
    assert parsed["radiance"].data.size


def test_hashing_a_small_file_allocates_a_buffer_its_size(tmp_path):
    path = tmp_path / "small.bin"
    path.write_bytes(os.urandom(64 * 1024))
    with traced() as peak:
        digest, nbytes = digest_file(str(path))
    # One read buffer the size of the file, not the 4 MiB cap (which
    # cost more to zero-fill than a mini tile file costs to hash).
    assert peak.bytes < 256 * 1024
    assert nbytes == 64 * 1024
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_a_file_over_the_cap_still_reads_in_capped_pieces(tmp_path):
    path = tmp_path / "large.bin"
    path.write_bytes(b"\x5a" * (9 * 1024 * 1024))
    with traced() as peak:
        pieces = [len(chunk) for chunk in read_chunks(str(path))]
    assert pieces == [HASH_SLICE, HASH_SLICE, 1024 * 1024]
    assert peak.bytes < HASH_SLICE + 64 * 1024


def test_an_empty_file_hashes_to_the_empty_digest(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    assert digest_file(str(path)) == (hashlib.sha256(b"").hexdigest(), 0)


def test_preprocess_and_labelling_hold_one_copy_of_the_tile_file(staged):
    config, scene = staged
    stage = PreprocessStage(config)
    os.makedirs(config.preprocessed, exist_ok=True)
    with traced() as peak:
        result = stage.execute(scene)
    tile_bytes = os.path.getsize(result.tile_path)
    assert result.tiles > 8
    # The cube (1x), then either the gathered lat/lon/tau/ctp columns
    # or one record batch (a mini file is a single batch, so 1x again);
    # the parent commit peaked at 5x.
    assert peak.bytes <= 2.5 * tile_bytes, peak.bytes / tile_bytes

    worker = InferenceWorker(ConstantModel(), config)
    with traced() as peak:
        ((_, labelled),) = worker.label([result.tile_path])
    # The native-order radiance the model sees (1x) and one merged
    # buffer of the spliced output (a mini file is a single one, so 1x
    # again); the parent commit held the file five times.
    assert peak.bytes <= 2.5 * tile_bytes, peak.bytes / tile_bytes
    assert os.path.getsize(labelled.out_path) > tile_bytes
