"""The inference micro-batcher against the per-file path.

Cross-file fusion (``batch_files > 1``) concatenates the tiles of every
queued file into one encoder/assign call and scatters the labels back.
These tests pin the fused path to the per-file path: identical labels,
identical output bytes, identical quarantine behaviour — plus the
``drain`` deadline-edge regression and the float32/float64 assign
equivalence the fusion relies on.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.core.config import load_config
from repro.core.inference import InferenceWorker
from repro.instruments.tiling import extract_tiles, tiles_to_dataset
from repro.netcdf import write as nc_write
from repro.ricc import AICCAModel

TILE = 8
BANDS = 6


def make_config(tmp_path, batch_files=1, workers=1):
    return load_config(
        {
            "archive": {"start_date": "2022-01-01", "seed": 3},
            "paths": {
                "staging": str(tmp_path / "raw"),
                "preprocessed": str(tmp_path / "tiles"),
                "transfer_out": str(tmp_path / "outbox"),
                "destination": str(tmp_path / "orion"),
                "quarantine": str(tmp_path / "quarantine"),
            },
            "preprocess": {"tile_size": TILE},
            "inference": {"workers": workers, "batch_files": batch_files},
        }
    )


def make_tile_file(path, seed, lines=32, pixels=32):
    """A contract-satisfying tile NetCDF, like preprocess writes."""
    rng = np.random.default_rng(seed)
    tiles = extract_tiles(
        radiance=rng.normal(size=(BANDS, lines, pixels)).astype(np.float32),
        cloud_mask=rng.uniform(size=(lines, pixels)) < 0.8,
        land_mask=np.zeros((lines, pixels), dtype=bool),
        latitude=rng.uniform(-60, 60, size=(lines, pixels)),
        longitude=rng.uniform(-180, 180, size=(lines, pixels)),
        tile_size=TILE,
        optical_thickness=rng.uniform(0, 30, size=(lines, pixels)),
        cloud_top_pressure=rng.uniform(200, 900, size=(lines, pixels)),
        source=os.path.basename(path),
    )
    assert tiles
    nc_write(tiles_to_dataset(tiles, source=os.path.basename(path)), path)
    return path


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(7)
    train = rng.normal(size=(48, TILE, TILE, BANDS)).astype(np.float32)
    trained, _history = AICCAModel.train(
        train, num_classes=4, latent_dim=6, hidden=(32,), epochs=3, seed=0
    )
    return trained


def run_worker(model, config, paths):
    worker = InferenceWorker(model, config)
    with worker:
        for path in paths:
            worker.submit(path)
        worker.drain(timeout=30.0)
    return worker


class TestMicroBatchEquivalence:
    def test_fused_labels_match_per_file(self, tmp_path, model):
        """batch_files=4 and batch_files=1 produce byte-identical output."""
        src_a = tmp_path / "a"
        src_b = tmp_path / "b"
        for directory in (src_a, src_b):
            directory.mkdir()
        names = [f"tiles_g{i}.nc" for i in range(5)]
        for i, name in enumerate(names):
            make_tile_file(str(src_a / name), seed=i)
            make_tile_file(str(src_b / name), seed=i)

        fused_config = make_config(tmp_path / "fused", batch_files=4)
        serial_config = make_config(tmp_path / "serial", batch_files=1)
        fused = run_worker(model, fused_config, [str(src_a / n) for n in names])
        serial = run_worker(model, serial_config, [str(src_b / n) for n in names])
        assert not fused.errors and not serial.errors
        assert len(fused.results) == len(serial.results) == len(names)

        for name in names:
            with open(os.path.join(fused_config.transfer_out, name), "rb") as handle:
                fused_bytes = handle.read()
            with open(os.path.join(serial_config.transfer_out, name), "rb") as handle:
                serial_bytes = handle.read()
            assert fused_bytes == serial_bytes

    def test_fuses_files_with_different_tile_counts(self, tmp_path, model):
        """Files sharing a tile shape fuse even at different tile counts."""
        small = make_tile_file(str(tmp_path / "tiles_small.nc"), seed=1, lines=16, pixels=16)
        big = make_tile_file(str(tmp_path / "tiles_big.nc"), seed=2, lines=40, pixels=40)
        config = make_config(tmp_path / "out", batch_files=8)
        worker = run_worker(model, config, [small, big])
        assert not worker.errors
        assert len(worker.results) == 2

    def test_corrupt_file_quarantines_alone_in_batch(self, tmp_path, model):
        """One poisoned file in a fused batch must not sink its peers."""
        good = make_tile_file(str(tmp_path / "tiles_good.nc"), seed=5)
        bad = str(tmp_path / "tiles_bad.nc")
        with open(bad, "wb") as handle:
            handle.write(b"CDF\x01 this is not a tile file")
        config = make_config(tmp_path / "out", batch_files=8)
        worker = run_worker(model, config, [good, bad])
        assert len(worker.results) == 1
        assert worker.results[0].src_path == good
        assert [q.key for q in worker.quarantined] == [bad]
        assert os.path.exists(
            os.path.join(config.quarantine, os.path.basename(bad))
        )


class TestAssignDtypes:
    def test_float32_and_float64_assign_identical_labels(self, model):
        rng = np.random.default_rng(13)
        batch32 = rng.normal(size=(64, TILE, TILE, BANDS)).astype(np.float32)
        labels32 = model.assign(batch32)
        labels64 = model.assign(batch32.astype(np.float64))
        np.testing.assert_array_equal(labels32, labels64)

    def test_encode_preserves_float32(self, model):
        rng = np.random.default_rng(13)
        batch = rng.normal(size=(8, TILE, TILE, BANDS)).astype(np.float32)
        assert model.autoencoder.encode(batch).dtype == np.float32
        assert model.autoencoder.encode(batch.astype(np.float64)).dtype == np.float64


class TestDrain:
    def test_drain_zero_timeout_when_settled(self, tmp_path, model):
        """Regression: drain must re-check the counters at the deadline,
        so an already-settled queue never raises on timeout=0."""
        src = make_tile_file(str(tmp_path / "tiles_y.nc"), seed=21)
        config = make_config(tmp_path / "out")
        worker = InferenceWorker(model, config)
        with worker:
            worker.submit(src)
            worker.drain(timeout=30.0)
            # Everything has settled; an exhausted deadline is still fine.
            worker.drain(timeout=0.0)
        worker.drain(timeout=0.0)

    def test_drain_nothing_submitted(self, tmp_path, model):
        worker = InferenceWorker(model, make_config(tmp_path / "out"))
        worker.drain(timeout=0.0)

    def test_on_result_fires_before_drain_observes_settled(self, tmp_path, model):
        # The streaming hand-off contract: every published file has been
        # delivered to the callback by the time drain() returns, so a
        # downstream consumer reading the stream misses nothing.
        src = make_tile_file(str(tmp_path / "tiles_s.nc"), seed=23)
        handed_off = []
        config = make_config(tmp_path / "out")
        worker = InferenceWorker(
            model, config, on_result=lambda r: handed_off.append(r.out_path)
        )
        with worker:
            worker.submit(src)
            worker.drain(timeout=30.0)
            assert handed_off == [r.out_path for r in worker.results]
            assert len(handed_off) == 1

    def test_drain_stray_kwarg_is_a_type_error(self, tmp_path, model):
        # The deprecated poll= compatibility shim is gone: any stray
        # keyword (including poll=) is a genuine caller bug.
        worker = InferenceWorker(model, make_config(tmp_path / "out"))
        with pytest.raises(TypeError, match="unexpected keyword"):
            worker.drain(timeout=0.0, poll=0.01)

    def test_drain_without_poll_warns_nothing(self, tmp_path, model):
        import warnings

        worker = InferenceWorker(model, make_config(tmp_path / "out"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            worker.drain(timeout=0.0)

    def test_drain_raises_when_work_outstanding(self, tmp_path, model):
        worker = InferenceWorker(model, make_config(tmp_path / "out"))
        # Never started: the submission can never settle.
        worker.submit(str(tmp_path / "tiles_never.nc"))
        with pytest.raises(TimeoutError):
            worker.drain(timeout=0.05)

    def test_drain_blocks_without_busy_poll(self, tmp_path, model):
        """drain() returns promptly once a slow submission settles."""
        src = make_tile_file(str(tmp_path / "tiles_z.nc"), seed=22)
        config = make_config(tmp_path / "out")
        worker = InferenceWorker(model, config)
        with worker:
            def late_submit():
                time.sleep(0.15)
                worker.submit(src)

            thread = threading.Thread(target=late_submit)
            worker.submit(src)  # ensure drain has something pending
            thread.start()
            worker.drain(timeout=30.0)
            thread.join()
            worker.drain(timeout=5.0)
        assert len(worker.results) == 2
