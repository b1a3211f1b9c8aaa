"""The inference micro-batcher against the per-file path.

Cross-file fusion (``batch_files > 1``) submits every announced file
already waiting as one unit, which concatenates their tiles into one
encoder/assign call and scatters the labels back.  These tests drive the
node body, :meth:`InferenceWorker.run`, over a stream channel and pin
the fused path to the per-file path: identical labels, identical output
bytes, identical quarantine behaviour — plus the float32/float64 assign
equivalence the fusion relies on.
"""

import os
import threading

import numpy as np
import pytest

from repro.core.config import load_config
from repro.core.inference import InferenceWorker
from repro.instruments.tiling import extract_tiles, tiles_to_dataset
from repro.netcdf import write as nc_write
from repro.ricc import AICCAModel
from repro.runtime import StreamChannel

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
    """Announce ``paths`` ahead of the body, so each unit batches what waits."""
    tokens = StreamChannel("preprocess->inference")
    tokens.put(("model", ("object", model)))
    for path in paths:
        tokens.put(("tiles", path, None))
    tokens.close()
    handed_off = []
    worker = InferenceWorker(None, config).run(
        tokens, on_result=lambda result: handed_off.append(result.out_path)
    )
    # Every labelled file reached the hand-off by the time run() returned.
    assert handed_off == [result.out_path for result in worker.results]
    return worker


class TestMicroBatchEquivalence:
    def test_fused_labels_match_per_file(self, tmp_path, model, monkeypatch):
        """batch_files=4 and batch_files=1 produce byte-identical output."""
        src_a = tmp_path / "a"
        src_b = tmp_path / "b"
        for directory in (src_a, src_b):
            directory.mkdir()
        names = [f"tiles_g{i}.nc" for i in range(5)]
        for i, name in enumerate(names):
            make_tile_file(str(src_a / name), seed=i)
            make_tile_file(str(src_b / name), seed=i)

        batches = []
        execute = InferenceWorker.execute
        monkeypatch.setattr(
            InferenceWorker, "execute",
            lambda worker, payload: batches.append(len(payload[0])) or execute(worker, payload),
        )
        fused_config = make_config(tmp_path / "fused", batch_files=4)
        serial_config = make_config(tmp_path / "serial", batch_files=1)
        fused = run_worker(model, fused_config, [str(src_a / n) for n in names])
        serial = run_worker(model, serial_config, [str(src_b / n) for n in names])
        assert batches == [4, 1] + [1] * 5  # what waited, up to batch_files
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


class TestDrain:
    def test_on_result_fires_before_drain_observes_settled(self, tmp_path, model):
        # The streaming hand-off contract: the body drains a live stream,
        # and every labelled file has been handed to on_result, published,
        # by the time run() returns — a downstream reader misses nothing.
        tokens = StreamChannel("preprocess->inference")
        config = make_config(tmp_path / "out", batch_files=2)
        sources = []

        def produce():
            tokens.put(("model", ("object", model)))
            for seed in range(3):
                sources.append(make_tile_file(str(tmp_path / f"tiles_s{seed}.nc"), seed))
                tokens.put(("tiles", sources[-1], None))
            tokens.close()

        handed_off = []

        def hand_off(result):
            assert os.path.exists(result.out_path)
            handed_off.append(result.out_path)

        producer = threading.Thread(target=produce)
        producer.start()
        worker = InferenceWorker(None, config).run(tokens, on_result=hand_off)
        producer.join()
        assert not worker.errors
        assert handed_off == [r.out_path for r in worker.results]
        assert sorted(r.src_path for r in worker.results) == sorted(sources)


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
