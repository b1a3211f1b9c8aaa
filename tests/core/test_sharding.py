"""Tokenization + sharding tests (the distributed-training consumer)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sharding import (
    Shard,
    TileIndex,
    assign_to_ranks,
    plan_shards,
    tokenize,
    write_shards,
)
from repro.instruments.tiling import Tile, tiles_to_dataset
from repro.netcdf import read as nc_read, write as nc_write


def make_tile_file(path, n, label_of, size=8, bands=2, seed=0):
    rng = np.random.default_rng(seed)
    tiles = []
    for index in range(n):
        tiles.append(
            Tile(
                data=rng.normal(size=(size, size, bands)).astype(np.float32),
                row=index, col=0, latitude=0.0, longitude=0.0,
                cloud_fraction=0.5, mean_optical_thickness=1.0,
                mean_cloud_top_pressure=800.0, label=label_of(index),
            )
        )
    nc_write(tiles_to_dataset(tiles), path)
    return path


class TestTokenize:
    def test_shapes(self):
        tiles = np.arange(2 * 8 * 8 * 3, dtype=np.float32).reshape(2, 8, 8, 3)
        tokens = tokenize(tiles, patch_size=4)
        assert tokens.shape == (2, 4, 4 * 4 * 3)

    def test_patch_content_exact(self):
        tiles = np.arange(1 * 4 * 4 * 1, dtype=np.float32).reshape(1, 4, 4, 1)
        tokens = tokenize(tiles, patch_size=2)
        # First patch = the top-left 2x2 block in row-major order.
        np.testing.assert_array_equal(tokens[0, 0], [0, 1, 4, 5])
        np.testing.assert_array_equal(tokens[0, 1], [2, 3, 6, 7])
        np.testing.assert_array_equal(tokens[0, 2], [8, 9, 12, 13])

    def test_roundtrip_pixel_count(self):
        tiles = np.random.default_rng(0).normal(size=(3, 16, 16, 6)).astype(np.float32)
        tokens = tokenize(tiles, patch_size=8)
        assert tokens.size == tiles.size

    def test_validation(self):
        with pytest.raises(ValueError):
            tokenize(np.zeros((2, 8, 8)), 4)  # missing channel axis
        with pytest.raises(ValueError):
            tokenize(np.zeros((2, 8, 8, 1)), 3)  # 3 does not divide 8


class TestPlanShards:
    def test_shard_sizes(self, tmp_path):
        path = make_tile_file(str(tmp_path / "t.nc"), 10, lambda i: i % 2)
        shards = plan_shards([path], shard_size=4)
        assert [s.size for s in shards] == [4, 4, 2]
        assert [s.shard_id for s in shards] == [0, 1, 2]

    def test_class_interleave_balances_labels(self, tmp_path):
        # 24 tiles, 3 classes in blocks: without interleave shards would be
        # class-pure; with it each shard gets ~balanced classes.
        path = make_tile_file(str(tmp_path / "t.nc"), 24, lambda i: i // 8)
        shards = plan_shards([path], shard_size=6, class_interleave=True)
        for shard in shards:
            histogram = shard.class_histogram
            assert len(histogram) == 3
            assert max(histogram.values()) - min(histogram.values()) <= 1

    def test_no_interleave_shuffles(self, tmp_path):
        path = make_tile_file(str(tmp_path / "t.nc"), 24, lambda i: i // 8)
        a = plan_shards([path], shard_size=6, class_interleave=False, seed=1)
        b = plan_shards([path], shard_size=6, class_interleave=False, seed=2)
        assert [t.index for t in a[0].tiles] != [t.index for t in b[0].tiles]

    def test_multiple_files(self, tmp_path):
        paths = [
            make_tile_file(str(tmp_path / f"t{i}.nc"), 5, lambda j: 0, seed=i)
            for i in range(3)
        ]
        shards = plan_shards(paths, shard_size=7)
        assert sum(s.size for s in shards) == 15

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            plan_shards([], shard_size=0)
        with pytest.raises(ValueError):
            plan_shards([], shard_size=4)


class TestWriteShards:
    def test_materializes_and_roundtrips(self, tmp_path):
        path = make_tile_file(str(tmp_path / "t.nc"), 9, lambda i: i % 3, seed=5)
        shards = plan_shards([path], shard_size=4, seed=5)
        out = write_shards(shards, str(tmp_path / "shards"))
        assert len(out) == 3
        source = nc_read(path)["radiance"].data
        first = nc_read(out[0])
        assert first["radiance"].data.shape[0] == 4
        # Every shard tile matches its source tile bit-for-bit.
        for tile_ref, stored in zip(shards[0].tiles, first["radiance"].data):
            np.testing.assert_array_equal(stored, source[tile_ref.index])
        labels = first["label"].data
        np.testing.assert_array_equal(labels, [t.label for t in shards[0].tiles])


class TestAssignToRanks:
    def test_balanced_equal_shards(self):
        shards = [Shard(shard_id=i, tiles=[_dummy_tile()] * 10) for i in range(8)]
        assignment = assign_to_ranks(shards, world_size=4)
        sizes = [sum(10 for _ in ranks) for ranks in assignment]
        assert sizes == [20, 20, 20, 20]
        assert sorted(s for ranks in assignment for s in ranks) == list(range(8))

    def test_lpt_bound_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            shards = [
                Shard(shard_id=i, tiles=[_dummy_tile()] * int(rng.integers(1, 50)))
                for i in range(int(rng.integers(2, 30)))
            ]
            world = int(rng.integers(1, 8))
            assignment = assign_to_ranks(shards, world)
            by_id = {s.shard_id: s.size for s in shards}
            loads = [sum(by_id[s] for s in ranks) for ranks in assignment]
            total = sum(by_id.values())
            optimal_lb = max(total / world, max(by_id.values()))
            assert max(loads) <= 4 / 3 * optimal_lb + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            assign_to_ranks([], 0)


def _dummy_tile():
    return TileIndex(path="x", index=0, label=0)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    shard_size=st.integers(min_value=1, max_value=20),
    classes=st.integers(min_value=1, max_value=5),
)
def test_plan_covers_every_tile_exactly_once_property(tmp_path_factory, n, shard_size, classes):
    tmp = tmp_path_factory.mktemp("shards")
    path = make_tile_file(str(tmp / "t.nc"), n, lambda i: i % classes)
    shards = plan_shards([path], shard_size=shard_size)
    seen = [(t.path, t.index) for s in shards for t in s.tiles]
    assert len(seen) == n
    assert len(set(seen)) == n
    assert all(s.size <= shard_size for s in shards)
