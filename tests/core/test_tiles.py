"""Tile extraction and selection tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.instruments.tiling import extract_tiles, tiles_to_dataset
from repro.netcdf import from_bytes, to_bytes


def make_swath(lines=64, pixels=48, bands=2):
    """A controlled swath: left half ocean, right half land; top half cloudy."""
    radiance = np.ones((bands, lines, pixels), dtype=np.float32)
    cloud = np.zeros((lines, pixels), dtype=bool)
    cloud[: lines // 2, :] = True
    land = np.zeros((lines, pixels), dtype=bool)
    land[:, pixels // 2 :] = True
    lat = np.linspace(10, 20, lines)[:, None] * np.ones((1, pixels))
    lon = np.linspace(-60, -50, pixels)[None, :] * np.ones((lines, 1))
    return radiance, cloud, land, lat, lon


class TestExtraction:
    def test_selects_only_cloudy_ocean(self):
        radiance, cloud, land, lat, lon = make_swath()
        tiles = extract_tiles(radiance, cloud, land, lat, lon, tile_size=16)
        # Grid: 4 rows x 3 cols; land occupies cols >= 24 (cols 1.5-2.9) ->
        # only col 0 is land-free; cloud covers rows 0-31 -> rows 0, 1.
        assert len(tiles) == 2
        for tile in tiles:
            assert tile.col == 0
            assert tile.row in (0, 1)
            assert tile.cloud_fraction == pytest.approx(1.0)
            assert tile.data.shape == (16, 16, 2)

    def test_threshold_boundary_is_strict(self):
        """Selection needs cloud fraction strictly above the threshold."""
        radiance, cloud, land, lat, lon = make_swath()
        land[:] = False
        cloud[:] = False
        cloud[:, :] = False
        # Tile (0,0): exactly 30% cloud pixels.
        cloud[:16, :16] = False
        n_cloudy = int(0.3 * 256)
        flat = np.zeros(256, dtype=bool)
        flat[:n_cloudy] = True
        cloud[:16, :16] = flat.reshape(16, 16)
        tiles = extract_tiles(radiance, cloud, land, lat, lon, tile_size=16,
                              cloud_threshold=0.3)
        assert all(not (t.row == 0 and t.col == 0) for t in tiles)

    def test_partial_edge_tiles_discarded(self):
        radiance, cloud, land, lat, lon = make_swath(lines=70, pixels=50)
        land[:] = False
        cloud[:] = True
        tiles = extract_tiles(radiance, cloud, land, lat, lon, tile_size=16)
        # 70//16=4 rows, 50//16=3 cols.
        assert len(tiles) == 12

    def test_land_tolerance(self):
        radiance, cloud, land, lat, lon = make_swath()
        cloud[:] = True
        # A sliver of land in an otherwise ocean tile.
        land[:] = False
        land[0, 0] = True
        strict = extract_tiles(radiance, cloud, land, lat, lon, tile_size=16)
        loose = extract_tiles(
            radiance, cloud, land, lat, lon, tile_size=16, max_land_fraction=0.05
        )
        assert len(loose) == len(strict) + 1

    def test_metadata_from_mod06(self):
        radiance, cloud, land, lat, lon = make_swath()
        land[:] = False
        tau = np.where(cloud, 12.0, 0.0)
        ctp = np.where(cloud, 700.0, 1013.25)
        tiles = extract_tiles(
            radiance, cloud, land, lat, lon, tile_size=16,
            optical_thickness=tau, cloud_top_pressure=ctp,
        )
        assert tiles
        for tile in tiles:
            assert tile.mean_optical_thickness == pytest.approx(12.0)
            assert tile.mean_cloud_top_pressure == pytest.approx(700.0)

    def test_tile_geolocation_is_center_mean(self):
        radiance, cloud, land, lat, lon = make_swath()
        land[:] = False
        cloud[:] = True
        tiles = extract_tiles(radiance, cloud, land, lat, lon, tile_size=16)
        first = next(t for t in tiles if t.row == 0 and t.col == 0)
        assert first.latitude == pytest.approx(lat[:16, :16].mean())
        assert first.longitude == pytest.approx(lon[:16, :16].mean())

    def test_validation(self):
        radiance, cloud, land, lat, lon = make_swath()
        with pytest.raises(ValueError):
            extract_tiles(radiance[0], cloud, land, lat, lon, tile_size=16)
        with pytest.raises(ValueError):
            extract_tiles(radiance, cloud[:10], land, lat, lon, tile_size=16)
        with pytest.raises(ValueError):
            extract_tiles(radiance, cloud, land, lat, lon, tile_size=1)
        with pytest.raises(ValueError):
            extract_tiles(radiance, cloud, land, lat, lon, tile_size=16, cloud_threshold=2.0)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        threshold=st.floats(min_value=0.0, max_value=0.9),
    )
    def test_selection_invariants_property(self, seed, threshold):
        """Every selected tile satisfies the selection predicate exactly."""
        rng = np.random.default_rng(seed)
        lines = pixels = 48
        radiance = rng.normal(size=(1, lines, pixels)).astype(np.float32)
        cloud = rng.uniform(size=(lines, pixels)) < 0.5
        land = rng.uniform(size=(lines, pixels)) < 0.2
        lat = np.zeros((lines, pixels))
        lon = np.zeros((lines, pixels))
        tiles = extract_tiles(
            radiance, cloud, land, lat, lon, tile_size=16, cloud_threshold=threshold
        )
        land_view = land.reshape(3, 16, 3, 16).swapaxes(1, 2)
        cloud_view = cloud.reshape(3, 16, 3, 16).swapaxes(1, 2)
        selected = {(t.row, t.col) for t in tiles}
        for row in range(3):
            for col in range(3):
                lf = land_view[row, col].mean()
                cf = cloud_view[row, col].mean()
                expected = lf == 0.0 and cf > threshold
                assert ((row, col) in selected) == expected


class TestTileDataset:
    def test_roundtrip_through_netcdf(self):
        radiance, cloud, land, lat, lon = make_swath()
        land[:] = False
        tiles = extract_tiles(radiance, cloud, land, lat, lon, tile_size=16, source="g0")
        ds = tiles_to_dataset(tiles, source="g0")
        clone = from_bytes(to_bytes(ds))
        np.testing.assert_allclose(
            clone["radiance"].data, np.stack([t.data for t in tiles]), rtol=1e-6
        )
        assert clone["tile_row"].data.tolist() == [t.row for t in tiles]
        assert set(clone["label"].data.tolist()) == {-1}  # unclassified placeholder

    def test_labels_roundtrip(self):
        radiance, cloud, land, lat, lon = make_swath()
        land[:] = False
        tiles = extract_tiles(radiance, cloud, land, lat, lon, tile_size=16)
        for index, tile in enumerate(tiles):
            tile.label = index % 42
        ds = tiles_to_dataset(tiles)
        clone = from_bytes(to_bytes(ds))
        assert clone["label"].data.tolist() == [t.label for t in tiles]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tiles_to_dataset([])
