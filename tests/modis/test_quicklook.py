"""Quicklook rendering tests (Fig. 1 imagery path)."""

import datetime as dt

import numpy as np
import pytest

from repro.modis import MINI_SWATH, AICCA_BANDS, GranuleId, generate_granule
from repro.modis.quicklook import (
    class_map,
    class_palette,
    swath_composite,
    write_ppm,
)


class TestWriters:
    def test_ppm_format(self, tmp_path):
        rgb = np.zeros((4, 6, 3), dtype=np.uint8)
        rgb[0, 0] = (255, 0, 0)
        path = str(tmp_path / "x.ppm")
        nbytes = write_ppm(path, rgb)
        raw = open(path, "rb").read()
        assert raw.startswith(b"P6\n6 4\n255\n")
        assert len(raw) == nbytes
        assert raw.endswith(bytes(4 * 6 * 3 - 3) )  # all but first pixel zero
        with pytest.raises(ValueError):
            write_ppm(path, np.zeros((4, 6)))


class TestPalette:
    def test_shape_and_distinctness(self):
        palette = class_palette(42)
        assert palette.shape == (42, 3)
        assert palette.dtype == np.uint8
        # All 42 colours distinct.
        assert len({tuple(c) for c in palette}) == 42

    def test_validation(self):
        with pytest.raises(ValueError):
            class_palette(0)


class TestComposite:
    def test_from_generated_granule(self):
        ds02 = generate_granule(GranuleId("MOD021KM", dt.date(2022, 1, 1), 7),
                                MINI_SWATH, seed=1)
        ds06 = generate_granule(GranuleId("MOD06_L2", dt.date(2022, 1, 1), 7),
                                MINI_SWATH, seed=1)
        rgb = swath_composite(
            ds02["radiance"].data,
            list(np.asarray(ds02.get_attr("band_list"))),
            land_mask=ds06["land_mask"].data.astype(bool),
        )
        assert rgb.shape == (MINI_SWATH.lines, MINI_SWATH.pixels, 3)
        assert rgb.dtype == np.uint8
        # Cloudy pixels are brighter than clear-ocean pixels.
        cloud = ds06["cloud_mask"].data.astype(bool)
        land = ds06["land_mask"].data.astype(bool)
        clear_ocean = ~cloud & ~land
        if cloud.any() and clear_ocean.any():
            assert rgb[cloud].mean() > rgb[clear_ocean].mean()

    def test_band_validation(self):
        with pytest.raises(ValueError):
            swath_composite(np.zeros((2, 8, 8)), [6, 7, 31])
        with pytest.raises(KeyError):
            swath_composite(np.zeros((2, 8, 8)), [1, 2])


class TestClassMap:
    def test_tiles_coloured(self):
        rgb = class_map((64, 48), 16, {(0, 0): 3, (1, 2): 7}, num_classes=8)
        assert rgb.shape == (64, 48, 3)
        palette = class_palette(8)
        # Interior pixel of tile (0,0) carries class 3's colour.
        np.testing.assert_array_equal(rgb[8, 8], palette[3])
        np.testing.assert_array_equal(rgb[16 + 8, 32 + 8], palette[7])
        # Unclassified area stays background.
        assert (rgb[40, 40] == 25).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            class_map((32, 32), 16, {(2, 0): 1})  # out of raster
        with pytest.raises(ValueError):
            class_map((32, 32), 16, {(0, 0): 99}, num_classes=8)
