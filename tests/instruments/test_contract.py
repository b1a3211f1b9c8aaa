"""The Instrument contract, enforced over every registered source.

Parametrizing over ``available_instruments()`` is the point: a new
registration is automatically held to the same promises the built-ins
make — coherent cadence metadata, round-tripping product names, a
deterministic archive, and granule files the instrument's own
``load_scene`` can decode into tiling-ready arrays.
"""

import datetime as dt
import os

import numpy as np
import pytest

from repro.core.download import GranuleSet
from repro.instruments.tiling import extract_tiles
from repro.instruments import available_instruments, get_instrument
from repro.netcdf import to_bytes, write as nc_write

DATE = dt.date(2022, 1, 1)
MINUTES_PER_DAY = 24 * 60


@pytest.fixture(params=available_instruments())
def instrument(request):
    return get_instrument(request.param)


class TestStaticContract:
    def test_registered_under_its_own_name(self, instrument):
        assert get_instrument(instrument.name) is instrument

    def test_identity_fields_are_nonempty_strings(self, instrument):
        for attr in ("name", "title", "archive_host"):
            value = getattr(instrument, attr)
            assert isinstance(value, str) and value

    def test_cadence_covers_the_day_exactly(self, instrument):
        assert instrument.cadence_minutes > 0
        assert (
            instrument.cadence_minutes * instrument.granules_per_day
            == MINUTES_PER_DAY
        )

    def test_default_products_resolve_round_trip(self, instrument):
        assert instrument.default_products
        for product in instrument.default_products:
            assert instrument.resolve_product(product) == product

    def test_unknown_product_raises_keyerror(self, instrument):
        with pytest.raises(KeyError):
            instrument.resolve_product("NOT-A-PRODUCT")

    def test_default_tile_size_positive(self, instrument):
        assert instrument.default_tile_size > 0


class TestArchiveContract:
    def test_catalog_is_seed_deterministic(self, instrument):
        a = instrument.build_archive(seed=7)
        b = instrument.build_archive(seed=7)
        product = instrument.default_products[0]
        refs_a = a.query(product, DATE, max_per_day=4)
        refs_b = b.query(product, DATE, max_per_day=4)
        assert [(r.filename, r.nbytes) for r in refs_a] == [
            (r.filename, r.nbytes) for r in refs_b
        ]

    def test_fetch_is_seed_deterministic(self, instrument):
        product = instrument.default_products[0]
        ref = instrument.build_archive(seed=7).query(product, DATE, max_per_day=1)[0]
        one = to_bytes(instrument.build_archive(seed=7).fetch(ref))
        two = to_bytes(instrument.build_archive(seed=7).fetch(ref))
        assert one == two

    def test_query_respects_max_per_day(self, instrument):
        archive = instrument.build_archive(seed=0)
        product = instrument.default_products[0]
        assert len(archive.query(product, DATE, max_per_day=3)) == 3
        full = archive.query(product, DATE)
        assert len(full) == instrument.granules_per_day

    def test_refs_carry_unique_filenames_and_sizes(self, instrument):
        archive = instrument.build_archive(seed=0)
        product = instrument.default_products[0]
        refs = archive.query(product, DATE, max_per_day=5)
        names = [ref.filename for ref in refs]
        assert len(set(names)) == len(names)
        assert all(ref.nbytes > 0 for ref in refs)


class TestSceneContract:
    def test_fetch_write_load_scene_tile(self, tmp_path, instrument):
        """The full stage-1/stage-2 hand-off: fetch every product of one
        scene, land the files, decode with load_scene, and cut tiles on
        the instrument's native grid."""
        archive = instrument.build_archive(seed=11)
        paths = {}
        for product in instrument.default_products:
            ref = archive.query(product, DATE, max_per_day=1)[0]
            path = os.path.join(str(tmp_path), ref.filename + ".nc")
            nc_write(archive.fetch(ref), path)
            paths[product] = path
        scene = instrument.load_scene(GranuleSet(key="contract", paths=paths))

        assert scene.radiance.ndim == 3
        lines, pixels = scene.radiance.shape[1:]
        for name in ("cloud_mask", "land_mask", "latitude", "longitude"):
            assert getattr(scene, name).shape == (lines, pixels), name
        assert scene.cloud_mask.dtype == np.bool_
        assert scene.land_mask.dtype == np.bool_

        tiles = extract_tiles(
            radiance=scene.radiance,
            cloud_mask=scene.cloud_mask,
            land_mask=scene.land_mask,
            latitude=scene.latitude,
            longitude=scene.longitude,
            tile_size=instrument.default_tile_size,
            optical_thickness=scene.optical_thickness,
            cloud_top_pressure=scene.cloud_top_pressure,
        )
        assert tiles, "synthetic scene yielded no ocean-cloud tiles"
        for tile in tiles:
            assert tile.data.shape[:2] == (
                instrument.default_tile_size,
                instrument.default_tile_size,
            )
            assert tile.cloud_fraction > 0.0
