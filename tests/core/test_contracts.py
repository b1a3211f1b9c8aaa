"""Published file-contract tests."""

import datetime as dt

import numpy as np
import pytest

from repro.core.contracts import (
    ContractViolation,
    GRANULE_MOD02,
    GRANULE_MOD03,
    GRANULE_MOD06,
    LABELLED_TILE_FILE,
    TILE_FILE,
)
from repro.instruments.tiling import extract_tiles, tiles_to_dataset
from repro.modis import MINI_SWATH, GranuleId, generate_granule
from repro.netcdf import Dataset

DATE = dt.date(2022, 1, 1)


def tile_dataset(labelled=False):
    rng = np.random.default_rng(0)
    radiance = rng.normal(size=(1, 48, 48)).astype(np.float32)
    cloud = np.ones((48, 48), dtype=bool)
    land = np.zeros((48, 48), dtype=bool)
    lat = np.zeros((48, 48))
    lon = np.zeros((48, 48))
    tiles = extract_tiles(radiance, cloud, land, lat, lon, tile_size=16)
    if labelled:
        for tile in tiles:
            tile.label = 7
    ds = tiles_to_dataset(tiles, source="g0")
    if labelled:
        ds.set_attr("aicca_classes", 42)
    return ds


class TestGranuleContracts:
    @pytest.mark.parametrize(
        "product,contract",
        [("MOD021KM", GRANULE_MOD02), ("MOD03", GRANULE_MOD03), ("MOD06_L2", GRANULE_MOD06)],
    )
    def test_generated_granules_conform(self, product, contract):
        ds = generate_granule(GranuleId(product, DATE, 5), MINI_SWATH, seed=1)
        contract.validate(ds)  # must not raise

    def test_missing_variable_detected(self):
        ds = generate_granule(GranuleId("MOD03", DATE, 5), MINI_SWATH, seed=1)
        del ds.variables["latitude"]
        with pytest.raises(ContractViolation, match="missing variable 'latitude'"):
            GRANULE_MOD03.validate(ds)

    def test_out_of_range_detected(self):
        ds = generate_granule(GranuleId("MOD03", DATE, 5), MINI_SWATH, seed=1)
        ds["latitude"].data[0, 0] = 444.0
        with pytest.raises(ContractViolation, match="values above"):
            GRANULE_MOD03.validate(ds)

    def test_wrong_dimensions_detected(self):
        ds = Dataset()
        ds.create_dimension("line", 4)
        ds.create_dimension("pixel", 4)
        ds.create_dimension("band", 2)
        ds.create_variable(
            "radiance", "f4", ("line", "pixel", "band"),  # wrong order
            np.zeros((4, 4, 2), dtype=np.float32),
        )
        ds.set_attr("granule", "x")
        ds.set_attr("product", "MOD021KM")
        ds.set_attr("acquisition_date", "2022-01-01")
        ds.set_attr("band_list", np.array([6, 7], dtype=np.int32))
        with pytest.raises(ContractViolation, match="dimensions"):
            GRANULE_MOD02.validate(ds)

    def test_missing_attribute_detected(self):
        ds = generate_granule(GranuleId("MOD021KM", DATE, 5), MINI_SWATH, seed=1)
        del ds.attributes["band_list"]
        with pytest.raises(ContractViolation, match="band_list"):
            GRANULE_MOD02.validate(ds)


class TestTileContracts:
    def test_tile_file_conforms(self):
        TILE_FILE.validate(tile_dataset())

    def test_labelled_contract_rejects_unlabelled(self):
        ds = tile_dataset(labelled=False)
        ds.set_attr("aicca_classes", 42)
        with pytest.raises(ContractViolation, match="below"):
            LABELLED_TILE_FILE.validate(ds)

    def test_labelled_file_conforms(self):
        LABELLED_TILE_FILE.validate(tile_dataset(labelled=True))

    def test_record_dimension_required(self):
        ds = tile_dataset()
        # Rebuild with a fixed 'tile' dimension instead of the record dim.
        fixed = Dataset()
        fixed.create_dimension("tile", ds["radiance"].shape[0])
        for name in ("y", "x", "band"):
            fixed.create_dimension(name, ds.dimensions[name].size)
        for name, var in ds.variables.items():
            fixed.create_variable(name, var.nc_type, var.dim_names, var.data)
        for key, value in ds.attributes.items():
            fixed.attributes[key] = value
        with pytest.raises(ContractViolation, match="record dimension"):
            TILE_FILE.validate(fixed)

    def test_describe_is_readable(self):
        text = TILE_FILE.describe()
        assert "contract tile file:" in text
        assert "variable radiance(tile, y, x, band)" in text
        assert "attribute :source_granule" in text


class TestPipelineIntegration:
    def test_inference_rejects_malformed_tile_file(self, tmp_path):
        """A corrupt tile file is rejected at the stage boundary with a
        contract message, not a numpy stack trace."""
        from repro.core.inference import InferenceWorker
        from repro.netcdf import write as nc_write
        from tests.core.test_inference_batching import make_config

        bad = Dataset()
        bad.create_dimension("tile", None)
        bad.create_dimension("y", 4)
        bad.create_variable("radiance", "f4", ("tile", "y"),
                            np.zeros((2, 4), dtype=np.float32))
        path = str(tmp_path / "tiles_bad.nc")
        nc_write(bad, path)
        worker = InferenceWorker(None, make_config(tmp_path))
        ((tag, error),) = worker.label([(path, None)])
        assert tag == "quarantined"
        with pytest.raises(ContractViolation) as violation:
            TILE_FILE.validate(bad)
        assert error == str(violation.value)
