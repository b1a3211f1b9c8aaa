"""Second cross-cutting edge-case batch."""

import datetime as dt

import numpy as np
import pytest

from repro.util.config import ConfigError, Field, Schema, string


class TestConfigSchema:
    def test_duplicate_fields_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Schema("s", [Field("a", string), Field("a", string)])

    def test_allow_extra(self):
        schema = Schema("s", [Field("a", string, required=False, default="x")],
                        allow_extra=True)
        assert schema.validate({"a": "y", "mystery": 1})["a"] == "y"

    def test_unknown_keys_listed(self):
        schema = Schema("s", [Field("a", string, required=False)])
        with pytest.raises(ConfigError, match="mystery"):
            schema.validate({"mystery": 1})

    def test_choices(self):
        schema = Schema("s", [Field("mode", string, choices=("fast", "slow"))])
        assert schema.validate({"mode": "fast"})["mode"] == "fast"
        with pytest.raises(ConfigError, match="one of"):
            schema.validate({"mode": "medium"})

    def test_error_path_includes_field(self):
        schema = Schema("s", [Field("count", string)])
        with pytest.raises(ConfigError) as info:
            schema.validate({"count": 5})
        assert "s.count" in str(info.value)


class TestFlowsRunIsolation:
    def test_input_document_not_mutated(self):
        from repro.flows import FlowsEngine
        from repro.sim import Simulation

        sim = Simulation()
        engine = FlowsEngine(sim, {"touch": lambda e, p: "result"}, action_latency=0.0)
        source = {"key": "original"}
        run = engine.run(
            {
                "StartAt": "T",
                "States": {
                    "T": {"Type": "Action", "ActionUrl": "touch",
                           "ResultPath": "out", "Next": "Done"},
                    "Done": {"Type": "Succeed"},
                },
            },
            input_document=source,
        )
        sim.run()
        assert source == {"key": "original"}  # caller's dict untouched
        assert run.document["out"] == "result"


class TestNetcdfRepr:
    def test_variable_repr_and_describe(self):
        from repro.netcdf import Dataset

        ds = Dataset()
        ds.create_dimension("t", None)
        var = ds.create_variable("v", "f4", ("t",), np.zeros(2, dtype=np.float32),
                                 attributes={"units": "1"})
        assert "FLOAT" in repr(var)
        assert "v" in ds.describe()
        assert "v" in ds
        assert ds["v"] is var
        assert var[0] == 0.0


class TestArchiveBands:
    def test_fetch_band_subset(self):
        from repro.modis import LaadsArchive

        archive = LaadsArchive(seed=1)
        ref = archive.query("MOD02", dt.date(2022, 1, 1), max_per_day=1)[0]
        ds = archive.fetch(ref, bands=[6, 31])
        assert ds["radiance"].data.shape[0] == 2
        np.testing.assert_array_equal(np.asarray(ds.get_attr("band_list")), [6, 31])


class TestGeolocationWidth:
    def test_cross_track_extent_near_2330km(self):
        """The swath's cross-track great-circle width matches the MODIS
        instrument's ~2330 km."""
        from repro.modis import MINI_SWATH, granule_geolocation

        lat, lon = granule_geolocation(40, MINI_SWATH)
        line = MINI_SWATH.lines // 2
        lat1, lon1 = np.deg2rad(lat[line, 0]), np.deg2rad(lon[line, 0])
        lat2, lon2 = np.deg2rad(lat[line, -1]), np.deg2rad(lon[line, -1])
        central = np.arccos(
            np.clip(
                np.sin(lat1) * np.sin(lat2)
                + np.cos(lat1) * np.cos(lat2) * np.cos(lon2 - lon1),
                -1, 1,
            )
        )
        width_km = 6371.0 * central
        assert width_km == pytest.approx(2330.0, rel=0.05)


class TestTransferAccounting:
    def test_duration_before_finish_raises(self):
        from repro.sim import Simulation
        from repro.transfer.task import TransferItem, TransferTask

        sim = Simulation()
        task = TransferTask(
            task_id=1, label="t", src_endpoint="a", dst_endpoint="b",
            items=[TransferItem("x", "y")], submitted_at=0.0, done=sim.event(),
        )
        with pytest.raises(ValueError):
            task.duration

    def test_total_bytes(self):
        from repro.sim import Simulation
        from repro.transfer.task import TransferItem, TransferTask

        sim = Simulation()
        task = TransferTask(
            task_id=1, label="t", src_endpoint="a", dst_endpoint="b",
            items=[TransferItem("x", "y", nbytes=100), TransferItem("p", "q", nbytes=50)],
            submitted_at=0.0, done=sim.event(),
        )
        assert task.total_bytes == 150


class TestHistogramEdges:
    def test_mean_of_empty_raises(self):
        from repro.server.metrics import Histogram

        with pytest.raises(ValueError):
            Histogram("x").mean
        with pytest.raises(ValueError):
            Histogram("x").quantile(0.5)
