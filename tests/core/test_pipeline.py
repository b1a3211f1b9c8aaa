"""Integration tests: the real five-stage workflow on synthetic granules."""

import os
import time

import numpy as np
import pytest

from repro.core import (
    DirectoryCrawler,
    DownloadStage,
    EOMLWorkflow,
    InferenceWorker,
    PreprocessStage,
    ShipmentStage,
    load_config,
)
from repro.modis import MINI_SWATH, LaadsArchive
from repro.netcdf import read as nc_read
from repro.ricc import AICCAModel


def make_config(tmp_path, granules=2, ship=True, poll=0.05):
    return load_config(
        {
            "archive": {
                "start_date": "2022-01-01",
                "max_granules_per_day": granules,
                "seed": 3,
            },
            "paths": {
                "staging": str(tmp_path / "raw"),
                "preprocessed": str(tmp_path / "tiles"),
                "transfer_out": str(tmp_path / "outbox"),
                "destination": str(tmp_path / "orion"),
            },
            "download": {"workers": 3},
            "preprocess": {"workers": 4, "tile_size": 16},
            "inference": {"workers": 1, "poll_interval": poll},
            "shipment": {"enabled": ship},
        }
    )


@pytest.fixture(scope="module")
def mini_archive():
    return LaadsArchive(seed=3, swath=MINI_SWATH)


class TestDownloadStage:
    def test_downloads_all_products(self, tmp_path, mini_archive):
        config = make_config(tmp_path)
        report = DownloadStage(config, archive=mini_archive).run()
        assert report.files == 6  # 2 granules x 3 products
        assert len(report.granule_sets) == 2
        for granule_set in report.granule_sets:
            assert len(granule_set.paths) == 3
            for path in granule_set.paths.values():
                assert os.path.exists(path)
                assert not path.endswith(".part")

    def test_granule_set_family_lookup(self, tmp_path, mini_archive):
        config = make_config(tmp_path)
        report = DownloadStage(config, archive=mini_archive).run()
        gs = report.granule_sets[0]
        assert gs.path_for("021KM").endswith(".nc")
        with pytest.raises(KeyError):
            gs.path_for("99")


class TestPreprocessStage:
    def test_produces_tile_files(self, tmp_path, mini_archive):
        config = make_config(tmp_path)
        download = DownloadStage(config, archive=mini_archive).run()
        report = PreprocessStage(config).run(download.granule_sets)
        assert report.total_tiles > 0
        produced = [r for r in report.results if r.tile_path]
        assert produced
        ds = nc_read(produced[0].tile_path)
        assert ds["radiance"].data.shape[1:] == (16, 16, 6)
        # All stored tiles honour the selection rule.
        assert (ds["cloud_fraction"].data > 0.3).all()
        # Labels start unclassified.
        assert (ds["label"].data == -1).all()


class TestMonitorAndInference:
    def test_crawler_triggers_and_inference_labels(self, tmp_path, mini_archive):
        config = make_config(tmp_path)
        download = DownloadStage(config, archive=mini_archive).run()
        preprocess = PreprocessStage(config).run(download.granule_sets)
        tile_paths = [r.tile_path for r in preprocess.results if r.tile_path]
        tiles = np.concatenate([nc_read(p)["radiance"].data for p in tile_paths]).astype(
            np.float32
        )
        model, _ = AICCAModel.train(
            tiles, num_classes=4, latent_dim=4, hidden=(32,), epochs=3, seed=0
        )
        worker = InferenceWorker(model, config)
        crawler = DirectoryCrawler(config.preprocessed, trigger=worker.submit,
                                   poll_interval=0.05)
        with worker, crawler:
            deadline = time.monotonic() + 30
            while len(worker.results) < len(tile_paths) and time.monotonic() < deadline:
                time.sleep(0.05)
        assert len(worker.results) == len(tile_paths)
        assert not worker.errors
        out = nc_read(worker.results[0].out_path)
        assert (out["label"].data >= 0).all()
        assert int(out.get_attr("aicca_classes")[0]) == 4

    def test_crawler_ignores_partial_and_foreign_files(self, tmp_path):
        directory = tmp_path / "watch"
        directory.mkdir()
        seen = []
        crawler = DirectoryCrawler(str(directory), trigger=seen.append, poll_interval=0.05)
        (directory / "tiles_a.nc.part").write_bytes(b"partial")
        (directory / "random.txt").write_bytes(b"nope")
        (directory / "tiles_a.nc").write_bytes(b"CDF")
        fresh = crawler.scan_once()
        assert fresh == [str(directory / "tiles_a.nc")]
        # Second scan: nothing new.
        assert crawler.scan_once() == []

    def test_crawler_survives_trigger_errors(self, tmp_path):
        directory = tmp_path / "watch"
        directory.mkdir()

        def bad_trigger(path):
            raise RuntimeError("inference endpoint offline")

        crawler = DirectoryCrawler(str(directory), trigger=bad_trigger, poll_interval=0.05)
        (directory / "tiles_a.nc").write_bytes(b"CDF")
        crawler.scan_once()
        assert len(crawler.errors) == 1


class TestEndToEnd:
    def test_full_workflow(self, tmp_path, mini_archive):
        config = make_config(tmp_path)
        workflow = EOMLWorkflow(config, archive=mini_archive)
        report = workflow.run()
        assert report.total_tiles > 0
        assert report.labelled_tiles == report.total_tiles
        assert not report.errors
        # Shipment delivered every labelled file to the destination.
        assert report.shipment is not None
        assert len(report.shipment.moved) == len(report.inference)
        for path in report.shipment.moved:
            assert os.path.exists(path)
            labelled = nc_read(path)
            assert (labelled["label"].data >= 0).all()
        # The timeline recorded all stages in order.
        stages = [b.stage for b in report.breakdown]
        assert stages.index("download") < stages.index("preprocess")
        assert "inference" in stages and "shipment" in stages
        rendered = report.timeline.render()
        assert "workers:download" in rendered
        # Telemetry rollup is consistent with the report.
        snap = report.metrics.snapshot()
        assert snap["eo_ml.tiles"] == report.total_tiles
        assert snap["eo_ml.files{stage=download}"] == report.download.files
        assert snap["eo_ml.files{stage=shipment}"] == len(report.shipment.moved)
        assert snap["eo_ml.stage_seconds.count"] == len(report.breakdown)

    def test_workflow_without_shipment(self, tmp_path, mini_archive):
        config = make_config(tmp_path, ship=False)
        report = EOMLWorkflow(config, archive=mini_archive).run()
        assert report.shipment is None
        assert report.labelled_tiles > 0

    def test_workflow_with_pretrained_model(self, tmp_path, mini_archive):
        config = make_config(tmp_path)
        # Train a model on a different day's tiles first.
        boot = EOMLWorkflow(make_config(tmp_path / "boot"), archive=mini_archive).run()
        model_path = str(tmp_path / "model.npz")
        EOMLWorkflow(make_config(tmp_path / "boot2"), archive=mini_archive)  # unused twin
        # Reuse the bootstrapped model via explicit injection.
        workflow = EOMLWorkflow(config, archive=mini_archive)
        tiles = np.concatenate(
            [nc_read(r.tile_path)["radiance"].data for r in boot.preprocess.results if r.tile_path]
        ).astype(np.float32)
        model, _ = AICCAModel.train(tiles, num_classes=3, latent_dim=4, hidden=(32,), epochs=3)
        model.save(model_path)
        workflow.model = AICCAModel.load(model_path)
        report = workflow.run()
        assert report.labelled_tiles == report.total_tiles


class TestFlowsDrivenInference:
    def test_inference_via_globus_flow(self, tmp_path, mini_archive):
        """Section III stage 3 runs inference *through a Globus Flow*;
        the same flows engine drives the real stage functions here."""
        from repro.flows import FlowsEngine, RunStatus
        from repro.ricc import AICCAModel
        from repro.sim import Simulation

        config = make_config(tmp_path)
        download = DownloadStage(config, archive=mini_archive).run()
        preprocess = PreprocessStage(config).run(download.granule_sets)
        tile_paths = [r.tile_path for r in preprocess.results if r.tile_path]
        tiles = np.concatenate(
            [nc_read(p)["radiance"].data for p in tile_paths]
        ).astype(np.float32)
        model, _ = AICCAModel.train(
            tiles, num_classes=3, latent_dim=4, hidden=(32,), epochs=3, seed=0
        )

        from repro.core.inference import InferenceWorker
        from repro.core.monitor import DirectoryCrawler

        discovered = []
        crawler = DirectoryCrawler(config.preprocessed, trigger=discovered.append)
        crawler.scan_once()
        assert sorted(discovered) == sorted(tile_paths)

        def crawl_action(engine, params):
            return {"paths": sorted(discovered)}

        def infer_action(engine, params):
            outcomes = InferenceWorker(model, config).label(params["paths"])
            return {"labelled": [result.out_path for _, result in outcomes]}

        flow = {
            "StartAt": "Crawl",
            "States": {
                "Crawl": {"Type": "Action", "ActionUrl": "crawler",
                           "ResultPath": "found", "Next": "Infer"},
                "Infer": {"Type": "Action", "ActionUrl": "infer",
                           "Parameters": {"paths": "$.found.paths"},
                           "ResultPath": "out", "Next": "Done"},
                "Done": {"Type": "Succeed"},
            },
        }
        sim = Simulation()
        engine = FlowsEngine(sim, {"crawler": crawl_action, "infer": infer_action})
        run = engine.run(flow)
        sim.run()
        assert run.status is RunStatus.SUCCEEDED
        labelled = run.document["out"]["labelled"]
        assert len(labelled) == len(tile_paths)
        for path in labelled:
            assert (nc_read(path)["label"].data >= 0).all()
