"""Pickle round-trip contracts for everything that crosses a process.

The scale-out tier ships work between processes by pickling: the
:class:`WorkEnvelope` / :class:`EnvelopeResult` wire types, the
:class:`WorkerSpec` payload a worker rebuilds its world from, and each
stage's own payload types (granule refs, granule sets, preprocess and
inference results, quarantine records).  Anything here that stops
round-tripping — a closure-captured field, an open file handle, a lock —
breaks multi-process execution at runtime, so the contract is pinned as
a test: ``pickle.loads(pickle.dumps(x))`` must reproduce the value.

:class:`WorkUnit` itself is deliberately *not* on the wire: its ``body``
is a closure over live stage state.  The envelope carries the work
*description* and the worker rebuilds the unit locally — that boundary
is the design, and the test documents it.
"""

from __future__ import annotations

import datetime as dt
import pickle
from concurrent.futures import Future

import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.core.config import load_config
from repro.core.context import RunContext
from repro.core.download import DownloadStage, GranuleSet
from repro.core.inference import InferenceResult, InferenceWorker
from repro.core.preprocess import PreprocessResult, PreprocessStage, QuarantineRecord
from repro.core.scaleout import StageWorker, worker_payload
from repro.instruments import get_model
from repro.modis import LaadsArchive, MINI_SWATH
from repro.netcdf import read as nc_read
from repro.runtime import UnitResult
from repro.runtime.proc import EnvelopeResult, WorkEnvelope, WorkerSpec


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


RAW_CONFIG = {
    "archive": {"start_date": "2022-01-01", "max_granules_per_day": 2, "seed": 3},
    "paths": {
        "staging": "/tmp/x/raw",
        "preprocessed": "/tmp/x/tiles",
        "transfer_out": "/tmp/x/outbox",
        "destination": "/tmp/x/orion",
        "quarantine": "/tmp/x/quarantine",
    },
}


class TestWireTypes:
    def test_work_envelope(self):
        env = WorkEnvelope("download", "MOD02.A2022001.0000.hdf", {"n": 1}, ticket=7)
        assert roundtrip(env) == env

    def test_envelope_result(self):
        res = EnvelopeResult(
            ticket=3, kind="preprocess", key="scene", ok=False, value=None,
            error="boom", seconds=0.25, worker_id=1, pid=4242,
            counters={"resumed_items": 2.0},
        )
        assert roundtrip(res) == res

    def test_worker_spec_with_stage_payload(self):
        config = load_config(RAW_CONFIG)
        spec = WorkerSpec(
            target="repro.core.scaleout:build_stage_worker",
            payload=worker_payload(config, LaadsArchive(seed=3, swath=MINI_SWATH)),
        )
        clone = roundtrip(spec)
        assert clone.target == spec.target
        assert clone.payload["raw"] == spec.payload["raw"]
        # The rebuilt config must resolve identically on the far side.
        assert load_config(clone.payload["raw"]) == config

    def test_chaos_plan_rides_the_payload(self):
        plan = FaultPlan(
            seed=0, faults=(FaultSpec(stage="download", kind="crash"),)
        )
        assert roundtrip(plan) == plan


class TestUnitResult:
    def test_roundtrip(self):
        res = UnitResult(
            outcome="done", value=("a", 3), artifact="/tmp/t.nc",
            payload={"tiles": 3, "sha256": "ab" * 32}, attempts=2, seconds=1.5,
        )
        clone = roundtrip(res)
        assert clone == res
        assert clone.ok


class TestStagePayloads:
    def test_granule_ref(self):
        archive = LaadsArchive(seed=3, swath=MINI_SWATH)
        ref = archive.query("MOD02", dt.date(2022, 1, 1), max_per_day=1)[0]
        clone = roundtrip(ref)
        assert clone == ref
        assert clone.filename == ref.filename

    def test_granule_set(self):
        gs = GranuleSet(
            key="scene_terra_2022-01-01_000",
            paths={"MOD02": "/tmp/a.nc", "MOD03": "/tmp/b.nc"},
            digests={"MOD02": "ab" * 32},
        )
        assert roundtrip(gs) == gs

    def test_preprocess_result(self):
        res = PreprocessResult(key="scene", tile_path="/tmp/t.nc", tiles=9, seconds=0.5)
        assert roundtrip(res) == res

    def test_quarantine_record(self):
        rec = QuarantineRecord(key="scene", error="corrupt granule")
        assert roundtrip(rec) == rec

    def test_inference_result(self):
        res = InferenceResult(
            src_path="/tmp/t.nc", out_path="/tmp/out.nc", tiles=9,
            classes_seen=4, seconds=0.1,
        )
        assert roundtrip(res) == res

    def test_download_result_tuple(self):
        # DownloadStage.execute's settle tuple: (ref, path, nbytes, seconds,
        # outcome, attempts, error, sha256) — all picklable leaves.
        archive = LaadsArchive(seed=3, swath=MINI_SWATH)
        ref = archive.query("MOD02", dt.date(2022, 1, 1), max_per_day=1)[0]
        result = (ref, "/tmp/f.nc", 123, 0.5, "done", 1, None, "ab" * 32)
        assert roundtrip(result) == result


class LoopbackPool:
    """Stands in for the process pool behind ``ctx.submit``: every
    envelope and every result crosses a pickle boundary, and a
    :class:`StageWorker` in this process executes it."""

    def __init__(self, worker):
        self.worker = worker
        self.shipped = []

    def submit(self, envelope):
        future = Future()
        wire = roundtrip(envelope)
        self.shipped.append(wire)
        try:
            future.set_result(roundtrip(self.worker(wire)))
        except Exception as exc:  # noqa: BLE001 - what a pool future carries
            future.set_exception(exc)
        return future


class TestSubmittedPayloads:
    def test_everything_ctx_submit_ships_survives_the_wire(self, tmp_path):
        """Drive each submitting stage under a context whose pool pickles:
        whatever a stage hands ``ctx.submit`` (and gets back) must
        round-trip, or multi-process execution breaks at runtime."""
        raw = dict(RAW_CONFIG, paths={
            name: str(tmp_path / name) for name in RAW_CONFIG["paths"]
        })
        raw["archive"] = dict(RAW_CONFIG["archive"], max_granules_per_day=1)
        config = load_config(raw)
        archive = LaadsArchive(seed=3, swath=MINI_SWATH)
        ctx = RunContext()
        ctx.pool = LoopbackPool(StageWorker(worker_payload(config, archive)))

        download = DownloadStage(config, ctx, archive=archive).run()
        assert download.files == len(config.products) and not download.failed
        preprocess = PreprocessStage(config, ctx).run(download.granule_sets)
        tile_paths = [r.tile_path for r in preprocess.results if r.tile_path]
        assert tile_paths and not preprocess.quarantined
        # No journal and no model_path: nothing persists the model, so
        # the object itself must ride (and survive) the envelope.
        model = get_model(config.model_name).bootstrap(
            nc_read(tile_paths[0])["radiance"].data, num_classes=2, seed=config.seed
        )
        worker = InferenceWorker(model, config, ctx)
        for path in tile_paths:
            worker.submit(path)
        worker.drain(timeout=0.0)  # the loopback settles synchronously
        assert [r.src_path for r in worker.results] == tile_paths and not worker.errors

        shipped = ctx.pool.shipped
        assert {env.kind for env in shipped} == {"download", "preprocess", "inference"}
        sources = [env.payload[1] for env in shipped if env.kind == "inference"]
        assert sources and all(mode == "object" for mode, _ in sources)

    def test_persisted_model_ships_as_a_path(self):
        payload = ("/tmp/x/tiles/tiles_a.nc", ("path", "/tmp/x/journal/model.npz"))
        assert roundtrip(payload) == payload


class TestWorkUnitBoundary:
    def test_work_unit_closures_stay_off_the_wire(self):
        """WorkUnit bodies are closures — the envelope, not the unit,
        crosses the process boundary.  Pin that a closure-bodied unit
        does not pickle, so nobody accidentally ships one."""
        from repro.runtime import WorkUnit

        state = {"hits": 0}

        def body(ctx):
            state["hits"] += 1

        unit = WorkUnit(stage="download", key="k", body=body)
        with pytest.raises(Exception):
            pickle.dumps(unit)
