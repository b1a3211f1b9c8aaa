"""Pipeline-level behaviour of the content-addressed artifact cache.

The contract the CAS layer must honour, stated as golden-corpus
identities: caching is a *performance* feature, so the delivered corpus
is byte-identical with the cache off, with it cold, with it warm, under
injected corruption and store failures, across a crash + ``--resume``,
and under the streaming / worker-pool drivers.  A warm second run must
also actually short-circuit: zero bytes fetched from the archive,
nothing tiled, nothing labelled, deliveries materialized out of the
store.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import sys
import threading

import pytest

from tests.core.crash_driver import build_raw_config
from tests.core.test_crash_resume import parse_stats, run_driver

from repro.chaos.surfaces import CRASH_EXIT_CODE, damage_file
from repro.cas import CASStore
from repro.core import (
    DownloadStage,
    EOMLWorkflow,
    InferenceWorker,
    artifact_cache,
    load_config,
)
from repro.core.context import RunContext
from repro.journal import WorkflowJournal
from repro.modis import MINI_SWATH, GranuleId, LaadsArchive
from repro.ricc.aicca import AICCAModel

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_corpus.json")

with open(GOLDEN) as _handle:
    _GOLDEN = json.load(_handle)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def delivered_digests(destination):
    return {
        name: sha256_file(os.path.join(destination, name))
        for name in sorted(os.listdir(destination))
    }


def tile_records(cas_dir):
    """Scene -> tile object digest, for every ``tiles:`` key in a store."""
    records = {}
    for directory, _, names in os.walk(os.path.join(str(cas_dir), "keys")):
        for name in names:
            if ".part." in name:
                continue  # a writer's temp name a crash left behind
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                entry = json.load(handle)
            if entry["key"].startswith("tiles:") and entry["value"]["digest"]:
                records[entry["key"].split(":")[2]] = entry["value"]["digest"]
    return records


def cached_config(root, cas_dir, chaos=None, streaming=False, fidelity=None,
                  workers=None, model_path=None):
    raw = build_raw_config(str(root), _GOLDEN["granules"])
    raw["cache"] = {"enabled": True, "dir": str(cas_dir)}
    if model_path is not None:
        raw["inference"] = dict(raw["inference"], model_path=str(model_path))
    if chaos is not None:
        raw["chaos"] = chaos
    if streaming:
        raw["runtime"] = {"stream": {"enabled": True}}
    if workers is not None:
        raw["runtime"] = dict(raw.get("runtime", {}), workers=workers)
    if fidelity is not None:
        stride, threshold = fidelity
        raw["preprocess"] = dict(raw.get("preprocess", {}), coarse_stride=stride)
        raw["inference"] = dict(raw["inference"], refine_threshold=threshold)
    return load_config(raw)


def run_cached(root, cas_dir, **kwargs):
    config = cached_config(root, cas_dir, **kwargs)
    workflow = EOMLWorkflow(
        config, archive=LaadsArchive(seed=_GOLDEN["seed"], swath=MINI_SWATH)
    )
    report = workflow.run(provenance=False)
    return config, report


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """One clean cold run against an empty CAS: its config and report."""
    root = tmp_path_factory.mktemp("cold")
    cas_dir = str(tmp_path_factory.mktemp("cas-shared"))
    config, report = run_cached(root, cas_dir)
    assert report.errors == []
    return config, report


@pytest.fixture(scope="module")
def warm_cas(cold_run):
    """The CAS that cold run populated, plus the corpus it delivered."""
    config, _ = cold_run
    return config.cache_dir, delivered_digests(config.destination)


@pytest.fixture
def model_calls(monkeypatch):
    """Every ``assign`` the model is asked for, as (name, tile count),
    recorded and then served."""
    calls = []
    for name in ("assign", "assign_with_margin"):
        real = getattr(AICCAModel, name)

        def spy(self, tiles, name=name, real=real):
            calls.append((name, len(tiles)))
            return real(self, tiles)

        monkeypatch.setattr(AICCAModel, name, spy)
    return calls


@pytest.fixture
def no_model(monkeypatch):
    """A warm run labels nothing: asking the model for labels raises (the
    file would be quarantined, here or in a forked pool worker)."""
    def spy(self, tiles):
        raise AssertionError("a warm run asked the model for labels")

    monkeypatch.setattr(AICCAModel, "assign", spy)
    monkeypatch.setattr(AICCAModel, "assign_with_margin", spy)


class TestGoldenIdentity:
    def test_cold_run_with_cache_ships_the_golden_corpus(self, warm_cas):
        _, corpus = warm_cas
        assert corpus == _GOLDEN["files"]

    def test_cold_run_delivers_through_the_store(self, cold_run):
        # Inference stored each labelled file, so shipment's own lookup
        # found the object and never paid the move.
        _, report = cold_run
        assert report.cache["inference_cached"] == 0
        assert report.cache["shipment_deduped"] == len(report.shipment.moved) > 0

    def test_warm_run_short_circuits_every_stage(self, tmp_path, warm_cas, no_model):
        cas_dir, _ = warm_cas
        config, report = run_cached(tmp_path, cas_dir)
        assert report.errors == []
        assert delivered_digests(config.destination) == _GOLDEN["files"]
        # The archive is never touched, nothing is tiled or labelled, and
        # deliveries come out of the CAS.
        assert report.cache["fetched_bytes"] == 0
        assert report.cache["hits"] > 0
        assert report.cache["misses"] == 0
        assert report.cache["download_cached"] == report.download.files
        assert report.cache["preprocess_cached"] > 0
        assert report.cache["inference_cached"] == len(report.inference) > 0
        assert report.labelled_tiles == report.total_tiles
        assert report.cache["shipment_deduped"] == len(report.shipment.moved)
        assert report.cache["bytes_saved"] > 0

    def test_streaming_driver_warm_run_stays_golden(self, tmp_path, warm_cas, no_model):
        cas_dir, _ = warm_cas
        config, report = run_cached(tmp_path, cas_dir, streaming=True)
        assert report.errors == []
        assert delivered_digests(config.destination) == _GOLDEN["files"]
        assert report.cache["fetched_bytes"] == 0
        # A cached file is announced to shipment like a computed one.
        assert report.cache["inference_cached"] == len(report.inference) > 0
        assert len(report.shipment.moved) == len(_GOLDEN["files"])
        edges = report.stream["edges"]
        assert edges["inference->shipment"]["items"] == len(report.inference)

    def test_pool_driver_warm_run_stays_golden(self, tmp_path, warm_cas, no_model):
        cas_dir, _ = warm_cas
        config, report = run_cached(tmp_path, cas_dir, workers=2)
        assert report.errors == []
        assert delivered_digests(config.destination) == _GOLDEN["files"]
        # The flag rides home on each worker's result.
        assert report.cache["inference_cached"] == len(report.inference) > 0
        assert report.cache["misses"] == 0


class TestChaosSurfaces:
    def test_corrupt_object_is_quarantined_and_refetched(
        self, tmp_path, warm_cas
    ):
        cas_dir, _ = warm_cas
        chaos = {
            "seed": 0,
            "faults": [
                {"stage": "cache", "kind": "cache_corrupt", "rate": 1.0, "times": 2}
            ],
        }
        config, report = run_cached(tmp_path, cas_dir, chaos=chaos)
        assert report.errors == []
        # The digest check caught the poisoned object before handout: it
        # went to quarantine and the stage fell back to the real source.
        assert report.cache["corrupt_evictions"] >= 1
        assert report.manifest_mismatches == 0
        assert delivered_digests(config.destination) == _GOLDEN["files"]
        quarantine = os.path.join(cas_dir, "quarantine")
        assert os.path.isdir(quarantine) and os.listdir(quarantine)

    def test_corrupt_labelled_object_is_quarantined_and_relabelled(
        self, tmp_path, warm_cas, model_calls
    ):
        cas_dir, corpus = warm_cas
        # Damage each labelled object the first time it is read (the
        # fault keys on the object's digest): inference's hit.
        chaos = {
            "seed": 0,
            "faults": [
                {"stage": "cache", "kind": "cache_corrupt", "match": digest}
                for digest in corpus.values()
            ],
        }
        config, report = run_cached(tmp_path, cas_dir, chaos=chaos)
        assert report.errors == []
        assert report.cache["corrupt_evictions"] == len(corpus)
        quarantined = os.listdir(os.path.join(cas_dir, "quarantine"))
        assert set(corpus.values()) <= set(quarantined)
        # Every file was labelled again (micro-batching may fuse files
        # into one call), stored again, and shipped golden.
        assert report.cache["inference_cached"] == 0
        assert sum(tiles for _, tiles in model_calls) == report.labelled_tiles
        assert delivered_digests(config.destination) == _GOLDEN["files"]
        _, again = run_cached(tmp_path / "again", cas_dir)
        assert again.cache["inference_cached"] == len(again.inference)

    def test_corrupt_tile_and_granule_objects_are_staged_in_from_the_archive(
        self, tmp_path, cold_run, warm_cas
    ):
        """One scene's tile object and granule objects rotted: preprocess
        misses, its stage-in quarantines each granule object as it is
        read, fetches the granule again, and the corpus ships golden."""
        config, _ = cold_run
        cas_dir, _ = warm_cas
        scenes = {}
        for name in sorted(os.listdir(config.staging)):
            scene = GranuleId.parse(name[: -len(".nc")]).scene_key
            scenes.setdefault(scene, []).append(os.path.join(config.staging, name))
        scene = next(
            key for key in sorted(scenes)
            if os.path.exists(self._tile_file(config, key))
        )
        granules = [sha256_file(path) for path in scenes[scene]]
        rotted = [sha256_file(self._tile_file(config, scene)), *granules]
        chaos = {
            "seed": 0,
            "faults": [
                {"stage": "cache", "kind": "cache_corrupt", "match": digest}
                for digest in rotted
            ],
        }
        warm, report = run_cached(tmp_path, cas_dir, chaos=chaos)
        assert report.errors == []
        assert report.cache["corrupt_evictions"] == len(rotted)
        assert set(rotted) <= set(os.listdir(os.path.join(cas_dir, "quarantine")))
        # Only that scene's granules were staged in, each fetched again.
        assert sorted(os.listdir(warm.staging)) == sorted(
            os.path.basename(path) for path in scenes[scene]
        )
        assert [
            sha256_file(os.path.join(warm.staging, os.path.basename(path)))
            for path in scenes[scene]
        ] == granules
        assert delivered_digests(warm.destination) == _GOLDEN["files"]

    @staticmethod
    def _tile_file(config, scene):
        return os.path.join(config.preprocessed, f"tiles_{scene.replace('.', '_')}.nc")

    def test_enospc_on_store_is_absorbed(self, tmp_path):
        cas_dir = tmp_path / "cas"
        chaos = {
            "seed": 0,
            "faults": [
                {"stage": "cache", "kind": "cache_enospc", "rate": 1.0, "times": 3}
            ],
        }
        config, report = run_cached(tmp_path / "run", cas_dir, chaos=chaos)
        assert report.errors == []
        assert report.cache["store_errors"] >= 1
        assert delivered_digests(config.destination) == _GOLDEN["files"]


class TestCrashResume:
    @pytest.mark.parametrize("stage", ["download", "preprocess"])
    def test_crash_then_resume_with_cache_converges(self, stage, tmp_path):
        cas_dir = str(tmp_path / "cas")

        crashed = run_driver(
            tmp_path, "--crash-stage", stage, "--cache", cas_dir
        )
        assert crashed.returncode == CRASH_EXIT_CODE, (
            f"crash fault at {stage!r} did not abort the run: "
            f"rc={crashed.returncode}\n{crashed.stdout}\n{crashed.stderr}"
        )

        resumed = run_driver(tmp_path, "--resume", "--cache", cas_dir)
        assert resumed.returncode == 0, resumed.stderr
        stats = parse_stats(resumed.stdout)
        assert stats["errors"] == 0
        dest = os.path.join(str(tmp_path), "data", "orion")
        assert delivered_digests(dest) == _GOLDEN["files"]

    def test_crash_after_a_labels_hit_then_resume_converges(self, tmp_path):
        """Death with the labelled file materialized and nothing
        journaled: the resumed run settles the file again, from the store."""
        cas_dir = str(tmp_path / "cas")
        cold = run_driver(tmp_path / "a", "--cache", cas_dir)
        assert cold.returncode == 0, cold.stderr

        crashed = run_driver(
            tmp_path / "b", "--crash-stage", "inference", "--cache", cas_dir
        )
        assert crashed.returncode == CRASH_EXIT_CODE, (
            f"rc={crashed.returncode}\n{crashed.stdout}\n{crashed.stderr}"
        )
        outbox = os.path.join(str(tmp_path / "b"), "data", "outbox")
        assert len(os.listdir(outbox)) == 1

        resumed = run_driver(tmp_path / "b", "--resume", "--cache", cas_dir)
        assert resumed.returncode == 0, resumed.stderr
        stats = parse_stats(resumed.stdout)
        assert stats["errors"] == 0
        assert stats["inference_cached"] == len(_GOLDEN["files"])
        dest = os.path.join(str(tmp_path / "b"), "data", "orion")
        assert delivered_digests(dest) == _GOLDEN["files"]

    def test_crash_after_deferred_download_hits_then_resume_converges(self, tmp_path):
        """Every download hit journaled without a file, then death at the
        first read of the store: the resumed run takes those completions
        as they are, fetches nothing and ships golden."""
        cas_dir = str(tmp_path / "cas")
        cold = run_driver(tmp_path / "a", "--cache", cas_dir)
        assert cold.returncode == 0, cold.stderr

        crashed = run_driver(tmp_path / "b", "--crash-stage", "cache", "--cache", cas_dir)
        assert crashed.returncode == CRASH_EXIT_CODE, (
            f"rc={crashed.returncode}\n{crashed.stdout}\n{crashed.stderr}"
        )
        staging = os.path.join(str(tmp_path / "b"), "data", "raw")
        assert os.listdir(staging) == []

        resumed = run_driver(tmp_path / "b", "--resume", "--cache", cas_dir)
        assert resumed.returncode == 0, resumed.stderr
        stats = parse_stats(resumed.stdout)
        assert stats["errors"] == 0 and stats["fetched_bytes"] == 0
        assert stats["resumed_downloads"] == parse_stats(cold.stdout)["fetched"] > 0
        dest = os.path.join(str(tmp_path / "b"), "data", "orion")
        assert delivered_digests(dest) == _GOLDEN["files"]

    def test_granules_rotted_after_a_crash_are_staged_in_verified(self, tmp_path):
        """A cold run stores its granules and dies in preprocess, then every
        staged granule rots.  On resume each download replays into a store
        hit, which removes the file nothing vouches for any more: preprocess
        stages verified bytes in instead of tiling the rot, and every
        ``tiles:`` record names a tile file that shipped golden."""
        cas_dir = str(tmp_path / "cas")
        crashed = run_driver(tmp_path, "--crash-stage", "preprocess", "--cache", cas_dir)
        assert crashed.returncode == CRASH_EXIT_CODE, (
            f"rc={crashed.returncode}\n{crashed.stdout}\n{crashed.stderr}"
        )
        staging = os.path.join(str(tmp_path), "data", "raw")
        rotted = sorted(os.listdir(staging))
        for name in rotted:
            damage_file(os.path.join(staging, name))

        resumed = run_driver(tmp_path, "--resume", "--cache", cas_dir)
        assert resumed.returncode == 0, resumed.stderr
        stats = parse_stats(resumed.stdout)
        assert stats["errors"] == 0
        assert stats["download_cached"] == len(rotted) > 0
        dest = os.path.join(str(tmp_path), "data", "orion")
        assert delivered_digests(dest) == _GOLDEN["files"]
        tiles = os.path.join(str(tmp_path), "data", "tiles")
        records = tile_records(cas_dir)
        assert records
        for scene, digest in records.items():
            path = os.path.join(tiles, f"tiles_{scene.replace('.', '_')}.nc")
            assert sha256_file(path) == digest

    def test_pool_workers_share_the_cas(self, tmp_path):
        cas_dir = str(tmp_path / "cas")

        cold = run_driver(tmp_path / "a", "--workers", "2", "--cache", cas_dir)
        assert cold.returncode == 0, cold.stderr

        warm = run_driver(tmp_path / "b", "--workers", "2", "--cache", cas_dir)
        assert warm.returncode == 0, warm.stderr
        stats = parse_stats(warm.stdout)
        assert stats["errors"] == 0
        # Worker processes resolved their inputs from the shared store.
        assert stats["fetched_bytes"] == 0
        assert stats["inference_cached"] == len(_GOLDEN["files"])
        dest = os.path.join(str(tmp_path / "b"), "data", "orion")
        assert delivered_digests(dest) == _GOLDEN["files"]
        # ... and their store handles' counters came home with their
        # envelopes: the report reads as the single-process one does.
        assert parse_stats(cold.stdout)["cache_stores"] > 0
        assert stats["cache_hits"] > 0
        _, pooled = run_cached(tmp_path / "c", cas_dir, workers=2)
        assert pooled.errors == []
        assert pooled.cache["hits"] > 0
        assert pooled.cache["misses"] == 0
        assert pooled.cache["bytes_saved"] > 0

    def test_pool_workers_report_their_refined_tiles(self, tmp_path):
        cas_dir = tmp_path / "cas"
        # Refine every tile: the margin is always below each threshold.
        # A threshold of its own per run keeps the runs off each other's
        # labels (it is part of that key), so each one labels and refines.
        _, cold = run_cached(tmp_path / "a", cas_dir, fidelity=(2, 1e9))
        _, single = run_cached(tmp_path / "b", cas_dir, fidelity=(2, 2e9))
        _, pooled = run_cached(tmp_path / "c", cas_dir, fidelity=(2, 3e9), workers=2)
        assert cold.errors == single.errors == pooled.errors == []
        assert single.cache["inference_cached"] == pooled.cache["inference_cached"] == 0
        assert pooled.cache["refined_tiles"] == single.cache["refined_tiles"] > 0
        assert pooled.cache["hits"] > 0 and pooled.cache["misses"] == 0


class TestPooledKeys:
    def test_pool_workers_never_hash_a_granule_to_derive_a_key(
        self, tmp_path, monkeypatch
    ):
        """A granule's digest rides its scene token, so a worker keys the
        scene's tile file without hashing a granule its own journal never
        saw.  The spy is installed before the pool forks."""
        log = tmp_path / "hashed.log"
        root = tmp_path / "run"
        staging = os.path.join(str(root), "data", "raw") + os.sep
        real = artifact_cache.digest_file

        def logged(path, *args, **kwargs):
            if os.path.abspath(str(path)).startswith(staging):
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write(f"{os.getpid()} {path}\n")
            return real(path, *args, **kwargs)

        monkeypatch.setattr(artifact_cache, "digest_file", logged)
        _, report = run_cached(root, tmp_path / "cas", workers=2)
        assert report.errors == []
        assert report.scaleout["units_executed"] > 0
        assert not log.exists(), log.read_text()


class TestStageIn:
    def test_concurrent_readers_stage_a_granule_in_once(self, tmp_path, cold_run):
        """Readers racing for one absent granule: the first materializes
        it, the rest find the file — one verified copy."""
        config, _ = cold_run
        name = sorted(os.listdir(config.staging))[0]
        staged = dataclasses.replace(config, staging=str(tmp_path / "raw"))
        cas = CASStore(config.cache_dir, durable=False)
        delivered = []
        materialize = cas.materialize

        def delivering(digest, dest, **kwargs):
            delivered.append(dest)
            return materialize(digest, dest, **kwargs)

        cas.materialize = delivering
        stage = DownloadStage(
            staged, RunContext(cache=cas),
            archive=LaadsArchive(seed=_GOLDEN["seed"], swath=MINI_SWATH),
        )
        paths = {"product": os.path.join(staged.staging, name)}
        results = []
        start = threading.Barrier(8)

        def reader():
            start.wait(timeout=60)  # every reader finds the granule absent
            results.append(stage.stage_in(paths))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [paths] * 8
        assert sha256_file(paths["product"]) == sha256_file(
            os.path.join(config.staging, name)
        )
        assert delivered == [paths["product"]]
        assert cas.counters()["misses"] == 0

    def test_a_granule_staged_in_after_its_hit_counts_once(self, tmp_path):
        """The download's lookup counts the hit and the bytes it saved;
        staging the granule in later adds neither again."""
        config = cached_config(tmp_path, tmp_path / "cas")
        cas = CASStore(config.cache_dir, durable=False)
        archive = LaadsArchive(seed=_GOLDEN["seed"], swath=MINI_SWATH)

        def download(staging):
            staged = dataclasses.replace(config, staging=str(tmp_path / staging))
            stage = DownloadStage(staged, RunContext(cache=cas), archive=archive)
            return stage, stage.run()

        download("cold")
        stage, report = download("warm")
        assert report.cached == report.files > 0
        assert os.listdir(str(tmp_path / "warm")) == []
        counted = cas.counters()
        assert (counted["hits"], counted["bytes_saved"]) == (report.files, report.nbytes)
        scene = report.granule_sets[0]
        for path in stage.stage_in(scene.paths, scene.digests).values():
            assert os.path.exists(path)
        assert cas.counters() == counted

    def test_a_resumed_hit_drops_what_was_staged_in_after_it(self, tmp_path):
        """A hit journals no file, so once the run resumes nothing vouches
        for a granule staged in after it: the resumed download removes
        it, and the next reader stages verified bytes in again."""
        config = cached_config(tmp_path, tmp_path / "cas")
        cas = CASStore(config.cache_dir, durable=False)
        archive = LaadsArchive(seed=_GOLDEN["seed"], swath=MINI_SWATH)
        cold = dataclasses.replace(config, staging=str(tmp_path / "cold"))
        DownloadStage(cold, RunContext(cache=cas), archive=archive).run()
        warm = dataclasses.replace(config, staging=str(tmp_path / "warm"))

        def download(resume):
            with WorkflowJournal(str(tmp_path / "journal"), durable=False) as journal:
                journal.start(resume=resume)
                stage = DownloadStage(
                    warm, RunContext(journal=journal, cache=cas), archive=archive
                )
                return stage, stage.run()

        stage, report = download(resume=False)
        scene = report.granule_sets[0]
        victim = sorted(stage.stage_in(scene.paths, scene.digests).values())[0]
        with open(tmp_path / "rot", "wb") as handle:
            handle.write(b"rot")
        os.replace(tmp_path / "rot", victim)

        stage, report = download(resume=True)
        assert report.resumed == report.files > 0
        assert os.listdir(warm.staging) == []
        stage.stage_in(scene.paths, scene.digests)
        assert sha256_file(victim) == sha256_file(
            os.path.join(cold.staging, os.path.basename(victim))
        )


class TestLabelsKey:
    """What the inference unit's derived key binds: the model file's
    bytes, the tile file's bytes and the refinement threshold — each one
    changed is a miss that labels again; the path of either file is not."""

    @pytest.fixture
    def staged(self, tmp_path, cold_run):
        """Copies of the cold run's model and first tile file, a config
        pointing at them, and an empty store."""
        config, _ = cold_run
        tiles = sorted(os.listdir(config.preprocessed))
        os.makedirs(tmp_path / "tiles")
        for name in tiles:
            shutil.copy(os.path.join(config.preprocessed, name), tmp_path / "tiles")
        model_path = str(tmp_path / "model.npz")
        shutil.copy(os.path.join(config.journal_dir, "model.npz"), model_path)
        staged = dataclasses.replace(
            config,
            preprocessed=str(tmp_path / "tiles"),
            transfer_out=str(tmp_path / "outbox"),
            quarantine=str(tmp_path / "quarantine"),
            model_path=model_path,
        )
        paths = [os.path.join(staged.preprocessed, name) for name in tiles]
        return staged, paths, CASStore(str(tmp_path / "cas"), durable=False)

    @staticmethod
    def label(config, cas, path):
        model = AICCAModel.load(config.model_path)
        worker = InferenceWorker(model, config, RunContext(cache=cas))
        ((tag, result),) = worker.label([path])
        assert tag == "result", result
        return result, sha256_file(result.out_path)

    def test_second_labelling_is_a_hit_with_the_same_bytes(self, staged, model_calls):
        config, (path, _), cas = staged
        first, first_sha = self.label(config, cas, path)
        assert not first.cached and len(model_calls) == 1
        second, second_sha = self.label(config, cas, path)
        assert second.cached and len(model_calls) == 1
        assert second_sha == first_sha == _GOLDEN["files"][os.path.basename(path)]
        assert (second.tiles, second.classes_seen) == (first.tiles, first.classes_seen)

    def test_key_is_content_not_path(self, staged, tmp_path, model_calls):
        config, (path, _), cas = staged
        self.label(config, cas, path)
        elsewhere = str(tmp_path / "elsewhere.npz")
        shutil.copy(config.model_path, elsewhere)
        moved = dataclasses.replace(config, model_path=elsewhere)
        assert self.label(moved, cas, path)[0].cached

    def test_changed_model_file_misses(self, staged, model_calls):
        config, (path, _), cas = staged
        _, golden_sha = self.label(config, cas, path)
        model = AICCAModel.load(config.model_path)
        model.clustering.centroids_ = model.clustering.centroids_[::-1].copy()
        model.save(config.model_path)
        result, sha = self.label(config, cas, path)
        assert not result.cached and len(model_calls) == 2
        assert sha != golden_sha

    def test_changed_tile_file_misses(self, staged, model_calls):
        config, (path, other), cas = staged
        self.label(config, cas, path)
        os.replace(other, path)  # same name, another scene's bytes
        result, sha = self.label(config, cas, path)
        assert not result.cached and len(model_calls) == 2
        assert sha == _GOLDEN["files"][os.path.basename(other)]

    def test_changed_refine_threshold_misses(self, staged, model_calls):
        config, (path, _), cas = staged
        _, plain_sha = self.label(config, cas, path)
        # No margin is below zero, so nothing is refined and the bytes
        # are the same — but the knob is part of the key.
        knob = dataclasses.replace(config, refine_threshold=0.0)
        result, sha = self.label(knob, cas, path)
        assert not result.cached and len(model_calls) == 2
        assert sha == plain_sha
        assert self.label(knob, cas, path)[0].cached

    def test_a_hit_is_journaled_and_resumes_like_a_computed_file(
        self, staged, tmp_path, model_calls
    ):
        config, (path, _), cas = staged
        _, golden_sha = self.label(config, cas, path)
        os.unlink(os.path.join(config.transfer_out, os.path.basename(path)))
        model = AICCAModel.load(config.model_path)

        def relabel(resume):
            with WorkflowJournal(str(tmp_path / "journal"), durable=False) as journal:
                journal.start(resume=resume)
                worker = InferenceWorker(
                    model, config, RunContext(journal=journal, cache=cas)
                )
                ((tag, result),) = worker.label([path])
                assert tag == "result", result
                return result, journal.counters()

        hit, _ = relabel(resume=False)
        assert hit.cached
        # The completion a hit wrote verifies: nothing is settled again.
        resumed, counters = relabel(resume=True)
        assert not resumed.cached and counters["resumed_items"] == 1
        assert (resumed.out_path, resumed.tiles) == (hit.out_path, hit.tiles)
        # ... and catches a rotted copy, which the store then replaces.
        # (replaced, not written in place: the copy is a hardlink of the
        # store's object, and published files are immutable.)
        with open(tmp_path / "rot", "wb") as handle:
            handle.write(b"rot")
        os.replace(tmp_path / "rot", hit.out_path)
        replayed, counters = relabel(resume=True)
        assert replayed.cached and counters["manifest_mismatches"] == 1
        assert sha256_file(hit.out_path) == golden_sha
        assert len(model_calls) == 1

    def test_model_without_a_file_is_never_cached(self, staged, model_calls):
        config, (path, _), cas = staged
        model = AICCAModel.load(config.model_path)
        unsaved = dataclasses.replace(config, model_path=None)
        for _ in range(2):
            worker = InferenceWorker(model, unsaved, RunContext(cache=cas))
            ((tag, result),) = worker.label([path])
            assert tag == "result" and not result.cached
        assert len(model_calls) == 2
        assert cas.counters()["stores"] == cas.counters()["key_misses"] == 0


class TestProgressiveFidelity:
    def test_refinement_is_deterministic_across_cache_states(
        self, tmp_path
    ):
        """Coarse-first + refine produces the same corpus cold, warm, and
        relabelled from a warm store."""
        cas_dir = tmp_path / "cas"
        fidelity = (2, 1e9)  # refine every tile: margin always below 1e9
        config_a, report_a = run_cached(
            tmp_path / "a", cas_dir, fidelity=fidelity
        )
        assert report_a.errors == []
        assert report_a.cache["refined_tiles"] > 0
        corpus = delivered_digests(config_a.destination)

        # Warm: the refined labels come out of the store, nothing is refined.
        config_b, report_b = run_cached(
            tmp_path / "b", cas_dir, fidelity=fidelity
        )
        assert report_b.errors == []
        assert report_b.cache["inference_cached"] == len(report_b.inference) > 0
        assert report_b.cache["refined_tiles"] == 0
        assert delivered_digests(config_b.destination) == corpus

        # A changed threshold (refining the same tiles) is another key:
        # labelled again, the refined stacks served from the store.
        config_c, report_c = run_cached(
            tmp_path / "c", cas_dir, fidelity=(2, 2e9)
        )
        assert report_c.errors == []
        assert report_c.cache["inference_cached"] == 0
        assert report_c.cache["refined_tiles"] == report_a.cache["refined_tiles"]
        assert report_c.cache["misses"] == 0
        assert delivered_digests(config_c.destination) == corpus

    def test_warm_run_with_a_new_threshold_refines_through_stage_in(self, tmp_path):
        """Tiles hit, labels miss: the refiner reads granules nothing has
        staged, so it stages them in from the store, and ships what a
        cache-off run at that threshold ships.  Coarse tile files stamp
        their granules' paths, so the three runs share one run directory,
        emptied in between."""
        root, cas_dir = tmp_path / "run", tmp_path / "cas"
        # No margin is below zero: the cold run refines nothing.
        _, cold = run_cached(root, cas_dir, fidelity=(2, 0.0))
        assert cold.errors == [] and cold.cache["refined_tiles"] == 0
        shutil.rmtree(root)

        config, warm = run_cached(root, cas_dir, fidelity=(2, 1e9))
        assert warm.errors == []
        assert warm.cache["preprocess_cached"] > 0
        assert warm.cache["inference_cached"] == 0
        assert warm.cache["refined_tiles"] > 0 and warm.cache["fetched_bytes"] == 0
        assert os.listdir(config.staging)  # staged in to be read
        corpus = delivered_digests(config.destination)
        shutil.rmtree(root)

        raw = build_raw_config(str(root), _GOLDEN["granules"])
        raw["preprocess"] = dict(raw.get("preprocess", {}), coarse_stride=2)
        raw["inference"] = dict(raw["inference"], refine_threshold=1e9)
        plain = load_config(raw)
        report = EOMLWorkflow(
            plain, archive=LaadsArchive(seed=_GOLDEN["seed"], swath=MINI_SWATH)
        ).run(provenance=False)
        assert report.errors == [] and report.cache["refined_tiles"] > 0
        assert delivered_digests(plain.destination) == corpus

    def test_default_fidelity_knobs_preserve_the_golden_corpus(self, tmp_path):
        # coarse_stride=1 / refine_threshold=None is the pinned default:
        # the golden corpus asserts it in TestGoldenIdentity; here we pin
        # the config surface so a default drift is caught loudly.
        config = cached_config(tmp_path, tmp_path / "cas")
        assert config.coarse_stride == 1
        assert config.refine_threshold is None
