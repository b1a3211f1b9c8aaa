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

import pytest

from tests.core.crash_driver import build_raw_config
from tests.core.test_crash_resume import parse_stats, run_driver

from repro.chaos.surfaces import CRASH_EXIT_CODE
from repro.cas import CASStore
from repro.core import EOMLWorkflow, InferenceWorker, load_config
from repro.core.context import RunContext
from repro.journal import WorkflowJournal
from repro.modis import MINI_SWATH, LaadsArchive
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
    """Every ``assign`` the model is asked for, recorded and then served."""
    calls = []
    for name in ("assign", "assign_with_margin"):
        real = getattr(AICCAModel, name)

        def spy(self, tiles, name=name, real=real):
            calls.append(name)
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
        # Every file was labelled again, stored again, and shipped golden.
        assert report.cache["inference_cached"] == 0
        assert len(model_calls) == len(report.inference)
        assert delivered_digests(config.destination) == _GOLDEN["files"]
        _, again = run_cached(tmp_path / "again", cas_dir)
        assert again.cache["inference_cached"] == len(again.inference)

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

    def test_default_fidelity_knobs_preserve_the_golden_corpus(self, tmp_path):
        # coarse_stride=1 / refine_threshold=None is the pinned default:
        # the golden corpus asserts it in TestGoldenIdentity; here we pin
        # the config surface so a default drift is caught loudly.
        config = cached_config(tmp_path, tmp_path / "cas")
        assert config.coarse_stride == 1
        assert config.refine_threshold is None
