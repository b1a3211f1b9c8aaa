"""Pipeline-level behaviour of the content-addressed artifact cache.

The contract the CAS layer must honour, stated as golden-corpus
identities: caching is a *performance* feature, so the delivered corpus
is byte-identical with the cache off, with it cold, with it warm, under
injected corruption and store failures, across a crash + ``--resume``,
and under the streaming / worker-pool drivers.  A warm second run must
also actually short-circuit: zero bytes fetched from the archive,
deliveries materialized out of the store.
"""

import hashlib
import json
import os

import pytest

from tests.core.crash_driver import build_raw_config
from tests.core.test_crash_resume import parse_stats, run_driver

from repro.chaos.surfaces import CRASH_EXIT_CODE
from repro.core import EOMLWorkflow, load_config
from repro.modis import MINI_SWATH, LaadsArchive

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
                  workers=None):
    raw = build_raw_config(str(root), _GOLDEN["granules"])
    raw["cache"] = {"enabled": True, "dir": str(cas_dir)}
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
def warm_cas(tmp_path_factory):
    """A CAS populated by one clean cold run, plus that run's corpus."""
    root = tmp_path_factory.mktemp("cold")
    cas_dir = str(tmp_path_factory.mktemp("cas-shared"))
    config, report = run_cached(root, cas_dir)
    assert report.errors == []
    return cas_dir, delivered_digests(config.destination)


class TestGoldenIdentity:
    def test_cold_run_with_cache_ships_the_golden_corpus(self, warm_cas):
        _, corpus = warm_cas
        assert corpus == _GOLDEN["files"]

    def test_warm_run_short_circuits_every_stage(self, tmp_path, warm_cas):
        cas_dir, _ = warm_cas
        config, report = run_cached(tmp_path, cas_dir)
        assert report.errors == []
        assert delivered_digests(config.destination) == _GOLDEN["files"]
        # The archive is never touched and deliveries come out of the CAS.
        assert report.cache["fetched_bytes"] == 0
        assert report.cache["hits"] > 0
        assert report.cache["misses"] == 0
        assert report.cache["download_cached"] == report.download.files
        assert report.cache["preprocess_cached"] > 0
        assert report.cache["shipment_deduped"] == len(report.shipment.moved)
        assert report.cache["bytes_saved"] > 0

    def test_streaming_driver_warm_run_stays_golden(self, tmp_path, warm_cas):
        cas_dir, _ = warm_cas
        config, report = run_cached(tmp_path, cas_dir, streaming=True)
        assert report.errors == []
        assert delivered_digests(config.destination) == _GOLDEN["files"]
        assert report.cache["fetched_bytes"] == 0


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
        fidelity = (2, 1e9)  # refine every tile: margin always below 1e9
        _, cold = run_cached(tmp_path / "a", cas_dir, fidelity=fidelity)
        _, single = run_cached(tmp_path / "b", cas_dir, fidelity=fidelity)
        _, pooled = run_cached(tmp_path / "c", cas_dir, fidelity=fidelity, workers=2)
        assert cold.errors == single.errors == pooled.errors == []
        assert pooled.cache["refined_tiles"] == single.cache["refined_tiles"] > 0
        assert pooled.cache["hits"] > 0 and pooled.cache["misses"] == 0


class TestProgressiveFidelity:
    def test_refinement_is_deterministic_across_cache_states(
        self, tmp_path
    ):
        """Coarse-first + refine produces the same corpus cold and warm."""
        cas_dir = tmp_path / "cas"
        fidelity = (2, 1e9)  # refine every tile: margin always below 1e9
        config_a, report_a = run_cached(
            tmp_path / "a", cas_dir, fidelity=fidelity
        )
        assert report_a.errors == []
        assert report_a.cache["refined_tiles"] > 0

        config_b, report_b = run_cached(
            tmp_path / "b", cas_dir, fidelity=fidelity
        )
        assert report_b.errors == []
        assert report_b.cache["refined_tiles"] == report_a.cache["refined_tiles"]
        assert delivered_digests(config_b.destination) == delivered_digests(
            config_a.destination
        )

    def test_default_fidelity_knobs_preserve_the_golden_corpus(self, tmp_path):
        # coarse_stride=1 / refine_threshold=None is the pinned default:
        # the golden corpus asserts it in TestGoldenIdentity; here we pin
        # the config surface so a default drift is caught loudly.
        config = cached_config(tmp_path, tmp_path / "cas")
        assert config.coarse_stride == 1
        assert config.refine_threshold is None
