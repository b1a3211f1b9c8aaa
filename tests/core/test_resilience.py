"""The resilience matrix: stage x fault kind x recovery outcome.

Faults are injected through the deterministic chaos engine
(:mod:`repro.chaos`) rather than ad-hoc test doubles, so every case
states its schedule declaratively and the same seed always reproduces
the same damage.  For each cell the matrix asserts the *hardening
contract*: transient faults are retried with real backoff (never
immediately), permanent faults quarantine the damaged work item while
the rest of the batch completes, the circuit breaker fails fast during
an outage, and the workflow reports errors instead of crashing.

Resume/idempotence and the simulated HTTP failure model keep their
original coverage at the bottom of the file.
"""

import os

import pytest

from repro.chaos import FaultInjector, FaultPlan, FaultSpec
from repro.core import (
    DownloadStage,
    EOMLWorkflow,
    InferenceWorker,
    PreprocessStage,
    ShipmentStage,
    load_config,
)
from repro.core.context import RunContext
from repro.core.download import ARCHIVE_HOST
from repro.modis import MINI_SWATH, LaadsArchive
from repro.net import CircuitBreaker, HttpServer
from repro.net.http import HttpError
from repro.runtime import StreamChannel
from repro.sim import Simulation


def make_config(tmp_path, retries=2, skip=True, granules=2, chaos=None, **download):
    mapping = {
        "archive": {"start_date": "2022-01-01", "max_granules_per_day": granules,
                    "seed": 3},
        "paths": {
            "staging": str(tmp_path / "raw"),
            "preprocessed": str(tmp_path / "tiles"),
            "transfer_out": str(tmp_path / "outbox"),
            "destination": str(tmp_path / "orion"),
            "quarantine": str(tmp_path / "quarantine"),
        },
        "download": {"workers": 2, "retries": retries, "skip_existing": skip,
                     "backoff_base": 0.001, "backoff_total": 0.05, **download},
        "preprocess": {"workers": 2, "tile_size": 16},
    }
    if chaos is not None:
        mapping["chaos"] = chaos
    return load_config(mapping)


def injector(stage, kind, rate=1.0, times=1, latency=0.002, seed=0):
    return FaultInjector(FaultPlan(seed=seed, faults=(
        FaultSpec(stage, kind, rate=rate, times=times, latency=latency),
    )))


def fresh_archive():
    return LaadsArchive(seed=3, swath=MINI_SWATH)


class RecordingSleeper:
    """Stands in for time.sleep; keeps the delays a stage asked for."""

    def __init__(self):
        self.slept = []

    def __call__(self, seconds):
        self.slept.append(seconds)


# ---------------------------------------------------------------------------
# Download stage
# ---------------------------------------------------------------------------

class TestDownloadResilience:
    @pytest.mark.parametrize("kind", ["http_transient", "torn_write"])
    def test_transient_faults_recovered_by_retry(self, tmp_path, kind):
        """Matrix: download x {http_transient, torn_write} -> recovered."""
        config = make_config(tmp_path, retries=3)
        chaos = injector("download", kind, rate=1.0, times=1)
        sleeper = RecordingSleeper()
        stage = DownloadStage(config, RunContext(chaos=chaos, sleeper=sleeper),
                              archive=fresh_archive())
        report = stage.run()
        assert report.files == 6
        assert len(report.granule_sets) == 2
        assert report.retried == 6          # every file failed once, recovered
        assert report.retry_attempts == 6
        assert report.failed == [] and report.incomplete == []
        assert chaos.counts_by_kind() == {kind: 6}
        # Recovery slept a real backoff delay before every retry.
        assert len(sleeper.slept) == 6 and all(s > 0 for s in sleeper.slept)
        # No torn temp files survive recovery.
        assert [n for n in os.listdir(config.staging) if n.endswith(".part")] == []
        assert stage.breaker.state(ARCHIVE_HOST) == CircuitBreaker.CLOSED

    def test_slow_fetch_recovered_with_injected_latency(self, tmp_path):
        """Matrix: download x slow_fetch -> recovered (slower, not broken)."""
        config = make_config(tmp_path)
        chaos = injector("download", "slow_fetch", latency=0.001)
        sleeper = RecordingSleeper()
        report = DownloadStage(config, RunContext(chaos=chaos, sleeper=sleeper),
                              archive=fresh_archive()).run()
        assert report.files == 6
        assert report.retried == 0          # latency is not failure
        assert chaos.counts_by_kind() == {"slow_fetch": 6}
        assert sleeper.slept == [0.001] * 6

    def test_permanent_fault_skip_quarantines_scene(self, tmp_path):
        """Matrix: download x http_permanent -> quarantined (skip mode)."""
        config = make_config(tmp_path, retries=1, on_exhausted="skip",
                             breaker_threshold=50)
        chaos = injector("download", "http_permanent")
        report = DownloadStage(config, RunContext(chaos=chaos), archive=fresh_archive()).run()
        assert report.granule_sets == []    # every product of every scene failed
        assert len(report.failed) == 6
        assert all("failed after 2 attempts" in message for message in report.failed)
        assert report.files == 0

    def test_permanent_fault_raise_mode_aborts(self, tmp_path):
        """Matrix: download x http_permanent -> raise (default policy)."""
        config = make_config(tmp_path, retries=1)
        chaos = injector("download", "http_permanent")
        with pytest.raises(RuntimeError, match="failed after"):
            DownloadStage(config, RunContext(chaos=chaos), archive=fresh_archive()).run()

    def test_partial_scene_dropped_not_returned(self, tmp_path):
        """A scene that lost one product never reaches the barrier."""
        config = make_config(tmp_path, retries=1, on_exhausted="skip",
                             breaker_threshold=50)
        # Seed 3 at rate 0.15 deterministically hits a strict subset of
        # the six filenames; the hit scenes are dropped, the rest survive.
        chaos = injector("download", "http_permanent", rate=0.15, seed=3)
        stage = DownloadStage(config, RunContext(chaos=chaos), archive=fresh_archive())
        hit = [ref for ref in stage.plan()
               if chaos.would_select("download", "http_permanent", ref.filename)]
        assert 0 < len(hit) < 6  # the probe confirms a genuine subset
        report = stage.run()
        dropped_scenes = {ref.gid.scene_key for ref in hit}
        assert set(report.incomplete) == dropped_scenes
        assert all(gs.key not in dropped_scenes for gs in report.granule_sets)
        for granule_set in report.granule_sets:
            assert len(granule_set.paths) == 3

    def test_backoff_consulted_never_immediate_retry(self, tmp_path):
        """Regression: retries must sleep the policy's delay, not spin.

        The delays handed to the sleeper must be exactly the
        BackoffPolicy schedule for each retried file — proof the stage
        consulted the policy instead of retrying immediately.
        """
        config = make_config(tmp_path, retries=3, workers=1)
        chaos = injector("download", "http_transient", rate=1.0, times=2)
        sleeper = RecordingSleeper()
        stage = DownloadStage(config, RunContext(chaos=chaos, sleeper=sleeper),
                              archive=fresh_archive())
        report = stage.run()
        assert report.files == 6 and report.retry_attempts == 12
        expected = sorted(
            config.download_backoff.delay(attempt, key=ref.filename)
            for ref in stage.plan()
            for attempt in range(2)
        )
        assert sorted(sleeper.slept) == expected
        assert all(delay > 0 for delay in sleeper.slept)

    def test_breaker_opens_and_fails_fast_during_outage(self, tmp_path):
        """Matrix: download x http_permanent -> breaker open (fail fast)."""
        config = make_config(tmp_path, retries=1, on_exhausted="skip",
                             workers=1, breaker_threshold=3)
        chaos = injector("download", "http_permanent")
        stage = DownloadStage(config, RunContext(chaos=chaos), archive=fresh_archive())
        report = stage.run()
        assert report.breaker_trips >= 1
        assert stage.breaker.state(ARCHIVE_HOST) != CircuitBreaker.CLOSED
        # Once open, later granules were refused without touching the
        # archive at all.
        assert any("circuit open" in message for message in report.failed)
        assert chaos.counts_by_kind()["http_permanent"] < 12  # fewer fetches


# ---------------------------------------------------------------------------
# Preprocess stage
# ---------------------------------------------------------------------------

@pytest.fixture()
def downloaded(tmp_path):
    config = make_config(tmp_path)
    report = DownloadStage(config, archive=fresh_archive()).run()
    return config, report.granule_sets


class TestPreprocessResilience:
    def test_worker_stall_recovered(self, downloaded):
        """Matrix: preprocess x worker_stall -> recovered (slower only)."""
        config, granule_sets = downloaded
        chaos = injector("preprocess", "worker_stall", latency=0.001)
        report = PreprocessStage(config, RunContext(chaos=chaos)).run(granule_sets)
        assert report.quarantined == []
        assert len(report.results) == 2 and report.total_tiles > 0
        assert chaos.counts_by_kind() == {"worker_stall": 2}

    def test_torn_write_quarantines_task_and_continues(self, downloaded):
        """Matrix: preprocess x torn_write -> quarantined, siblings fine."""
        config, granule_sets = downloaded
        # Seed 0 at rate 0.5 deterministically tears exactly scene .000.
        chaos = injector("preprocess", "torn_write", rate=0.5, seed=0)
        report = PreprocessStage(config, RunContext(chaos=chaos)).run(granule_sets)
        assert [q.key for q in report.quarantined] == ["scene.terra.2022-01-01.000"]
        assert "torn write" in report.quarantined[0].error
        assert "scene.terra.2022-01-01.000" in report.quarantined[0].describe()
        # The sibling granule still preprocessed.
        assert [r.key for r in report.results] == ["scene.terra.2022-01-01.001"]
        assert report.total_tiles > 0

    def test_corrupt_tile_quarantined_downstream_at_inference(self, downloaded):
        """Matrix: preprocess x corrupt_tile -> inference quarantines it."""
        config, granule_sets = downloaded
        chaos = injector("preprocess", "corrupt_tile")
        report = PreprocessStage(config, RunContext(chaos=chaos)).run(granule_sets)
        # The write "succeeded": well-named files preprocess announces.
        tile_paths = [r.tile_path for r in report.results if r.tile_path]
        assert len(tile_paths) == 2
        # The model is never reached — parsing fails first — so a stub
        # suffices; the worker must quarantine and keep consuming.
        tokens = StreamChannel("preprocess->inference")
        for path in tile_paths:
            tokens.put(("tiles", path, None))
        tokens.close()
        worker = InferenceWorker(object(), config).run(tokens)
        assert worker.results == []
        assert len(worker.quarantined) == 2
        assert sorted(q.key for q in worker.quarantined) == sorted(tile_paths)
        for path in tile_paths:
            assert not os.path.exists(path)  # moved out of the tile directory
            assert os.path.exists(
                os.path.join(config.quarantine, os.path.basename(path))
            )

    def test_workflow_reports_errors_instead_of_crashing(self, tmp_path):
        """Matrix (workflow level): quarantines land in report.errors."""
        chaos_section = {
            "seed": 0,
            "faults": [{"stage": "preprocess", "kind": "torn_write",
                        "rate": 0.5, "times": 1}],
        }
        config = make_config(tmp_path, chaos=chaos_section)
        report = EOMLWorkflow(config, archive=fresh_archive()).run(provenance=False)
        assert len(report.preprocess.quarantined) == 1
        assert any("preprocess quarantined" in e for e in report.errors)
        assert report.labelled_tiles == report.total_tiles > 0  # the survivor
        assert report.quarantined == 1
        assert report.chaos["by_kind"] == {"torn_write": 1}

    def test_corrupt_bootstrap_scene_is_quarantined_not_fatal(self, tmp_path):
        """Matrix (workflow level): preprocess x corrupt_tile on the scene
        the model bootstraps from -> that scene is quarantined and the
        model trains from the next tile-yielding one — the same one, so
        the same labels, whatever the thread timing."""
        chaos_section = {
            "seed": 0,
            "faults": [{"stage": "preprocess", "kind": "corrupt_tile",
                        "match": "scene.terra.2022-01-01.000"}],
        }
        delivered = {}
        for mode, streaming in (("barrier", False), ("streaming", True)):
            config = make_config(tmp_path / mode, granules=3, chaos=chaos_section)
            report = EOMLWorkflow(config, archive=fresh_archive()).run(
                provenance=False, streaming=streaming
            )
            head = "scene.terra.2022-01-01.000"
            survivors = sorted(r.key for r in report.preprocess.results)
            assert [q.key for q in report.preprocess.quarantined] == [head]
            assert "unreadable tile file" in report.preprocess.quarantined[0].error
            assert any(f"preprocess quarantined {head}" in e for e in report.errors)
            assert survivors == ["scene.terra.2022-01-01.001", "scene.terra.2022-01-01.002"]
            assert report.inference_quarantined == []
            assert report.labelled_tiles == report.total_tiles > 0
            assert os.listdir(config.quarantine) == ["tiles_scene_terra_2022-01-01_000.nc"]
            delivered[mode] = {
                name: open(os.path.join(config.destination, name), "rb").read()
                for name in sorted(os.listdir(config.destination))
            }
            assert len(delivered[mode]) == 2
        assert delivered["streaming"] == delivered["barrier"]


# ---------------------------------------------------------------------------
# Shipment stage
# ---------------------------------------------------------------------------

def stage_outbox(config, names=("tiles_a.nc", "tiles_b.nc")):
    os.makedirs(config.transfer_out, exist_ok=True)
    for name in names:
        with open(os.path.join(config.transfer_out, name), "wb") as handle:
            handle.write(b"CDF" + name.encode())
    return list(names)


class TestShipmentResilience:
    def test_wan_degrade_recovered_by_retry(self, tmp_path):
        """Matrix: shipment x wan_degrade (transient) -> recovered."""
        config = make_config(tmp_path)
        names = stage_outbox(config)
        chaos = injector("shipment", "wan_degrade", times=1, latency=0.0)
        report = ShipmentStage(config, RunContext(chaos=chaos)).run()
        assert report.error is None
        assert sorted(os.path.basename(p) for p in report.moved) == sorted(names)
        assert report.retries >= len(names)  # each file's first move failed
        assert chaos.counts_by_kind() == {"wan_degrade": len(names)}

    def test_wan_degrade_exhaustion_reported_not_raised(self, tmp_path):
        """Matrix: shipment x wan_degrade (persistent) -> reported error."""
        config = make_config(tmp_path)
        stage_outbox(config)
        chaos = injector("shipment", "wan_degrade", times=None, latency=0.0)
        report = ShipmentStage(config, RunContext(chaos=chaos)).run()   # must not raise
        assert report.moved == []
        assert report.error is not None and "WAN degraded" in report.error
        assert report.retries == config.shipment_retries

    def test_empty_outbox_is_a_clean_no_op(self, tmp_path):
        config = make_config(tmp_path)
        report = ShipmentStage(config, RunContext(chaos=injector("shipment", "wan_degrade"))).run()
        assert report.moved == [] and report.error is None


# ---------------------------------------------------------------------------
# Resume / idempotence (original coverage, chaos-free paths)
# ---------------------------------------------------------------------------

class TestResume:
    def test_second_download_run_skips_everything(self, tmp_path):
        config = make_config(tmp_path)
        archive = fresh_archive()
        first = DownloadStage(config, archive=archive).run()
        assert first.skipped == 0
        second = DownloadStage(config, archive=archive).run()
        assert second.skipped == second.files == first.files
        # Same manifests either way.
        assert [g.key for g in second.granule_sets] == [g.key for g in first.granule_sets]

    def test_skip_existing_disabled_refetches(self, tmp_path):
        config = make_config(tmp_path, skip=False)
        archive = fresh_archive()
        DownloadStage(config, archive=archive).run()
        second = DownloadStage(config, archive=archive).run()
        assert second.skipped == 0

    def test_preprocess_resume_is_idempotent(self, tmp_path):
        config = make_config(tmp_path)
        archive = fresh_archive()
        download = DownloadStage(config, archive=archive).run()
        first = PreprocessStage(config).run(download.granule_sets)
        mtimes = {
            r.tile_path: os.path.getmtime(r.tile_path)
            for r in first.results if r.tile_path
        }
        second = PreprocessStage(config).run(download.granule_sets)
        assert second.total_tiles == first.total_tiles
        for result in second.results:
            if result.tile_path:
                # The file was not rewritten.
                assert os.path.getmtime(result.tile_path) == mtimes[result.tile_path]

    def test_preprocess_skip_reports_tile_count_from_file(self, tmp_path):
        config = make_config(tmp_path)
        archive = fresh_archive()
        download = DownloadStage(config, archive=archive).run()
        gs = download.granule_sets[0]
        first = PreprocessStage(config).execute(gs)
        again = PreprocessStage(config).execute(gs)
        assert again.tiles == first.tiles
        assert again.tile_path == first.tile_path

    def test_failed_run_releases_the_journal_and_resumes_in_process(
        self, tmp_path, monkeypatch
    ):
        """A run that dies mid-plan must not leak the journal's file
        handle: the same process resumes the run from that journal."""
        import repro.core.context as context_module

        opened = []

        class RecordingJournal(context_module.WorkflowJournal):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(context_module, "WorkflowJournal", RecordingJournal)
        outage = {"seed": 0, "faults": [
            {"stage": "download", "kind": "http_permanent", "rate": 1.0},
        ]}
        doomed = make_config(tmp_path, retries=1, on_exhausted="raise",
                             breaker_threshold=50, chaos=outage)
        with pytest.raises(Exception, match="download of"):
            EOMLWorkflow(doomed, archive=fresh_archive()).run(provenance=False)
        assert len(opened) == 1
        assert opened[0].journal._handle is None   # closed on the error path

        healed = make_config(tmp_path, retries=1, on_exhausted="raise")
        report = EOMLWorkflow(healed, archive=fresh_archive()).run(
            provenance=False, resume=True
        )
        assert report.errors == []
        assert report.shipment.moved
        assert opened[1].journal._handle is None   # and on the normal one

    def test_rerun_after_chaos_run_heals_the_damage(self, tmp_path):
        """A chaos-free re-run on the same directories completes the work
        a faulted run left behind (the operational recovery story)."""
        config = make_config(tmp_path, retries=1, on_exhausted="skip",
                             breaker_threshold=50)
        chaos = injector("download", "http_permanent", rate=0.15, seed=3)
        faulted = DownloadStage(config, RunContext(chaos=chaos), archive=fresh_archive()).run()
        assert faulted.incomplete  # the fault cost at least one scene
        healed = DownloadStage(config, archive=fresh_archive()).run()
        assert healed.incomplete == [] and healed.failed == []
        assert len(healed.granule_sets) == 2
        assert healed.skipped == faulted.files  # prior successes reused


# ---------------------------------------------------------------------------
# Simulated HTTP failure model (the sim twin of the same failure surface)
# ---------------------------------------------------------------------------

class TestHttpFailureInjection:
    def test_failure_rate_fails_some_requests(self):
        sim = Simulation()
        server = HttpServer(sim, request_overhead=0.0, failure_rate=0.5, seed=1)
        outcomes = {"ok": 0, "failed": 0}

        def client(i):
            try:
                yield server.request(100, label=f"f{i}")
                outcomes["ok"] += 1
            except HttpError:
                outcomes["failed"] += 1

        for i in range(40):
            sim.process(client(i))
        sim.run()
        assert outcomes["ok"] + outcomes["failed"] == 40
        assert 5 < outcomes["failed"] < 35
        assert server.requests_failed == outcomes["failed"]

    def test_retry_loop_eventually_succeeds(self):
        sim = Simulation()
        server = HttpServer(sim, request_overhead=0.1, failure_rate=0.3, seed=2)
        done = {}

        def client():
            attempts = 0
            while True:
                attempts += 1
                try:
                    result = yield server.request(1000, label="retry-me")
                    done["attempts"] = attempts
                    done["finished"] = result.finished_at
                    return
                except HttpError:
                    continue

        sim.process(client())
        sim.run()
        assert done["attempts"] >= 1
        assert done["finished"] > 0

    def test_invalid_failure_rate(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            HttpServer(sim, failure_rate=1.5)
