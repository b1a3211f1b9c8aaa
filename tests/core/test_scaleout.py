"""Horizontal scale-out equivalence and crash recovery.

The multi-process pool must be *invisible* in the output: a run sharded
across N worker processes ships the same golden corpus, byte for byte,
as the sequential run — including when a worker is killed mid-stage and
the run is resumed from the journal.  These tests drive the real
workflow (and the subprocess crash driver) at the golden-corpus seed.
"""

import concurrent.futures as cf
import hashlib
import json
import os
import subprocess
import sys

import pytest

from tests.core.crash_driver import build_raw_config

from repro.core import DownloadStage, EOMLWorkflow, InferenceWorker, PreprocessStage, load_config
from repro.core.context import RunContext, open_run
from repro.core.download import GranuleSet
from repro.core.scaleout import StageWorker, worker_payload
from repro.journal import WorkflowJournal
from repro.modis import MINI_SWATH, LaadsArchive
from repro.netcdf import read as nc_read
from repro.ricc import AICCAModel
from repro.runtime import ProcWorkerPool, WorkEnvelope, WorkerSpec

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_corpus.json")
DRIVER = os.path.join(os.path.dirname(__file__), "crash_driver.py")
SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
)


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


def load_golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def run_golden(tmp_path, runtime=None):
    golden = load_golden()
    raw = build_raw_config(str(tmp_path), golden["granules"])
    if runtime:
        raw["runtime"] = runtime
    config = load_config(raw)
    workflow = EOMLWorkflow(
        config, archive=LaadsArchive(seed=golden["seed"], swath=MINI_SWATH)
    )
    report = workflow.run(provenance=False)
    return golden, config, report


def run_driver(root, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, DRIVER, str(root), *extra],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


class TestGoldenEquivalence:
    def test_two_workers_ship_the_golden_corpus(self, tmp_path):
        golden, config, report = run_golden(tmp_path, runtime={"workers": 2})
        assert report.errors == []
        assert delivered_digests(config.destination) == golden["files"]
        scaleout = report.scaleout
        assert scaleout["enabled"] is True
        assert scaleout["workers_launched"] == 2
        assert scaleout["units_executed"] > 0
        assert scaleout["busy_seconds"] > 0
        assert len(scaleout["per_worker"]) == 2
        # Every executed unit is attributed to exactly one worker.
        assert sum(w["units"] for w in scaleout["per_worker"]) == (
            scaleout["units_executed"]
        )

    def test_elastic_pool_ships_the_golden_corpus(self, tmp_path):
        golden, config, report = run_golden(
            tmp_path,
            runtime={
                "workers": 1,
                "elastic": {
                    "enabled": True,
                    "min_workers": 1,
                    "max_workers": 3,
                    "tasks_per_worker_target": 1.0,
                    "idle_retire_seconds": 0.05,
                },
            },
        )
        assert report.errors == []
        assert delivered_digests(config.destination) == golden["files"]
        assert report.scaleout["enabled"] is True
        # Demand (6 downloads at once against a 1-worker floor with a
        # target of 1 task/worker) must have forced at least one
        # scale-out; the idle tail must have retired at least one.
        assert report.scaleout["scale_out_events"] > 0
        assert report.scaleout["scale_in_events"] > 0

    def test_streaming_with_workers_ships_the_golden_corpus(self, tmp_path):
        golden, config, report = run_golden(
            tmp_path, runtime={"workers": 2, "stream": {"enabled": True}}
        )
        assert report.errors == []
        assert delivered_digests(config.destination) == golden["files"]

    def test_single_process_reports_zero_scaleout(self, tmp_path):
        _, _, report = run_golden(tmp_path)
        assert report.scaleout == {
            "enabled": False,
            "units_executed": 0,
            "busy_seconds": 0.0,
            "requeues": 0,
            "respawns": 0,
            "scale_out_events": 0,
            "scale_in_events": 0,
            "workers_launched": 0,
            "per_worker": [],
        }


class TestCountersComeHome:
    @pytest.mark.parametrize("runtime", [None, {"workers": 2}], ids=["inline", "pool"])
    def test_breaker_trips_reach_the_report_wherever_downloads_ran(
        self, tmp_path, runtime
    ):
        """The breakers that trip live in whichever process fetched; the
        report must count them in every mode."""
        raw = build_raw_config(str(tmp_path), 4)
        raw["download"] = {
            "workers": 2, "retries": 1, "on_exhausted": "skip",
            "breaker_threshold": 2, "backoff_base": 0.001, "backoff_total": 0.05,
        }
        raw["chaos"] = {"seed": 0, "faults": [
            {"stage": "download", "kind": "http_permanent", "rate": 1.0},
        ]}
        if runtime:
            raw["runtime"] = runtime
        # Every fetch fails, so no scene survives to bootstrap from: the
        # supplied (never used) model lets the run finish and report.
        workflow = EOMLWorkflow(
            load_config(raw), model=object(),
            archive=LaadsArchive(seed=3, swath=MINI_SWATH),
        )
        report = workflow.run(provenance=False)
        assert report.download.failed and not report.download.granule_sets
        assert report.download.breaker_trips > 0

    def test_injected_faults_reach_the_ledger_wherever_they_fired(self, tmp_path):
        """A fault fires in whichever process ran the unit; the report's
        chaos ledger must count the same seeded faults whether or not a
        pool ran them."""
        ledgers = {}
        for mode, runtime in (("inline", None), ("pool", {"workers": 2})):
            raw = build_raw_config(str(tmp_path / mode), 3)
            raw["download"] = {"workers": 2, "backoff_base": 0.001, "backoff_total": 0.05}
            raw["chaos"] = {"seed": 11, "faults": [
                {"stage": "download", "kind": "http_transient", "rate": 0.6, "times": 1},
                {"stage": "preprocess", "kind": "worker_stall", "rate": 1.0,
                 "times": 1, "latency": 0.001},
            ]}
            if runtime:
                raw["runtime"] = runtime
            workflow = EOMLWorkflow(
                load_config(raw), archive=LaadsArchive(seed=3, swath=MINI_SWATH)
            )
            report = workflow.run(provenance=False)
            assert report.errors == []
            ledgers[mode] = report.chaos
            assert report.chaos["faults_injected"] > 0
            assert report.chaos["by_kind"]["http_transient"] > 0
            assert report.chaos["by_kind"]["worker_stall"] > 0
        assert ledgers["pool"]["by_kind"] == ledgers["inline"]["by_kind"]
        assert ledgers["pool"]["by_stage"] == ledgers["inline"]["by_stage"]

    @pytest.mark.parametrize("runtime", [None, {"workers": 2}], ids=["inline", "pool"])
    def test_resume_counters_have_one_home_wherever_units_ran(self, tmp_path, runtime):
        """Resuming a finished run resumes every journaled completion,
        whichever process resumed it: the report sums them all, and the
        journal summary repeats none of the driver's own share."""
        raw = build_raw_config(str(tmp_path), 3)
        if runtime:
            raw["runtime"] = runtime
        config = load_config(raw)
        archive = LaadsArchive(seed=3, swath=MINI_SWATH)
        first = EOMLWorkflow(config, archive=archive).run(provenance=False)
        assert first.errors == [] and first.resumed_items == 0
        with WorkflowJournal(config.journal_dir) as journal:
            journal.start(resume=True)
            completions = len(journal.state.completions)

        report = EOMLWorkflow(config, archive=archive).run(provenance=False, resume=True)
        assert report.errors == []
        assert report.resumed_items == completions > 0
        assert report.replayed_items == 0
        assert set(report.journal) == {"directory", "torn_records", "manifest_entries"}


def _tree(root):
    """Every file under ``root`` -> its bytes."""
    out = {}
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = handle.read()
    return out


def _completions(journal_dir):
    """(stage, key) -> journaled payload (minus the run-directory-specific
    artifact path), replayed from the journal file itself."""
    with WorkflowJournal(journal_dir) as journal:
        journal.start(resume=True)
        return {
            site: {k: v for k, v in payload.items() if k != "artifact"}
            for site, payload in journal.state.completions.items()
        }


class TestExecutorEquivalence:
    """One unit, two executors: ``stage.execute(payload)`` called here and
    the same payload shipped as a ``WorkEnvelope`` to a ``StageWorker``
    must return equal results, leave byte-identical artifacts, and
    journal equal completions."""

    def _run_units(self, root, remote):
        """Drive one download ref, one granule set and one tile file
        through ``call(kind, key, stage_factory, payload)``; returns the
        three results plus the run directory's bytes and completions."""
        config = load_config(build_raw_config(str(root), 1))
        archive = LaadsArchive(seed=3, swath=MINI_SWATH)
        if remote:
            worker = StageWorker(worker_payload(config, archive))
            ctx = worker.ctx

            def call(kind, key, _build, payload):
                return worker(WorkEnvelope(kind, key, payload))
        else:
            ctx = open_run(config, resume=True)

            def call(_kind, _key, build, payload):
                return build().execute(payload)

        try:
            planner = DownloadStage(config, archive=archive)
            os.makedirs(config.staging, exist_ok=True)
            refs = [r for r in planner.plan()
                    if r.gid.scene_key == planner.plan()[0].gid.scene_key]
            fetched = [
                call("download", ref.filename,
                     lambda: DownloadStage(config, ctx, archive=archive), ref)
                for ref in refs
            ]
            granules = GranuleSet(
                key=refs[0].gid.scene_key,
                paths={r.gid.product: path for r, path, *_ in fetched},
            )
            tiled = call("preprocess", granules.key,
                         lambda: PreprocessStage(config, ctx), granules)
            tiles = nc_read(tiled.tile_path)["radiance"].data
            model, _history = AICCAModel.train(
                tiles, num_classes=2, latent_dim=8, hidden=(64,), epochs=8,
                seed=config.seed,
            )
            (labelled,) = call(
                "inference", os.path.basename(tiled.tile_path),
                lambda: InferenceWorker(None, config, ctx),
                ([(tiled.tile_path, tiled.sha256)], ("object", model)),
            )
        finally:
            ctx.close()
        completions = _completions(config.journal_dir)
        data = os.path.join(str(root), "data")
        files = {name: blob for name, blob in _tree(data).items()
                 if not name.startswith("journal")}
        strip = lambda path: os.path.relpath(path, str(root))  # noqa: E731
        results = (
            [(r.filename, strip(path), nbytes, outcome, attempts, error, digest)
             for r, path, nbytes, _s, outcome, attempts, error, digest in fetched],
            (tiled.key, strip(tiled.tile_path), tiled.tiles, tiled.outcome),
            (labelled[0], strip(labelled[1].src_path), strip(labelled[1].out_path),
             labelled[1].tiles, labelled[1].classes_seen),
        )
        return results, files, completions

    def test_in_process_and_worker_agree(self, tmp_path):
        inline = self._run_units(tmp_path / "inline", remote=False)
        shipped = self._run_units(tmp_path / "worker", remote=True)
        assert inline[0] == shipped[0]          # returned results
        assert inline[1] == shipped[1]          # artifacts, byte for byte
        assert inline[1]                        # ... and there were some
        assert inline[2] == shipped[2]          # journal completions
        assert {stage for stage, _ in inline[2]} == {
            "download", "preprocess", "inference"
        }


class _Doubler:
    """The least a stage owes ``ctx.submit``: a kind, a width, a body."""

    kind = "doubler"
    workers = 2

    def execute(self, payload):
        return payload * 2


class TestOneFutureType:
    def test_submit_returns_a_stdlib_future_on_every_executor(self, tmp_path):
        """Stage threads and the process pool both hand back
        ``concurrent.futures.Future``, so the standard library's ``wait``
        takes any mix of them."""
        config = load_config(build_raw_config(str(tmp_path), 1))
        local, pooled = RunContext(), RunContext()
        pooled.pool = ProcWorkerPool(
            WorkerSpec(target="tests.runtime.proc_targets:build_echo"), name="t"
        ).start()
        labeller = InferenceWorker(None, config, local)
        try:
            futures = [
                local.submit(_Doubler(), "k", 21),
                # No such tile file: the unit settles as a quarantine outcome.
                local.submit(labeller, "missing.nc", (
                    [(str(tmp_path / "missing.nc"), None)], ("object", None),
                )),
                pooled.submit(_Doubler(), "k", 21),
            ]
            assert [type(future) for future in futures] == [cf.Future] * 3
            done, pending = cf.wait(futures, timeout=30.0)
            assert not pending
            assert futures[0].result() == 42
            assert futures[1].result()[0][0] == "quarantined"
            assert futures[2].result()[:3] == ("doubler", "k", 21)
        finally:
            pooled.pool.close()
            local.close()


class TestMultiprocessCrashRecovery:
    """Kill a worker process mid-stage, resume, require the golden bytes."""

    @pytest.mark.parametrize("stage", ["download", "inference"])
    def test_worker_kill_then_resume_ships_golden(self, stage, tmp_path):
        golden = load_golden()

        crashed = run_driver(
            tmp_path, "--workers", "2", "--crash-stage", stage,
            "--granules", str(golden["granules"]),
        )
        # The chaos crash kills *worker* processes now.  The pool
        # requeues the unit once onto a fresh worker; the respawned
        # injector deterministically fires again, so the requeue budget
        # exhausts and the parent aborts with a nonzero exit (a
        # different path from the parent's own os._exit, but still a
        # hard failure the operator must resume from).
        assert crashed.returncode != 0, (
            f"crash fault at {stage!r} did not abort the pooled run:\n"
            f"{crashed.stdout}\n{crashed.stderr}"
        )

        resumed = run_driver(
            tmp_path, "--workers", "2", "--resume",
            "--granules", str(golden["granules"]),
        )
        assert resumed.returncode == 0, resumed.stderr

        dest = os.path.join(str(tmp_path), "data", "orion")
        assert delivered_digests(dest) == golden["files"]

    def test_preprocess_crash_then_resume_ships_golden(self, tmp_path):
        # The preprocess crash surface fires inside the worker during
        # the model-bootstrap scene as well; resume must still converge.
        golden = load_golden()
        crashed = run_driver(
            tmp_path, "--workers", "2", "--crash-stage", "preprocess",
            "--granules", str(golden["granules"]),
        )
        assert crashed.returncode != 0
        resumed = run_driver(
            tmp_path, "--workers", "2", "--resume",
            "--granules", str(golden["granules"]),
        )
        assert resumed.returncode == 0, resumed.stderr
        dest = os.path.join(str(tmp_path), "data", "orion")
        assert delivered_digests(dest) == golden["files"]
