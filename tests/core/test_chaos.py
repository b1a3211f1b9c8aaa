"""The chaos engine: plans, deterministic injection, surfaces, and the
workflow-level acceptance run.

Three layers are pinned here:

* the **plan** (YAML contract: parsing, validation, round-trips);
* the **engine** (decisions are a function of (seed, spec, key) — never
  of arrival order — so concurrent stages reproduce exactly);
* the **workflow**: chaos off is a zero-overhead passthrough
  (byte-identical artifacts), and a seeded plan spanning four-plus fault
  kinds leaves the run *degraded but complete* — the paper's operational
  reality, survived.
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.chaos import (
    FAULT_KINDS,
    STAGES,
    ChaosArchive,
    ChaosTransferClient,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    build_injector,
    chaos_atomic_write,
    chaos_stall,
    damage_file,
    load_plan,
)
from repro.core import EOMLWorkflow, load_config
from repro.modis import MINI_SWATH, LaadsArchive
from repro.netcdf import Dataset, NcFormatError, read as nc_read
from repro.transfer import TransferError
from repro.util.config import ConfigError


def small_dataset():
    ds = Dataset()
    ds.create_dimension("x", 8)
    ds.create_variable("v", "f4", ("x",), np.arange(8, dtype=np.float32))
    return ds


def make_config(tmp_path, chaos=None, granules=2, **download):
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
        "download": {"workers": 2, "backoff_base": 0.001, "backoff_total": 0.05,
                     **download},
        "preprocess": {"workers": 2, "tile_size": 16},
    }
    if chaos is not None:
        mapping["chaos"] = chaos
    return load_config(mapping)


class TestFaultPlanParsing:
    def test_yaml_text_with_chaos_wrapper(self):
        plan = load_plan(
            "chaos:\n"
            "  seed: 7\n"
            "  faults:\n"
            "    - stage: download\n"
            "      kind: http_transient\n"
            "      rate: 0.5\n"
            "      times: 2\n"
        )
        assert plan.seed == 7
        assert plan.enabled and plan.active
        assert plan.faults == (
            FaultSpec("download", "http_transient", rate=0.5, times=2),
        )

    def test_bare_mapping(self):
        plan = load_plan({"faults": [{"stage": "shipment", "kind": "wan_degrade"}]})
        assert plan.seed == 0
        assert plan.stages() == ("shipment",)
        assert plan.kinds() == ("wan_degrade",)

    def test_empty_plan_is_inactive(self):
        plan = load_plan({})
        assert not plan.active
        assert build_injector(plan) is None
        assert build_injector(None) is None

    def test_disabled_plan_is_inactive(self):
        plan = load_plan(
            {"enabled": False,
             "faults": [{"stage": "download", "kind": "slow_fetch"}]}
        )
        assert not plan.active
        assert build_injector(plan) is None

    @pytest.mark.parametrize(
        "faults",
        [
            [{"stage": "orbit", "kind": "slow_fetch"}],
            [{"stage": "download", "kind": "gamma_ray"}],
            [{"stage": "download", "kind": "slow_fetch", "rate": 1.5}],
            [{"stage": "download", "kind": "slow_fetch", "times": 0}],
            [{"stage": "download", "kind": "slow_fetch", "latency": -1}],
            ["not-a-mapping"],
            "not-a-list",
        ],
    )
    def test_malformed_plans_rejected(self, faults):
        with pytest.raises(ConfigError):
            load_plan({"faults": faults})

    def test_non_mapping_document_rejected(self):
        with pytest.raises(ConfigError):
            load_plan("- just\n- a\n- list\n")

    def test_permanent_kinds_force_unbounded_times(self):
        spec = FaultSpec("download", "http_permanent", times=3)
        assert spec.times is None  # permanent damage does not heal
        assert FaultSpec("preprocess", "corrupt_tile", times=1).times is None
        assert FaultSpec("download", "http_transient", times=3).times == 3

    def test_with_seed_and_round_trip(self):
        plan = load_plan({"seed": 1, "faults": [
            {"stage": "preprocess", "kind": "torn_write", "rate": 0.25},
        ]})
        reseeded = plan.with_seed(99)
        assert reseeded.seed == 99 and reseeded.faults == plan.faults
        assert FaultPlan.from_mapping(plan.to_mapping()) == plan

    def test_stage_and_kind_vocabulary(self):
        assert STAGES == ("download", "preprocess", "inference",
                          "shipment", "agent", "net", "cache")
        assert set(FAULT_KINDS) >= {"http_transient", "torn_write", "corrupt_tile",
                                    "wan_degrade", "worker_stall"}
        assert set(FAULT_KINDS) >= {"partition", "blackout", "flaky",
                                    "slow_link", "reset"}
        assert set(FAULT_KINDS) >= {"cache_corrupt", "cache_enospc"}


class TestFaultInjector:
    def plan(self, **spec_kwargs):
        return FaultPlan(seed=11, faults=(FaultSpec(**spec_kwargs),))

    def test_rate_one_selects_every_key(self):
        chaos = FaultInjector(self.plan(stage="download", kind="http_transient",
                                        rate=1.0, times=1))
        for key in ("a", "b", "c"):
            assert chaos.would_select("download", "http_transient", key)

    def test_times_caps_firing_per_key(self):
        chaos = FaultInjector(self.plan(stage="download", kind="http_transient",
                                        rate=1.0, times=2))
        assert len(chaos.fire("download", "http_transient", "f")) == 1
        assert len(chaos.fire("download", "http_transient", "f")) == 1
        assert chaos.fire("download", "http_transient", "f") == []  # budget spent
        assert len(chaos.fire("download", "http_transient", "g")) == 1  # per key

    def test_unbounded_fault_fires_forever(self):
        chaos = FaultInjector(self.plan(stage="download", kind="http_permanent"))
        for _ in range(5):
            assert chaos.fire("download", "http_permanent", "f")
        assert chaos.faults_injected == 5

    def test_unmatched_site_is_a_no_op(self):
        chaos = FaultInjector(self.plan(stage="download", kind="http_transient"))
        assert chaos.fire("shipment", "wan_degrade", "f") == []
        assert chaos.faults_injected == 0

    def test_selection_is_deterministic_and_order_independent(self):
        plan = self.plan(stage="preprocess", kind="torn_write", rate=0.5, times=1)
        keys = [f"scene-{i}" for i in range(40)]
        first = FaultInjector(plan)
        hit_forward = [k for k in keys if first.fire("preprocess", "torn_write", k)]
        second = FaultInjector(plan)
        hit_backward = [k for k in reversed(keys)
                        if second.fire("preprocess", "torn_write", k)]
        assert sorted(hit_forward) == sorted(hit_backward)
        assert 0 < len(hit_forward) < len(keys)  # a real subset at rate 0.5

    def test_seed_changes_selection(self):
        keys = [f"scene-{i}" for i in range(40)]
        spec = dict(stage="preprocess", kind="torn_write", rate=0.5, times=1)
        a = FaultInjector(FaultPlan(seed=1, faults=(FaultSpec(**spec),)))
        b = FaultInjector(FaultPlan(seed=2, faults=(FaultSpec(**spec),)))
        assert (
            [k for k in keys if a.would_select("preprocess", "torn_write", k)]
            != [k for k in keys if b.would_select("preprocess", "torn_write", k)]
        )

    def test_would_select_moves_no_counters(self):
        chaos = FaultInjector(self.plan(stage="download", kind="http_transient",
                                        rate=1.0, times=1))
        assert chaos.would_select("download", "http_transient", "f")
        assert chaos.faults_injected == 0
        assert len(chaos.fire("download", "http_transient", "f")) == 1

    def test_ledger_and_summary_accounting(self):
        plan = FaultPlan(seed=0, faults=(
            FaultSpec("download", "http_transient", times=1),
            FaultSpec("shipment", "wan_degrade", times=1, latency=0.2),
        ))
        chaos = FaultInjector(plan)
        chaos.fire("download", "http_transient", "a")
        chaos.fire("shipment", "wan_degrade", "b")
        chaos.fire("shipment", "wan_degrade", "c")
        assert chaos.counts_by_kind() == {"http_transient": 1, "wan_degrade": 2}
        assert chaos.counts_by_stage() == {"download": 1, "shipment": 2}
        summary = chaos.summary()
        assert summary["faults_injected"] == 3 == chaos.faults_injected
        assert summary["by_kind"]["wan_degrade"] == 2
        event = chaos.ledger[-1]
        assert event.ordinal == 1 and event.latency == 0.2
        assert "wan_degrade" in event.describe()


class TestChaosSurfaces:
    def injector(self, stage, kind, **kwargs):
        return FaultInjector(
            FaultPlan(seed=0, faults=(FaultSpec(stage, kind, **kwargs),))
        )

    def test_damage_file_truncates(self, tmp_path):
        path = tmp_path / "whole.bin"
        path.write_bytes(b"x" * 100)
        damage_file(str(path), keep_fraction=0.25)
        assert path.stat().st_size == 25
        with pytest.raises(ValueError):
            damage_file(str(path), keep_fraction=1.0)

    def test_atomic_write_without_chaos(self, tmp_path):
        import hashlib

        final = tmp_path / "out.nc"
        nbytes, digest = chaos_atomic_write(small_dataset(), str(final))
        assert final.stat().st_size == nbytes
        # The digest computed during the write matches the final bytes.
        assert digest == hashlib.sha256(final.read_bytes()).hexdigest()
        assert not os.path.exists(str(final) + ".part")
        nc_read(str(final))  # parses cleanly

    def test_torn_write_leaves_part_and_raises(self, tmp_path):
        chaos = self.injector("preprocess", "torn_write", times=1)
        final = tmp_path / "tiles_a.nc"
        with pytest.raises(OSError, match="torn write"):
            chaos_atomic_write(small_dataset(), str(final), chaos=chaos,
                               stage="preprocess", key="a")
        assert not final.exists()  # never renamed
        assert os.path.exists(str(final) + ".part")
        # The retry of the same key succeeds (times budget spent) and
        # the completed write replaces the torn temp file.
        chaos_atomic_write(small_dataset(), str(final), chaos=chaos,
                           stage="preprocess", key="a")
        assert final.exists() and not os.path.exists(str(final) + ".part")

    def test_corrupt_tile_is_crawler_visible_but_unreadable(self, tmp_path):
        chaos = self.injector("preprocess", "corrupt_tile")
        final = tmp_path / "tiles_a.nc"
        chaos_atomic_write(small_dataset(), str(final), chaos=chaos,
                           stage="preprocess", key="a")
        assert final.exists()  # well-named, crawler would trigger on it
        with pytest.raises(NcFormatError):
            nc_read(str(final))

    def test_chaos_stall_sleeps_and_none_passthrough(self):
        slept = []
        chaos = self.injector("inference", "worker_stall", times=1, latency=0.3)
        assert chaos_stall(chaos, "inference", "f", sleeper=slept.append) == 0.3
        assert slept == [0.3]
        assert chaos_stall(chaos, "inference", "f", sleeper=slept.append) == 0.0
        assert chaos_stall(None, "inference", "f", sleeper=slept.append) == 0.0
        assert slept == [0.3]

    def test_chaos_archive_failures_and_delegation(self):
        fetched = []

        class Inner:
            seed = 42

            def fetch(self, ref, bands=None):
                fetched.append(ref.filename)
                return "dataset"

        chaos = FaultInjector(FaultPlan(seed=0, faults=(
            FaultSpec("download", "http_transient", times=1),
            FaultSpec("download", "slow_fetch", times=1, latency=0.1),
        )))
        slept = []
        archive = ChaosArchive(Inner(), chaos, sleeper=slept.append)
        assert archive.seed == 42  # everything but fetch delegates
        ref = SimpleNamespace(filename="granule-1")
        with pytest.raises(OSError, match="503"):
            archive.fetch(ref)
        assert fetched == []       # the failure happened at the archive
        assert slept == [0.1]      # after the slow stream stalled
        assert archive.fetch(ref) == "dataset"  # the retry goes through

    def test_chaos_archive_permanent_never_recovers(self):
        class Inner:
            def fetch(self, ref, bands=None):  # pragma: no cover - unreachable
                raise AssertionError("permanent fault must not reach the archive")

        chaos = FaultInjector(FaultPlan(seed=0, faults=(
            FaultSpec("download", "http_permanent"),
        )))
        archive = ChaosArchive(Inner(), chaos)
        for _ in range(4):
            with pytest.raises(OSError, match="permanent"):
                archive.fetch(SimpleNamespace(filename="granule-1"))

    def test_chaos_transfer_client_wan_degrade_then_recovery(self, tmp_path):
        src, dst = tmp_path / "src", tmp_path / "dst"
        src.mkdir()
        (src / "tiles_a.nc").write_bytes(b"CDF-labelled")
        chaos = self.injector("shipment", "wan_degrade", times=1)
        client = ChaosTransferClient(chaos, retries=2, sleeper=lambda _s: None)
        moved = client.transfer(str(src), str(dst), ["tiles_a.nc"])
        assert [os.path.basename(p) for p in moved] == ["tiles_a.nc"]
        assert client.retries_used >= 1

    def test_chaos_transfer_client_exhaustion_raises(self, tmp_path):
        src, dst = tmp_path / "src", tmp_path / "dst"
        src.mkdir()
        (src / "tiles_a.nc").write_bytes(b"CDF-labelled")
        chaos = self.injector("shipment", "wan_degrade", times=None)
        client = ChaosTransferClient(chaos, retries=2, sleeper=lambda _s: None)
        with pytest.raises(TransferError, match="WAN degraded"):
            client.transfer(str(src), str(dst), ["tiles_a.nc"])


class TestConfigIntegration:
    def test_chaos_section_parses_into_plan(self, tmp_path):
        config = make_config(tmp_path, chaos={
            "seed": 5,
            "faults": [{"stage": "download", "kind": "slow_fetch", "rate": 0.5}],
        })
        assert isinstance(config.chaos, FaultPlan)
        assert config.chaos.seed == 5 and config.chaos.active

    def test_absent_chaos_section_yields_none(self, tmp_path):
        assert make_config(tmp_path).chaos is None

    def test_malformed_chaos_section_fails_config_load(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, chaos={"faults": [{"stage": "nope",
                                                     "kind": "slow_fetch"}]})


class TestCliChaosFlags:
    def test_chaos_seed_without_plan_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        config = tmp_path / "wf.yaml"
        config.write_text(
            "archive:\n  start_date: 2022-01-01\n  max_granules_per_day: 1\n"
        )
        assert main(["run", str(config), "--chaos-seed", "9"]) == 2
        assert "needs a chaos plan" in capsys.readouterr().err

    def test_chaos_flag_loads_and_reseeds_plan(self, tmp_path, monkeypatch, capsys):
        from repro import cli

        config_path = tmp_path / "wf.yaml"
        config_path.write_text(
            "archive:\n  start_date: 2022-01-01\n  max_granules_per_day: 1\n"
        )
        plan_path = tmp_path / "plan.yaml"
        plan_path.write_text(
            "chaos:\n  seed: 4\n  faults:\n"
            "    - stage: download\n      kind: slow_fetch\n      latency: 0.0\n"
        )
        captured = {}

        class FakeWorkflow:
            def __init__(self, config):
                captured["chaos"] = config.chaos

            def run(self, provenance=True, resume=False):
                raise SystemExit(0)  # the plumbing, not the pipeline, is under test

        monkeypatch.setattr("repro.core.EOMLWorkflow", FakeWorkflow)
        with pytest.raises(SystemExit):
            cli.main(["run", str(config_path), "--chaos", str(plan_path),
                      "--chaos-seed", "77"])
        assert captured["chaos"].seed == 77
        assert captured["chaos"].kinds() == ("slow_fetch",)
        assert "chaos:" in capsys.readouterr().out


@pytest.fixture(scope="module")
def mini_archive():
    return LaadsArchive(seed=3, swath=MINI_SWATH)


def artifact_bytes(root):
    """Every delivered artifact under ``root`` as {name: bytes}."""
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            with open(os.path.join(dirpath, name), "rb") as handle:
                out[name] = handle.read()
    return out


class TestZeroOverheadPassthrough:
    def test_disabled_chaos_is_byte_identical_to_no_chaos(self, tmp_path,
                                                          mini_archive):
        disabled = {
            "enabled": False,
            "seed": 1,
            "faults": [{"stage": "download", "kind": "http_permanent"}],
        }
        plain = EOMLWorkflow(
            make_config(tmp_path / "plain"), archive=mini_archive
        ).run(provenance=False)
        chaotic = EOMLWorkflow(
            make_config(tmp_path / "disabled", chaos=disabled), archive=mini_archive
        ).run(provenance=False)
        for report in (plain, chaotic):
            assert report.chaos is None
            assert not report.errors
            assert report.quarantined == 0
        assert chaotic.download.nbytes == plain.download.nbytes
        assert chaotic.download.retry_attempts == plain.download.retry_attempts == 0
        assert [g.key for g in chaotic.download.granule_sets] == \
               [g.key for g in plain.download.granule_sets]
        assert chaotic.total_tiles == plain.total_tiles
        assert chaotic.labelled_tiles == plain.labelled_tiles
        # The delivered artifacts are byte-for-byte the same.
        plain_files = artifact_bytes(tmp_path / "plain" / "orion")
        chaotic_files = artifact_bytes(tmp_path / "disabled" / "orion")
        assert plain_files.keys() == chaotic_files.keys() and plain_files
        for name in plain_files:
            assert plain_files[name] == chaotic_files[name], name
        # The resilience counters read zero.
        assert chaotic.download.breaker_trips == plain.download.breaker_trips == 0


class TestChaosEndToEnd:
    """The acceptance run: >= 4 fault kinds across the five stages, one
    seeded plan, and the workflow finishes degraded-but-complete."""

    PLAN = {
        "seed": 13,
        "faults": [
            {"stage": "download", "kind": "http_transient", "rate": 0.4, "times": 1},
            {"stage": "download", "kind": "http_permanent", "rate": 0.08},
            {"stage": "download", "kind": "torn_write", "rate": 0.3, "times": 1},
            {"stage": "download", "kind": "slow_fetch", "rate": 0.3, "times": 1,
             "latency": 0.002},
            {"stage": "preprocess", "kind": "worker_stall", "rate": 1.0, "times": 1,
             "latency": 0.002},
            {"stage": "shipment", "kind": "wan_degrade", "rate": 0.4, "times": 1,
             "latency": 0.002},
        ],
    }

    def test_workflow_survives_multi_kind_fault_plan(self, tmp_path, mini_archive):
        config = make_config(
            tmp_path, chaos=self.PLAN, granules=4,
            retries=3, on_exhausted="skip", breaker_threshold=12,
        )
        report = EOMLWorkflow(config, archive=mini_archive).run()

        # The run completed; the permanently failing granule cost one
        # scene (quarantined), everything else was labelled and shipped.
        assert report.chaos is not None
        by_kind = report.chaos["by_kind"]
        assert len(by_kind) >= 4, by_kind
        assert report.chaos["faults_injected"] == sum(by_kind.values())
        assert report.total_tiles > 0
        assert report.labelled_tiles >= 0.9 * report.total_tiles
        assert report.quarantined >= 1
        assert len(report.download.incomplete) == 1
        assert report.download.failed and "failed after" in report.download.failed[0]
        assert report.download.retried >= 1        # transients recovered
        assert report.download.retry_attempts >= 1
        assert report.shipment is not None
        assert report.shipment.error is None       # WAN degrade was absorbed
        assert report.shipment.retries >= 1
        assert len(report.shipment.moved) == len(report.inference)

        # Errors are reported, not raised.
        assert any("incomplete scene dropped" in e for e in report.errors)
        # The report's ledger accounts for every injected fault by stage too.
        assert sum(report.chaos["by_stage"].values()) == report.chaos["faults_injected"]

    def test_same_seed_reproduces_the_same_fault_set(self, tmp_path, mini_archive):
        kinds = {}
        for run in ("a", "b"):
            config = make_config(
                tmp_path / run, chaos=self.PLAN, granules=4,
                retries=3, on_exhausted="skip", breaker_threshold=12,
            )
            report = EOMLWorkflow(config, archive=mini_archive).run(provenance=False)
            kinds[run] = (report.chaos["by_kind"],
                          sorted(report.download.incomplete))
        assert kinds["a"] == kinds["b"]
