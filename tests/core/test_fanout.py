"""Instrument x model fan-out: one config, four branches, same bytes.

A ``{modis, abi} x {ricc, heuristic}`` config must fan the plan out into
four branches that deliver into per-branch destination directories, with
each branch's labels attributed to its own model — and the per-branch
corpus must be byte-identical whichever engine drives the plan (barrier,
streaming, sharded worker pool), including across a crash and
``--resume``.
"""

import dataclasses
import hashlib
import os

import pytest

from tests.core.crash_driver import build_raw_config
from tests.core.test_crash_resume import (
    CRASH_STAGES,
    parse_stats,
    run_driver,
)

from repro.chaos.surfaces import CRASH_EXIT_CODE
from repro.core import EOMLWorkflow, load_config
from repro.core.branches import branch_tag, expand_branches, is_fanout
from repro.core.download import DownloadReport, GranuleSet
from repro.core.preprocess import PreprocessReport, PreprocessResult, QuarantineRecord
from repro.core.shipment import ShipmentReport
from repro.core.workflow import merge_reports
from repro.instruments import get_model
from repro.modis import MINI_SWATH, LaadsArchive
from repro.netcdf import read as nc_read

GRANULES = 1
SEED = 3
INSTRUMENTS = ["modis", "abi"]
MODELS = ["ricc", "heuristic"]
BRANCHES = [f"{inst}+{mdl}" for inst in INSTRUMENTS for mdl in MODELS]


def fanout_raw(root, granules=GRANULES):
    raw = build_raw_config(str(root), granules)
    raw["archive"]["instruments"] = list(INSTRUMENTS)
    raw["inference"] = dict(raw["inference"], models=list(MODELS))
    return raw


def make_workflow(root, granules=GRANULES, runtime=None):
    raw = fanout_raw(root, granules)
    if runtime:
        raw["runtime"] = runtime
    config = load_config(raw)
    # The injected archive stands in for the primary instrument (modis);
    # the abi branch builds its own from the registry.
    return EOMLWorkflow(config, archive=LaadsArchive(seed=SEED, swath=MINI_SWATH))


def read_corpus(destination):
    """``branch/name -> sha256`` over the per-branch destination tree."""
    corpus = {}
    for branch in sorted(os.listdir(destination)):
        branch_dir = os.path.join(destination, branch)
        for name in sorted(os.listdir(branch_dir)):
            with open(os.path.join(branch_dir, name), "rb") as handle:
                corpus[f"{branch}/{name}"] = hashlib.sha256(
                    handle.read()
                ).hexdigest()
    return corpus


@pytest.fixture(scope="module")
def barrier(tmp_path_factory):
    root = tmp_path_factory.mktemp("fanout-barrier")
    workflow = make_workflow(root)
    report = workflow.run(provenance=False)
    assert report.errors == []
    return report, workflow.config, read_corpus(workflow.config.destination)


class TestBranchExpansion:
    def test_expand_is_the_instruments_major_product(self, tmp_path):
        config = load_config(fanout_raw(tmp_path))
        assert is_fanout(config)
        assert expand_branches(config) == [
            ("modis", "ricc"), ("modis", "heuristic"),
            ("abi", "ricc"), ("abi", "heuristic"),
        ]
        assert [branch_tag(i, m) for i, m in expand_branches(config)] == BRANCHES

    def test_single_branch_config_is_not_fanout(self, tmp_path):
        config = load_config(build_raw_config(str(tmp_path), 1))
        assert not is_fanout(config)
        assert expand_branches(config) == [("modis", "ricc")]


# The five-stage graph as (name, after, overlaps, stream, has_scope)
# rows.  ``{i}`` is an instrument tag and ``{b}`` a branch tag; the
# single-branch plan is the instantiation whose tags are empty.
ACQUISITION = [
    ("download{i}", (), (), (), False),
    ("model{b}", (), (), ("download{i}",), False),
    ("preprocess{i}", (), (), ("model{b}",), False),
]
LABELLING = [
    ("inference{b}", ("preprocess{i}", "model{b}"), ("preprocess{i}",), (), True),
    ("shipment{b}", (), (), ("inference{b}",), False),
]
# With two models the instrument's model nodes chain: the second one is
# fed by the first, and preprocess by the last.
ACQUISITION_TWO_MODELS = [
    ("download{i}", (), (), (), False),
    ("model{i}+ricc", (), (), ("download{i}",), False),
    ("model{i}+heuristic", (), (), ("model{i}+ricc",), False),
    ("preprocess{i}", (), (), ("model{i}+heuristic",), False),
]


def instantiate(rows, i="", b=""):
    def fill(names):
        return tuple(name.format(i=i, b=b) for name in names)

    return [
        (name.format(i=i, b=b), fill(after), fill(overlaps), fill(stream), scope)
        for name, after, overlaps, stream, scope in rows
    ]


def topology(plan):
    return [
        (n.name, n.after, n.overlaps, n.stream, n.scope is not None)
        for n in plan.nodes
    ]


def plan_of(raw, stream_enabled):
    """The plan a config builds, whichever runner it asks for."""
    raw["runtime"] = {"stream": {"enabled": stream_enabled}}
    return EOMLWorkflow(load_config(raw)).build_plan()


class TestPlanTopology:
    """One graph: the single-branch plan and the fan-out plan are the
    same table, instantiated once or per instrument / branch — and the
    runner a config picks never changes it."""

    @pytest.mark.parametrize("stream_enabled", [False, True])
    def test_single_branch_plan_is_the_table_with_empty_tags(self, stream_enabled, tmp_path):
        plan = plan_of(build_raw_config(str(tmp_path), 1), stream_enabled)
        assert topology(plan) == instantiate(ACQUISITION + LABELLING)

    @pytest.mark.parametrize("stream_enabled", [False, True])
    def test_fanout_plan_is_the_table_per_instrument_and_branch(self, stream_enabled, tmp_path):
        expected = []
        for inst in INSTRUMENTS:
            expected += instantiate(ACQUISITION_TWO_MODELS, i=f"@{inst}")
        for branch in BRANCHES:
            inst = branch.split("+")[0]
            expected += instantiate(LABELLING, i=f"@{inst}", b=f"@{branch}")
        assert topology(plan_of(fanout_raw(tmp_path), stream_enabled)) == expected

    @pytest.mark.parametrize("stream_enabled", [False, True])
    def test_one_model_fanout_chain_is_the_single_branch_chain(self, stream_enabled, tmp_path):
        # Two instruments, one model: each instrument's acquisition chain
        # is exactly the single-branch rows under its own tags.
        raw = fanout_raw(tmp_path)
        raw["inference"] = dict(raw["inference"], models=["ricc"])
        expected = []
        for inst in INSTRUMENTS:
            expected += instantiate(ACQUISITION, i=f"@{inst}", b=f"@{inst}+ricc")
        for inst in INSTRUMENTS:
            expected += instantiate(LABELLING, i=f"@{inst}", b=f"@{inst}+ricc")
        assert topology(plan_of(raw, stream_enabled)) == expected

    def test_one_branch_merges_are_the_identity(self):
        download = DownloadReport(
            granule_sets=[GranuleSet("A2022001.0000", {"MOD021KM": "/raw/a.nc"})],
            files=3, nbytes=30, seconds=1.5, per_file_seconds=[0.5, 0.5, 0.5],
            skipped=1, resumed=1, cached=1, retried=1, retry_attempts=2,
            fetched_bytes=10, failed=["download of x failed"],
            incomplete=["A2022001.0005"], breaker_trips=1,
        )
        preprocess = PreprocessReport(
            results=[PreprocessResult("A2022001.0000", "/tiles/a.nc", 4, 0.2)],
            seconds=0.3,
            quarantined=[QuarantineRecord("A2022001.0005", "corrupt")],
        )
        shipment = ShipmentReport(
            moved=["/orion/a.nc"], nbytes=7, seconds=0.1, retries=1,
            error="transfer timed out", resumed=1, verified=1, deduped=1,
            mismatches=["b.nc"], checksums={"a.nc": "ab" * 32},
        )
        for report in (download, preprocess, shipment):
            # The single branch's tag is "": per-file keys stay un-prefixed.
            assert merge_reports([""], [report]) == report
            # Every field of the report type takes part in the merge: a
            # sample that leaves one at a falsy default could not tell a
            # merged field from a dropped one, and two branches must each
            # contribute to it.
            twice = merge_reports(["x+m", "y+m"], [report, report])
            for spec in dataclasses.fields(report):
                one = getattr(report, spec.name)
                both = getattr(twice, spec.name)
                assert one, f"{type(report).__name__}.{spec.name} not exercised"
                if isinstance(one, str):
                    assert both == f"{one}; {one}", spec.name
                elif isinstance(one, (list, dict)):
                    assert len(both) == 2 * len(one), spec.name
                else:
                    assert both == 2 * one, spec.name
        assert merge_reports([""], [None]) is None
        twice = merge_reports(["x+m", "y+m"], [shipment, shipment])
        assert twice.mismatches == ["x+m:b.nc", "y+m:b.nc"]
        assert twice.checksums == {"x+m:a.nc": "ab" * 32, "y+m:a.nc": "ab" * 32}
        assert twice.moved == ["/orion/a.nc", "/orion/a.nc"]  # paths, not names
        assert merge_reports(["x+m", "y+m"], [None, shipment]).mismatches == ["y+m:b.nc"]


class TestBarrierFanout:
    def test_every_branch_delivers(self, barrier):
        report, config, corpus = barrier
        assert sorted(os.listdir(config.destination)) == sorted(BRANCHES)
        delivered_branches = {key.split("/")[0] for key in corpus}
        assert delivered_branches == set(BRANCHES)
        assert len(report.shipment.moved) == len(corpus)

    def test_download_and_preprocess_are_per_instrument_only(self, barrier):
        _report, config, _corpus = barrier
        # One staging/preprocessed subtree per instrument, not per branch.
        assert sorted(os.listdir(config.staging)) == sorted(INSTRUMENTS)
        assert sorted(
            d for d in os.listdir(config.preprocessed)
            if os.path.isdir(os.path.join(config.preprocessed, d))
        ) == sorted(INSTRUMENTS)

    def test_labels_attributed_to_the_branch_model(self, barrier):
        _report, config, corpus = barrier
        for key in corpus:
            branch, name = key.split("/", 1)
            model_name = branch.split("+")[1]
            ds = nc_read(os.path.join(config.destination, branch, name))
            assert (
                ds["label"].attributes["classified_by"]
                == get_model(model_name).attribution
            ), key
            assert ds.get_attr("aicca_classes") is not None

    def test_plan_nodes_are_branch_qualified(self, barrier):
        _report, config, _corpus = barrier
        plan = EOMLWorkflow(config).build_plan()
        names = [node.name for node in plan.nodes]
        for inst in INSTRUMENTS:
            assert f"download@{inst}" in names
            assert f"preprocess@{inst}" in names
        for branch in BRANCHES:
            assert f"model@{branch}" in names
            assert f"inference@{branch}" in names
            assert f"shipment@{branch}" in names


class TestDriverEquivalence:
    """Same fan-out plan, other engines, same bytes."""

    def test_streaming_matches_barrier(self, barrier, tmp_path):
        _report, _config, expected = barrier
        workflow = make_workflow(
            tmp_path, runtime={"stream": {"enabled": True}}
        )
        report = workflow.run(provenance=False)
        assert report.errors == []
        assert read_corpus(workflow.config.destination) == expected

    def test_worker_pool_matches_barrier(self, barrier, tmp_path):
        _report, _config, expected = barrier
        workflow = make_workflow(tmp_path, runtime={"workers": 2})
        report = workflow.run(provenance=False)
        assert report.errors == []
        assert report.scaleout["enabled"]
        assert report.scaleout["units_executed"] > 0
        assert read_corpus(workflow.config.destination) == expected


class TestCrashResume:
    @pytest.mark.parametrize("stage", CRASH_STAGES)
    def test_crash_then_resume_matches_barrier(self, stage, barrier, tmp_path):
        _report, _config, expected = barrier
        crashed = run_driver(
            tmp_path, "--fanout", "--granules", str(GRANULES),
            "--crash-stage", stage,
        )
        assert crashed.returncode == CRASH_EXIT_CODE, (
            f"crash fault at {stage!r} did not abort the fan-out run: "
            f"rc={crashed.returncode}\n{crashed.stdout}\n{crashed.stderr}"
        )
        resumed = run_driver(
            tmp_path, "--fanout", "--granules", str(GRANULES), "--resume"
        )
        assert resumed.returncode == 0, resumed.stderr
        stats = parse_stats(resumed.stdout)
        assert stats["errors"] == 0
        corpus = read_corpus(
            os.path.join(str(tmp_path), "data", "orion")
        )
        assert corpus == expected

    def test_resume_of_completed_run_is_a_noop(self, tmp_path):
        first = run_driver(tmp_path, "--fanout", "--granules", str(GRANULES))
        assert first.returncode == 0, first.stderr
        again = run_driver(
            tmp_path, "--fanout", "--granules", str(GRANULES), "--resume"
        )
        assert again.returncode == 0, again.stderr
        stats = parse_stats(again.stdout)
        assert stats["errors"] == 0
        assert stats["fetched"] == 0
        assert stats["resumed_downloads"] > 0
