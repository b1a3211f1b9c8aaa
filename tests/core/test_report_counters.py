"""WorkflowReport resilience accounting: quarantined rollup and journal counters."""

import pytest

from repro.core import EOMLWorkflow
from repro.core.download import DownloadReport
from repro.core.preprocess import PreprocessReport
from repro.core.workflow import WorkflowReport
from repro.modis import MINI_SWATH, LaadsArchive

from .test_pipeline import make_config


def synthetic_report(**overrides):
    download = overrides.pop("download", DownloadReport(
        granule_sets=[], files=0, nbytes=0, seconds=0.1))
    preprocess = overrides.pop("preprocess", PreprocessReport(results=[], seconds=0.1))
    return WorkflowReport(
        download=download,
        preprocess=preprocess,
        inference=[],
        shipment=None,
        **overrides,
    )


class TestQuarantinedRollup:
    def test_empty_report_counts_zero(self):
        assert synthetic_report().quarantined == 0

    def test_sums_across_all_stages(self):
        report = synthetic_report(
            download=DownloadReport(
                granule_sets=[], files=0, nbytes=0, seconds=0.1,
                failed=["MOD02.a", "MOD02.b"],
                incomplete=["scene-1"],
            ),
            preprocess=PreprocessReport(
                results=[], seconds=0.1, quarantined=[object(), object()]),
            inference_quarantined=[object()],
        )
        assert report.quarantined == 2 + 1 + 2 + 1

    def test_journal_counters_default_to_zero(self):
        report = synthetic_report()
        assert report.resumed_items == 0
        assert report.replayed_items == 0
        assert report.manifest_mismatches == 0
        assert report.journal is None


@pytest.fixture(scope="module")
def mini_archive():
    return LaadsArchive(seed=3, swath=MINI_SWATH)


class TestJournalCounterRollup:
    def test_clean_run_reports_zero_counters(self, tmp_path, mini_archive):
        config = make_config(tmp_path)
        report = EOMLWorkflow(config, archive=mini_archive).run(provenance=False)
        assert report.errors == []
        assert report.resumed_items == 0
        assert report.replayed_items == 0
        assert report.manifest_mismatches == 0
        assert report.journal is not None
        assert report.journal["manifest_entries"] > 0

    def test_resumed_run_rolls_counters_into_report(
            self, tmp_path, mini_archive):
        config = make_config(tmp_path)
        first = EOMLWorkflow(config, archive=mini_archive).run(provenance=False)
        assert first.errors == []

        second = EOMLWorkflow(config, archive=mini_archive).run(
            provenance=False, resume=True)
        assert second.errors == []
        assert second.resumed_items > 0
        assert second.replayed_items == 0
        assert second.manifest_mismatches == 0
        assert second.download.resumed == first.download.files
        # The delivered corpus is unchanged: shipment skipped everything
        # that already verified at the destination.
        assert len(second.shipment.moved) == len(first.shipment.moved)


def test_a_barrier_run_reports_labelling_overlapping_tiling(tmp_path, mini_archive):
    """Behind the barrier inference still starts with preprocess (Fig. 6's
    asynchronous trigger), and its span shows it."""
    config = make_config(tmp_path, granules=3)
    report = EOMLWorkflow(config, archive=mini_archive).run(provenance=False)
    assert report.stream is None and report.errors == []
    assert report.stage_overlap_seconds["preprocess+inference"] > 0
