"""Simulated end-to-end workflow tests (the Fig. 6 / Fig. 7 engine)."""

import pytest

from repro.core import SimulatedEOMLWorkflow, SimWorkflowParams


@pytest.fixture(scope="module")
def result():
    return SimulatedEOMLWorkflow(SimWorkflowParams(num_granule_sets=12)).run()


class TestSimulatedWorkflow:
    def test_completes_and_ships_everything(self, result):
        assert result.tiles == 12 * 150
        assert result.files_shipped == 12
        assert result.transfer is not None
        assert result.transfer.files_done == 12

    def test_stage_order(self, result):
        spans = result.stage_spans
        for stage in ("download_launch", "download", "preprocess", "inference", "shipment"):
            assert stage in spans
        assert spans["download_launch"][1] <= spans["download"][0] + 1e-9
        assert spans["download"][1] <= spans["preprocess"][0] + 1e-9
        assert spans["preprocess"][1] <= spans["shipment"][0] + 1e-9

    def test_download_launch_is_5_63s(self, result):
        start, end = result.stage_spans["download_launch"]
        assert end - start == pytest.approx(5.63)

    def test_flow_hop_latency_near_50ms(self, result):
        assert result.flow_hop_latency == pytest.approx(0.05, abs=0.01)

    def test_inference_overlaps_preprocessing(self, result):
        """Fig. 6's asynchrony: inference starts before preprocessing ends."""
        assert result.stage_spans["inference"][0] < result.stage_spans["preprocess"][1]

    def test_worker_gauges_match_allocation(self, result):
        assert result.tracer.series("workers:download").max == 3
        # 32 workers are provisioned but only 12 tasks exist; surplus
        # workers exit at spawn, so the plateau equals the task count.
        assert result.tracer.series("workers:preprocess").max == 12
        assert result.tracer.series("workers:inference").max == 1

    def test_preprocess_gauge_reaches_allocation_with_enough_work(self):
        run = SimulatedEOMLWorkflow(SimWorkflowParams(num_granule_sets=40)).run()
        assert run.tracer.series("workers:preprocess").max == 32

    def test_workers_scale_in_after_stages(self, result):
        """Every gauge returns to zero: elastic scale-in happened."""
        for gauge in ("workers:download", "workers:preprocess", "workers:inference"):
            assert result.tracer.series(gauge).at(result.makespan + 1) == 0

    def test_download_and_preprocess_do_not_overlap(self, result):
        """The download barrier: no preprocess worker before downloads end."""
        dl_end = result.stage_spans["download"][1]
        series = result.tracer.series("workers:preprocess")
        assert series.at(dl_end - 0.5) == 0

    def test_deterministic(self):
        params = SimWorkflowParams(num_granule_sets=6, seed=9)
        a = SimulatedEOMLWorkflow(params).run()
        b = SimulatedEOMLWorkflow(params).run()
        assert a.makespan == b.makespan
        assert a.stage_spans == b.stage_spans

    def test_flow_runs_batch_fresh_files(self, result):
        assert 1 <= result.flow_runs <= 12

    def test_elastic_mode_completes_with_demand_driven_blocks(self):
        """Elastic scale-out finishes the same workload; blocks arrive on
        demand, so allocation never exceeds the static ceiling."""
        static = SimulatedEOMLWorkflow(
            SimWorkflowParams(num_granule_sets=24, seed=6)
        ).run()
        elastic = SimulatedEOMLWorkflow(
            SimWorkflowParams(num_granule_sets=24, seed=6, elastic=True)
        ).run()
        assert elastic.files_shipped == static.files_shipped == 24
        static_peak = static.tracer.series("workers:preprocess").max
        elastic_peak = elastic.tracer.series("workers:preprocess").max
        assert elastic_peak <= static_peak
        # Elastic still brings up more than one block when demand warrants.
        assert elastic_peak > 8

    def test_survives_injected_failures(self):
        """With flaky downloads AND flaky preprocess workers, the pipeline
        still completes the full workload — slower than a clean run."""
        clean = SimulatedEOMLWorkflow(SimWorkflowParams(num_granule_sets=12, seed=4)).run()
        flaky = SimulatedEOMLWorkflow(
            SimWorkflowParams(
                num_granule_sets=12, seed=4,
                download_failure_rate=0.2, preprocess_failure_rate=0.15,
            )
        ).run()
        assert flaky.files_shipped == 12
        assert flaky.tiles == clean.tiles
        assert flaky.makespan > clean.makespan

    def test_paper_scale_full_day(self):
        """A full MODIS day (288 granule sets, 43,200 tiles) on 10 nodes
        completes and ships everything."""
        run = SimulatedEOMLWorkflow(
            SimWorkflowParams(num_granule_sets=288, preprocess_nodes=10, seed=2)
        ).run()
        assert run.files_shipped == 288
        assert run.tiles == 288 * 150
        assert run.makespan > 0
        # Preprocessing at 10 nodes x 8 workers sustains Table-I-class
        # throughput over the whole day.
        pre_start, pre_end = run.stage_spans["preprocess"]
        throughput = run.tiles / (pre_end - pre_start)
        assert 180 < throughput < 340
