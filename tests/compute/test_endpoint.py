"""Simulated compute endpoint tests."""

import pytest

from repro.compute import SimComputeEndpoint
from repro.sim import Simulation, Tracer


def sleep_task(duration):
    def fn(ctx, tag):
        yield ctx.sim.timeout(duration)
        return tag

    return fn


class TestSimEndpoint:
    def test_task_runs_and_returns(self):
        sim = Simulation()
        endpoint = SimComputeEndpoint(sim, "dl", max_workers=2, startup_latency=1.0, task_overhead=0.0)
        future = endpoint.submit(sleep_task(3.0), "t0")
        sim.run()
        assert future.value == "t0"
        assert sim.now == pytest.approx(4.0)  # 1s startup + 3s task

    def test_workers_bounded(self):
        sim = Simulation()
        endpoint = SimComputeEndpoint(sim, "dl", max_workers=2, startup_latency=0.0, task_overhead=0.0)
        futures = [endpoint.submit(sleep_task(10.0), i) for i in range(6)]
        sim.run()
        assert all(f.triggered for f in futures)
        # 6 tasks, 2 workers, 10s each -> 30s.
        assert sim.now == pytest.approx(30.0)

    def test_worker_graceful_exit_and_gauge(self):
        sim = Simulation()
        tracer = Tracer()
        endpoint = SimComputeEndpoint(
            sim, "dl", max_workers=3, startup_latency=0.0, task_overhead=0.0, tracer=tracer
        )
        for index in range(3):
            endpoint.submit(sleep_task(5.0), index)
        sim.run()
        series = tracer.series("workers:dl")
        assert series.at(2.0) == 3
        assert series.at(6.0) == 0  # all gracefully terminated
        assert endpoint.active_workers == 0
        assert endpoint.tasks_completed == 3

    def test_failed_task_fails_future_only(self):
        sim = Simulation()
        endpoint = SimComputeEndpoint(sim, "dl", max_workers=1, startup_latency=0.0, task_overhead=0.0)

        def boom(ctx):
            yield ctx.sim.timeout(1.0)
            raise RuntimeError("download failed")

        bad = endpoint.submit(boom)
        good = endpoint.submit(sleep_task(1.0), "ok")
        caught = {}

        def watcher():
            try:
                yield bad
            except RuntimeError as exc:
                caught["error"] = str(exc)

        sim.process(watcher())
        sim.run()
        assert caught["error"] == "download failed"
        assert good.value == "ok"

    def test_task_overhead_applied(self):
        sim = Simulation()
        endpoint = SimComputeEndpoint(sim, "dl", max_workers=1, startup_latency=0.0, task_overhead=0.5)
        endpoint.submit(sleep_task(1.0), 0)
        endpoint.submit(sleep_task(1.0), 1)
        sim.run()
        assert sim.now == pytest.approx(3.0)

    def test_drain(self):
        sim = Simulation()
        endpoint = SimComputeEndpoint(sim, "dl", max_workers=2, startup_latency=0.0, task_overhead=0.0)
        endpoint.map(sleep_task(2.0), list(range(4)))
        drained = endpoint.drain()
        sim.run()
        assert drained.triggered
        assert endpoint.active_workers == 0

    def test_late_submission_respawns_workers(self):
        sim = Simulation()
        endpoint = SimComputeEndpoint(sim, "dl", max_workers=2, startup_latency=0.0, task_overhead=0.0)
        endpoint.submit(sleep_task(1.0), "early")

        def late():
            yield sim.timeout(10.0)
            future = endpoint.submit(sleep_task(1.0), "late")
            result = yield future
            assert result == "late"

        sim.process(late())
        sim.run()
        assert endpoint.tasks_completed == 2
        assert sim.now == pytest.approx(11.0)
