"""Store and FluidPipe tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import FluidPipe, Simulation, SimulationError, Store


class TestStore:
    def test_put_get_fifo(self):
        sim = Simulation()
        store = Store(sim)
        got = []

        def producer():
            for item in ("a", "b", "c"):
                yield store.put(item)
                yield sim.timeout(1.0)

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append((sim.now, item))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert [item for _, item in got] == ["a", "b", "c"]

    def test_get_blocks_until_put(self):
        sim = Simulation()
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append((sim.now, item))

        def producer():
            yield sim.timeout(5.0)
            yield store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(5.0, "late")]

    def test_bounded_put_blocks(self):
        sim = Simulation()
        store = Store(sim, capacity=1)
        times = []

        def producer():
            yield store.put(1)
            times.append(sim.now)
            yield store.put(2)
            times.append(sim.now)

        def consumer():
            yield sim.timeout(3.0)
            yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert times == [0.0, 3.0]


class TestFluidPipe:
    def test_single_flow_rate(self):
        sim = Simulation()
        pipe = FluidPipe(sim, capacity=100.0)
        done = pipe.transfer(500.0)
        sim.run()
        assert done.value.duration == pytest.approx(5.0)
        assert sim.now == pytest.approx(5.0)

    def test_two_equal_flows_share(self):
        sim = Simulation()
        pipe = FluidPipe(sim, capacity=100.0)
        a = pipe.transfer(500.0)
        b = pipe.transfer(500.0)
        sim.run()
        # Each gets 50 B/s: both finish at t=10.
        assert a.value.finished_at == pytest.approx(10.0)
        assert b.value.finished_at == pytest.approx(10.0)

    def test_short_flow_releases_bandwidth(self):
        sim = Simulation()
        pipe = FluidPipe(sim, capacity=100.0)
        long = pipe.transfer(1000.0)
        short = pipe.transfer(100.0)
        sim.run()
        # Shared until short finishes at t=2 (50 B/s); long then has 900
        # left at 100 B/s -> finishes at t=11.
        assert short.value.finished_at == pytest.approx(2.0)
        assert long.value.finished_at == pytest.approx(11.0)

    def test_late_arrival_slows_existing(self):
        sim = Simulation()
        pipe = FluidPipe(sim, capacity=100.0)
        results = {}

        def launch(tag, delay, nbytes):
            yield sim.timeout(delay)
            flow = yield pipe.transfer(nbytes)
            results[tag] = flow.finished_at

        sim.process(launch("first", 0.0, 1000.0))
        sim.process(launch("second", 5.0, 500.0))
        sim.run()
        # First runs alone 0-5 (500 done), then shares: both need 500 at
        # 50 B/s -> finish at t=15.
        assert results["first"] == pytest.approx(15.0)
        assert results["second"] == pytest.approx(15.0)

    def test_per_flow_cap(self):
        sim = Simulation()
        pipe = FluidPipe(sim, capacity=100.0, per_flow_cap=10.0)
        done = pipe.transfer(100.0)
        sim.run()
        assert done.value.duration == pytest.approx(10.0)

    def test_zero_byte_transfer_immediate(self):
        sim = Simulation()
        pipe = FluidPipe(sim, capacity=100.0)
        done = pipe.transfer(0.0)
        assert done.triggered
        assert done.value.duration == 0.0

    def test_mean_rate(self):
        sim = Simulation()
        pipe = FluidPipe(sim, capacity=100.0)
        done = pipe.transfer(200.0)
        sim.run()
        assert done.value.mean_rate == pytest.approx(100.0)


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=8),
    capacity=st.floats(min_value=1.0, max_value=1e4),
)
def test_fluidpipe_conserves_work(sizes, capacity):
    """Total bytes delivered over the busy period equals total demand.

    With all flows starting at t=0 and max-min sharing, the makespan is
    bounded below by total/capacity and above by total/capacity plus the
    largest flow's solo time.
    """
    sim = Simulation()
    pipe = FluidPipe(sim, capacity=capacity)
    events = [pipe.transfer(size) for size in sizes]
    sim.run()
    assert all(event.triggered for event in events)
    finish = max(event.value.finished_at for event in events)
    total = sum(sizes)
    assert finish >= total / capacity - 1e-6
    assert finish <= total / capacity + max(sizes) / capacity + 1e-6


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=2, max_size=8))
def test_fluidpipe_completion_order_matches_size(sizes):
    """Flows starting together finish in (non-strict) size order."""
    sim = Simulation()
    pipe = FluidPipe(sim, capacity=123.0)
    events = [pipe.transfer(size) for size in sizes]
    sim.run()
    finished = [event.value.finished_at for event in events]
    order = sorted(range(len(sizes)), key=lambda i: sizes[i])
    for earlier, later in zip(order, order[1:]):
        assert finished[earlier] <= finished[later] + 1e-6
