"""Stream channels: bounded FIFO semantics, backpressure, and config.

The channel is the mechanism behind every ``stream`` edge — these tests
pin the producer/consumer contract (FIFO order, blocking put at
capacity, drain-after-close, StreamClosed on a late put), the lifetime
accounting that rolls into ``WorkflowReport``, and the
``runtime.stream`` config.
"""

import threading
import time

import pytest

from repro.runtime import (
    DEFAULT_CAPACITY,
    StreamChannel,
    StreamClosed,
    StreamConfig,
    StreamHub,
    StreamWriter,
    edge_name,
)


class TestStreamChannel:
    def test_fifo_order_and_drain_after_close(self):
        channel = StreamChannel("a->b", capacity=4)
        for item in (1, 2, 3):
            channel.put(item)
        channel.close()
        assert list(channel) == [1, 2, 3]  # buffered items survive close
        assert channel.get() == (False, None)

    def test_put_after_close_raises(self):
        channel = StreamChannel("a->b")
        channel.close()
        channel.close()  # idempotent
        with pytest.raises(StreamClosed, match="a->b"):
            channel.put("late")

    def test_get_timeout_returns_not_ok(self):
        channel = StreamChannel("a->b")
        started = time.monotonic()
        assert channel.get(timeout=0.05) == (False, None)
        assert time.monotonic() - started < 2.0
        assert not channel.closed

    def test_bounded_put_blocks_until_consumed(self):
        channel = StreamChannel("a->b", capacity=1)
        channel.put("first")
        landed = threading.Event()

        def produce():
            channel.put("second")  # must block: queue is at capacity
            landed.set()

        producer = threading.Thread(target=produce)
        producer.start()
        try:
            assert not landed.wait(0.2)  # backpressure held it
            assert channel.get() == (True, "first")
            assert landed.wait(2.0)  # the slot freed the producer
        finally:
            producer.join()
        assert channel.get() == (True, "second")
        assert channel.stats().producer_stall_seconds > 0.0

    def test_relax_unblocks_a_stalled_producer(self):
        channel = StreamChannel("a->b", capacity=1)
        channel.put("first")
        landed = threading.Event()
        producer = threading.Thread(
            target=lambda: (channel.put("second"), landed.set())
        )
        producer.start()
        try:
            assert not landed.wait(0.2)
            channel.relax()  # dead consumer: capacity bound dropped
            assert landed.wait(2.0)
        finally:
            producer.join()
        assert len(channel) == 2

    def test_unbounded_channel_never_blocks(self):
        channel = StreamChannel("a->b", capacity=1, bounded=False)
        for item in range(10):
            channel.put(item)
        assert len(channel) == 10
        stats = channel.stats()
        assert not stats.bounded and stats.producer_stall_seconds == 0.0

    def test_stats_account_the_lifetime(self):
        channel = StreamChannel("a->b", capacity=2)
        channel.put(1)
        channel.put(2)
        assert channel.get() == (True, 1)
        channel.relax()
        channel.close()
        stats = channel.stats()
        assert stats.edge == "a->b"
        assert stats.items == 2
        assert stats.max_depth == 2
        assert stats.closed
        # The report describes the configured bound, not the relaxed end
        # state every settled channel reaches.
        assert stats.bounded
        payload = stats.as_dict()
        assert "edge" not in payload
        assert payload["capacity"] == 2 and payload["items"] == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            StreamChannel("a->b", capacity=0)


class TestStreamConfig:
    def test_defaults(self):
        config = StreamConfig()
        assert not config.enabled
        assert config.capacity == DEFAULT_CAPACITY

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            StreamConfig(capacity=0)


class TestStreamHub:
    def build(self):
        hub = StreamHub()
        hub.connect("a", "b", StreamChannel("a->b"))
        hub.connect("a", "c", StreamChannel("a->c"))
        hub.connect("b", "c", StreamChannel("b->c"))
        return hub

    def test_writer_fans_out_to_all_outputs(self):
        hub = self.build()
        writer = hub.writer("a")
        assert isinstance(writer, StreamWriter) and len(writer) == 2
        writer.put("token")
        assert hub.channel("a", "b").get() == (True, "token")
        assert hub.channel("a", "c").get() == (True, "token")

    def test_reader_requires_disambiguation(self):
        hub = self.build()
        with pytest.raises(KeyError, match="2 incoming"):
            hub.reader("c")
        assert hub.reader("c", src="b").edge == "b->c"
        assert hub.reader("b").edge == "a->b"  # single edge: implicit

    def test_unknown_edge_raises(self):
        with pytest.raises(KeyError, match=edge_name("x", "y")):
            self.build().channel("x", "y")

    def test_close_outputs_and_relax_inputs(self):
        hub = self.build()
        hub.close_outputs("a")
        assert hub.channel("a", "b").closed
        assert hub.channel("a", "c").closed
        assert not hub.channel("b", "c").closed
        hub.relax_inputs("c")
        hub.channel("b", "c").put("x")  # relaxed, still open
        hub.close_all()
        assert hub.channel("b", "c").closed

    def test_stats_sorted_by_edge(self):
        hub = self.build()
        assert [s.edge for s in hub.stats()] == ["a->b", "a->c", "b->c"]
        assert len(hub) == 3
