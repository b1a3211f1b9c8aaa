"""Bounded, backpressured channels for plan stream edges.

A :class:`StreamChannel` carries per-item tokens (a completed granule
scene, a labelled file name) from a producing stage to a consuming one —
the Parsl-style pipelined dataflow the paper's Fig. 6 overlap implies.
The channel is *bounded*: a producer that races ahead of its consumer
blocks in :meth:`put` once ``capacity`` items are queued, so a fast
download stage cannot flood memory while preprocessing lags.  Both ends
account their waiting (producer stall seconds, consumer wait seconds)
and the high-water queue depth, which roll up into ``WorkflowReport``.

The same channel is also the barrier.  A consumer that lists its
producer in ``after`` starts only once the producer has finished, so a
bounded channel would deadlock both ends;
:class:`~repro.runtime.plan.PlanExecution` therefore creates such a
channel *relaxed* (unbounded), and the consumer then drains the whole
buffered output — the paper's Fig. 2 barrier.  Any driver can
:meth:`relax` a channel to unblock producers whose consumer died.

This module (like the whole ``repro.runtime`` package) must not import
``repro.core``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "DEFAULT_CAPACITY",
    "StreamClosed",
    "ChannelStats",
    "StreamChannel",
    "StreamConfig",
    "StreamWriter",
    "StreamHub",
    "edge_name",
]

DEFAULT_CAPACITY = 8

# How long a blocked producer/consumer sleeps between re-checks; bounds
# the latency of observing close()/relax() from another thread.
_WAIT_SLICE = 0.1


def edge_name(src: str, dst: str) -> str:
    """The canonical ``"src->dst"`` spelling of a stream edge."""
    return f"{src}->{dst}"


class StreamClosed(RuntimeError):
    """A producer put an item into a channel that was already closed."""


@dataclass(frozen=True)
class ChannelStats:
    """One channel's lifetime accounting (rolled into WorkflowReport)."""

    edge: str
    capacity: int
    bounded: bool
    items: int                     # tokens that passed through
    max_depth: int                 # high-water queue occupancy
    producer_stall_seconds: float  # time put() spent blocked on a full queue
    consumer_wait_seconds: float   # time iteration spent blocked on an empty queue
    closed: bool

    def as_dict(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "bounded": self.bounded,
            "items": self.items,
            "max_depth": self.max_depth,
            "producer_stall_seconds": self.producer_stall_seconds,
            "consumer_wait_seconds": self.consumer_wait_seconds,
            "closed": self.closed,
        }


class StreamChannel:
    """A closable bounded FIFO connecting one producer to one consumer."""

    def __init__(self, edge: str, capacity: int = DEFAULT_CAPACITY,
                 bounded: bool = True):
        if capacity < 1:
            raise ValueError(f"channel capacity must be >= 1, got {capacity}")
        self.edge = edge
        self.capacity = capacity
        self._bounded = bounded
        # Stats report the configured bound, not the current one: every
        # channel ends relaxed (settling unbounds inputs), which would
        # make the report claim no backpressure was ever applied.
        self._bounded_at_birth = bounded
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._state_changed = threading.Condition(self._lock)
        self._closed = False
        self._put_count = 0
        self._max_depth = 0
        self._producer_stall = 0.0
        self._consumer_wait = 0.0

    # -- producer side --------------------------------------------------------

    def put(self, item: Any) -> None:
        """Enqueue one token; blocks while the bounded queue is full.

        Raises :class:`StreamClosed` if the channel was closed — a closed
        channel means the consumer contract ended, so a late put is a
        programming error, never silently dropped.
        """
        with self._state_changed:
            stall_started: Optional[float] = None
            while (
                self._bounded
                and not self._closed
                and len(self._items) >= self.capacity
            ):
                if stall_started is None:
                    stall_started = time.monotonic()
                self._state_changed.wait(_WAIT_SLICE)
            if stall_started is not None:
                self._producer_stall += time.monotonic() - stall_started
            if self._closed:
                raise StreamClosed(f"channel {self.edge} is closed")
            self._items.append(item)
            self._put_count += 1
            self._max_depth = max(self._max_depth, len(self._items))
            self._state_changed.notify_all()

    def close(self) -> None:
        """End the stream (idempotent); consumers drain what remains."""
        with self._state_changed:
            self._closed = True
            self._state_changed.notify_all()

    def relax(self) -> None:
        """Drop the capacity bound so a blocked producer can finish.

        Used when the consumer will never drain the channel again (its
        node skipped or died): the producer's remaining puts land
        unbounded instead of deadlocking the pipeline.
        """
        with self._state_changed:
            self._bounded = False
            self._state_changed.notify_all()

    # -- consumer side --------------------------------------------------------

    def get(self, timeout: Optional[float] = None) -> Tuple[bool, Any]:
        """Dequeue one token: ``(True, item)``, or ``(False, None)`` when
        the channel is closed and drained (or ``timeout`` elapsed)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._state_changed:
            wait_started: Optional[float] = None
            while not self._items and not self._closed:
                if deadline is not None and time.monotonic() >= deadline:
                    break
                if wait_started is None:
                    wait_started = time.monotonic()
                self._state_changed.wait(_WAIT_SLICE)
            if wait_started is not None:
                self._consumer_wait += time.monotonic() - wait_started
            if self._items:
                item = self._items.popleft()
                self._state_changed.notify_all()
                return True, item
            return False, None

    def __iter__(self) -> Iterator[Any]:
        while True:
            ok, item = self.get()
            if not ok:
                return
            yield item

    # -- introspection --------------------------------------------------------

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def stats(self) -> ChannelStats:
        with self._lock:
            return ChannelStats(
                edge=self.edge,
                capacity=self.capacity,
                bounded=self._bounded_at_birth,
                items=self._put_count,
                max_depth=self._max_depth,
                producer_stall_seconds=self._producer_stall,
                consumer_wait_seconds=self._consumer_wait,
                closed=self._closed,
            )


@dataclass(frozen=True)
class StreamConfig:
    """The ``runtime.stream`` config: whether the plan streams past the
    download barrier (``enabled``) and the bound on each channel."""

    enabled: bool = False
    capacity: int = DEFAULT_CAPACITY

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(
                f"stream capacity must be >= 1, got {self.capacity}"
            )


class StreamWriter:
    """The producer-facing fan-out over one node's outgoing channels."""

    def __init__(self, channels: List[StreamChannel]):
        self._channels = channels

    def put(self, item: Any) -> None:
        for channel in self._channels:
            channel.put(item)

    def close(self) -> None:
        for channel in self._channels:
            channel.close()

    def __len__(self) -> int:
        return len(self._channels)


class StreamHub:
    """All of one plan execution's channels, addressed by edge.

    Node bodies reach the hub through the execution state (under
    :data:`~repro.runtime.plan.STREAMS_KEY`) and ask for their
    :meth:`writer` (all outgoing channels) or :meth:`reader` (one
    incoming channel).  The execution closes a node's outputs when the
    node finishes and relaxes its inputs when it can no longer consume.
    """

    def __init__(self) -> None:
        self._channels: Dict[Tuple[str, str], StreamChannel] = {}

    def connect(self, src: str, dst: str, channel: StreamChannel) -> None:
        self._channels[(src, dst)] = channel

    def channel(self, src: str, dst: str) -> StreamChannel:
        try:
            return self._channels[(src, dst)]
        except KeyError:
            raise KeyError(f"no stream edge {edge_name(src, dst)}") from None

    def writer(self, src: str) -> StreamWriter:
        return StreamWriter(
            [ch for (s, _), ch in sorted(self._channels.items()) if s == src]
        )

    def reader(self, dst: str, src: Optional[str] = None) -> StreamChannel:
        incoming = {
            s: ch for (s, d), ch in self._channels.items() if d == dst
        }
        if src is not None:
            return self.channel(src, dst)
        if len(incoming) != 1:
            raise KeyError(
                f"node {dst!r} has {len(incoming)} incoming stream edges; "
                "name the source explicitly"
            )
        return next(iter(incoming.values()))

    def close_outputs(self, src: str) -> None:
        for (s, _), channel in self._channels.items():
            if s == src:
                channel.close()

    def relax_inputs(self, dst: str) -> None:
        for (_, d), channel in self._channels.items():
            if d == dst:
                channel.relax()

    def close_all(self) -> None:
        for channel in self._channels.values():
            channel.close()

    def stats(self) -> List[ChannelStats]:
        return [
            channel.stats()
            for _, channel in sorted(self._channels.items())
        ]

    def __len__(self) -> int:
        return len(self._channels)
