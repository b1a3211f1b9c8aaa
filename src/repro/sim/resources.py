"""Shared-resource primitives for the simulation kernel.

:class:`Store` is the discrete primitive (a FIFO task queue).
:class:`FluidPipe` is a processor-sharing bandwidth model — concurrent
flows split capacity max-min fairly — used for the LAADS HTTPS server NIC,
WAN links, and the Lustre aggregate-bandwidth model.  Processor sharing is
what produces the paper's Fig. 3 behaviour (per-worker download speed is
overhead-dominated for small files and share-dominated for many workers).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.sim.kernel import Event, Simulation, SimulationError

__all__ = ["Store", "FluidPipe", "Flow"]

_EPS = 1e-9


class Store:
    """A FIFO item queue with optional capacity (like simpy.Store)."""

    def __init__(self, sim: Simulation, capacity: float = math.inf):
        if capacity < 1:
            raise SimulationError("store capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()

    def put(self, item: Any) -> Event:
        event = self.sim.event()
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            event.succeed(None)
        elif len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed(None)
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        event = self.sim.event()
        if self.items:
            item = self.items.popleft()
            if self._putters:
                put_event, queued_item = self._putters.popleft()
                self.items.append(queued_item)
                put_event.succeed(None)
            event.succeed(item)
        else:
            self._getters.append(event)
        return event

    def cancel_get(self, request: Event) -> bool:
        try:
            self._getters.remove(request)
            return True
        except ValueError:
            return False

    def __len__(self) -> int:
        return len(self.items)


class Flow:
    """One active transfer on a :class:`FluidPipe`."""

    __slots__ = ("nbytes", "remaining", "done", "started_at", "finished_at")

    def __init__(self, nbytes: float, done: Event, started_at: float):
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.done = done
        self.started_at = started_at
        self.finished_at: Optional[float] = None

    @property
    def duration(self) -> float:
        if self.finished_at is None:
            raise SimulationError("flow has not finished")
        return self.finished_at - self.started_at

    @property
    def mean_rate(self) -> float:
        duration = self.duration
        return self.nbytes / duration if duration > 0 else math.inf


class FluidPipe:
    """Max-min fair processor-sharing bandwidth pipe.

    ``capacity`` is total bytes/second; ``per_flow_cap`` bounds any single
    flow (e.g. a single HTTPS connection's TCP ceiling).  With *n* active
    flows each receives ``min(per_flow_cap, capacity / n)`` — equal split
    is exact max-min fairness when all flows are elastic and identical.
    """

    def __init__(
        self,
        sim: Simulation,
        capacity: float,
        per_flow_cap: Optional[float] = None,
    ):
        if capacity <= 0:
            raise SimulationError("pipe capacity must be positive")
        if per_flow_cap is not None and per_flow_cap <= 0:
            raise SimulationError("per-flow cap must be positive")
        self.sim = sim
        self.capacity = float(capacity)
        self.per_flow_cap = float(per_flow_cap) if per_flow_cap else None
        self._flows: List[Flow] = []
        self._last_update = sim.now
        self._wake_token = 0

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def current_rate_per_flow(self) -> float:
        if not self._flows:
            return 0.0
        fair = self.capacity / len(self._flows)
        if self.per_flow_cap is not None:
            fair = min(fair, self.per_flow_cap)
        return fair

    def transfer(self, nbytes: float) -> Event:
        """Start a flow of ``nbytes``; returns an event firing on completion.

        The event's value is the finished :class:`Flow` (with timing data).
        """
        if nbytes < 0:
            raise SimulationError("transfer size must be non-negative")
        done = self.sim.event()
        if nbytes == 0:
            zero = Flow(0.0, done, self.sim.now)
            zero.finished_at = self.sim.now
            done.succeed(zero)
            return done
        self._settle()
        flow = Flow(nbytes, done, self.sim.now)
        self._flows.append(flow)
        self._reschedule()
        return done

    def _settle(self) -> None:
        """Advance all flows' progress to the current instant."""
        elapsed = self.sim.now - self._last_update
        self._last_update = self.sim.now
        if elapsed <= 0 or not self._flows:
            return
        rate = self.current_rate_per_flow()
        finished: List[Flow] = []
        for flow in self._flows:
            flow.remaining -= rate * elapsed
            if flow.remaining <= self.capacity * 1e-12 + _EPS:
                flow.remaining = 0.0
                finished.append(flow)
        for flow in finished:
            self._flows.remove(flow)
            flow.finished_at = self.sim.now
            flow.done.succeed(flow)

    def _reschedule(self) -> None:
        """Schedule a wake-up at the earliest flow completion."""
        self._wake_token += 1
        if not self._flows:
            return
        token = self._wake_token
        rate = self.current_rate_per_flow()
        shortest = min(flow.remaining for flow in self._flows)
        delay = shortest / rate
        wake = self.sim.timeout(delay)
        wake._add_callback(lambda _ev: self._on_wake(token))

    def _on_wake(self, token: int) -> None:
        if token != self._wake_token:
            return  # superseded by a newer arrival/departure
        self._settle()
        self._reschedule()
