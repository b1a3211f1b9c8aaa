"""Lightweight structured logging for workflow components.

Every service in the system (archive, scheduler, transfer, flows, the
workflow orchestrator) emits events through a :class:`EventLog`; this keeps
simulated components free of global ``logging`` state and makes event
streams assertable in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Event", "EventLog"]


@dataclass(frozen=True)
class Event:
    """A single structured log event.

    ``time`` is simulation time (seconds) for simulated components and
    wall-clock offsets for real ones; ``source`` identifies the component;
    ``kind`` is a short machine-readable tag; ``detail`` holds free-form
    payload fields.
    """

    time: float
    source: str
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = " ".join(f"{k}={v!r}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:12.6f}] {self.source}:{self.kind} {parts}".rstrip()


class EventLog:
    """An append-only event stream with subscription support."""

    def __init__(self) -> None:
        self._events: List[Event] = []
        self._subscribers: List[Callable[[Event], None]] = []

    def emit(self, time: float, source: str, kind: str, **detail: Any) -> Event:
        event = Event(time=float(time), source=source, kind=kind, detail=dict(detail))
        self._events.append(event)
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        self._subscribers.append(callback)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    def filter(self, source: Optional[str] = None, kind: Optional[str] = None) -> List[Event]:
        """Events matching the given source and/or kind."""
        return [
            event
            for event in self._events
            if (source is None or event.source == source)
            and (kind is None or event.kind == kind)
        ]

    def last(self, source: Optional[str] = None, kind: Optional[str] = None) -> Optional[Event]:
        matches = self.filter(source=source, kind=kind)
        return matches[-1] if matches else None

    def clear(self) -> None:
        self._events.clear()
