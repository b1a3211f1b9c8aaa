"""Wall-clock stage timeline (Fig. 6 / Fig. 7 accounting, real mode).

Wraps :class:`repro.sim.Tracer` with a monotonic-clock origin so the real
workflow records the same artifacts the simulator does: per-stage worker
gauges and stage spans.  The result renders as the Fig. 6 step series and
the Fig. 7 latency breakdown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.trace import StepSeries, Tracer

__all__ = ["WallClockTimeline", "StageBreakdown"]


@dataclass(frozen=True)
class StageBreakdown:
    """Fig. 7-style per-stage latency entries."""

    stage: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class WallClockTimeline:
    """Tracer with a wall-clock origin and span helpers."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._origin = time.monotonic()
        self._open: Dict[str, float] = {}

    @property
    def now(self) -> float:
        return time.monotonic() - self._origin

    # -- worker gauges ------------------------------------------------------

    def workers(self, stage: str, delta: int) -> None:
        self.tracer.gauge_add(f"workers:{stage}", self.now, delta)

    def series(self, stage: str) -> StepSeries:
        return self.tracer.series(f"workers:{stage}")

    # -- stage spans ----------------------------------------------------------

    def begin(self, stage: str) -> None:
        self._open[stage] = self.now

    def end(self, stage: str, **detail) -> StageBreakdown:
        if stage not in self._open:
            raise KeyError(f"stage {stage!r} was never begun")
        start = self._open.pop(stage)
        finish = self.now
        self.tracer.span(stage, stage, start, finish, **detail)
        return StageBreakdown(stage=stage, start=start, end=finish)

    def breakdown(self) -> List[StageBreakdown]:
        """All recorded spans in start order (the Fig. 7 chain)."""
        return [
            StageBreakdown(stage=span.name, start=span.start, end=span.end)
            for span in sorted(self.tracer.spans, key=lambda s: s.start)
        ]

    def overlaps(self) -> Dict[str, float]:
        """Pairwise span overlap seconds, keyed ``"a+b"`` in start order.

        Behind the barrier only ``preprocess+inference`` is non-zero
        (labelling runs while tiling does, Fig. 6's asynchronous
        trigger); under streaming the overlap between adjacent stages is
        exactly the hidden latency the paper's Fig. 6 pipelining claims —
        so it is reported, not inferred.
        """
        spans = self.breakdown()
        out: Dict[str, float] = {}
        for i, a in enumerate(spans):
            for b in spans[i + 1:]:
                shared = min(a.end, b.end) - max(a.start, b.start)
                if shared > 0:
                    out[f"{a.stage}+{b.stage}"] = shared
        return out

    def gaps(self) -> List[Tuple[str, str, float]]:
        """Inter-stage communication gaps (Fig. 7's solid arrows)."""
        spans = self.breakdown()
        return [
            (a.stage, b.stage, max(0.0, b.start - a.end))
            for a, b in zip(spans, spans[1:])
        ]

    def render(self, width: int = 60) -> str:
        """ASCII rendering of the worker timeline (a terminal Fig. 6)."""
        names = self.tracer.gauge_names()
        if not names:
            return "(no activity recorded)"
        horizon = max(self.now, 1e-9)
        lines = [f"timeline over {horizon:.2f}s"]
        times = [horizon * i / (width - 1) for i in range(width)]
        for name in names:
            series = self.tracer.series(name)
            peak = max(series.max, 1.0)
            row = "".join(
                " .:-=+*#%@"[min(9, int(9 * series.at(t) / peak))] for t in times
            )
            lines.append(f"{name:>24} |{row}| peak={int(series.max)}")
        return "\n".join(lines)
