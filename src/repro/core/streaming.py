"""Streaming inference driver (Section V future-work extension).

The paper plans to "support more dynamic AI applications that involve ...
inferring with batch as well as streaming data".  This driver consumes a
granule *stream* — an iterator of granule sets — and pushes each through
preprocess + inference as it arrives, maintaining rolling class counts
(the situational-awareness output the discussion motivates).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.core.config import EOMLConfig
from repro.core.download import GranuleSet
from repro.core.preprocess import PreprocessStage
from repro.netcdf import read as nc_read
from repro.ricc import AICCAModel

__all__ = ["StreamBatchResult", "StreamingClassifier"]


@dataclass(frozen=True)
class StreamBatchResult:
    """Outcome of one streamed granule set."""

    key: str
    tiles: int
    class_counts: Dict[int, int]
    seconds: float


@dataclass
class StreamingClassifier:
    """Incremental classify-as-it-arrives driver with rolling statistics."""

    model: AICCAModel
    config: EOMLConfig
    rolling_window: int = 10
    total_tiles: int = 0
    class_totals: Counter = field(default_factory=Counter)
    history: List[StreamBatchResult] = field(default_factory=list)

    def process(self, granules: GranuleSet) -> StreamBatchResult:
        """Preprocess + classify one granule set immediately."""
        started = time.monotonic()
        result = PreprocessStage(self.config).execute(granules)
        counts: Dict[int, int] = {}
        if result.tile_path is not None:
            ds = nc_read(result.tile_path)
            labels = self.model.assign(ds["radiance"].data.astype(np.float32))
            unique, freq = np.unique(labels, return_counts=True)
            counts = {int(u): int(f) for u, f in zip(unique, freq)}
            self.class_totals.update(counts)
            self.total_tiles += int(labels.size)
        batch = StreamBatchResult(
            key=granules.key,
            tiles=result.tiles,
            class_counts=counts,
            seconds=time.monotonic() - started,
        )
        self.history.append(batch)
        return batch

    def run(self, stream: Iterable[GranuleSet]) -> Iterator[StreamBatchResult]:
        """Lazily process a stream, yielding per-batch results."""
        for granules in stream:
            yield self.process(granules)

    # -- rolling situational statistics ----------------------------------------

    def dominant_classes(self, top: int = 5) -> List[tuple]:
        """(class, count) pairs, most common first."""
        return self.class_totals.most_common(top)

    def recent_rate_tiles_per_s(self) -> Optional[float]:
        """Throughput over the rolling window (None before any batch)."""
        window = self.history[-self.rolling_window :]
        if not window:
            return None
        seconds = sum(batch.seconds for batch in window)
        tiles = sum(batch.tiles for batch in window)
        return tiles / seconds if seconds > 0 else float("inf")

    def class_drift(self, earlier: int, later: int) -> float:
        """Total-variation distance between two history windows' class mix.

        The "how is the cloud population changing" signal the paper's
        climate-monitoring discussion motivates; 0 = identical mixes.
        """
        if earlier <= 0 or later <= 0:
            raise ValueError("window sizes must be positive")
        if len(self.history) < earlier + later:
            raise ValueError("not enough history for the requested windows")
        first = Counter()
        for batch in self.history[-(earlier + later) : -later]:
            first.update(batch.class_counts)
        second = Counter()
        for batch in self.history[-later:]:
            second.update(batch.class_counts)
        total_first = sum(first.values()) or 1
        total_second = sum(second.values()) or 1
        classes = set(first) | set(second)
        return 0.5 * sum(
            abs(first[c] / total_first - second[c] / total_second) for c in classes
        )
