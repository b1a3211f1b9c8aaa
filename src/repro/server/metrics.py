"""The control plane's telemetry: counters, histograms, and snapshots.

Section V-A: "we will integrate advanced provenance tracking and
telemetry tools for real-time workflow insights."  Provenance answers
*where did this artifact come from*; telemetry answers *how is the system
behaving right now*.  The control plane answers the second question live:
it counts requests, leases and partition events here and serves the
deterministic, label-aware :meth:`MetricsRegistry.snapshot` at
``GET /v1/metrics``.  A local run keeps no registry: its report is its
record.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

__all__ = ["Counter", "Histogram", "MetricsRegistry"]

LabelPair = Tuple[Tuple[str, str], ...]


def _labels(labels: Optional[Dict[str, str]]) -> LabelPair:
    return tuple(sorted((labels or {}).items()))


class Counter:
    """A monotonically increasing count, optionally per label set.

    Increments are lock-guarded: the server's request threads share one
    registry, and a racy read-modify-write would silently lose counts.
    """

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._lock = threading.Lock()
        self._values: Dict[LabelPair, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        key = _labels(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_labels(labels), 0.0)

    @property
    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())


class Histogram:
    """Fixed-bucket histogram with exact count/sum and quantile estimates."""

    DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0)

    def __init__(self, name: str, description: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError("buckets must be strictly increasing")
        self.name = name
        self.description = description
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +inf bucket
        self.total = 0.0
        self.count = 0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.buckets, value)
        self.counts[index] += 1
        self.total += value
        self.count += 1
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("no observations")
        return self.total / self.count

    def quantile(self, q: float) -> float:
        """Bucket-upper-bound quantile estimate (conservative)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            raise ValueError("no observations")
        target = q * self.count
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= target:
                if index < len(self.buckets):
                    return self.buckets[index]
                return self.maximum
        return self.maximum


@dataclass
class MetricsRegistry:
    """A namespace of metrics with a flat snapshot."""

    prefix: str = ""
    _counters: Dict[str, Counter] = field(default_factory=dict)
    _histograms: Dict[str, Histogram] = field(default_factory=dict)

    def _qualify(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def counter(self, name: str, description: str = "") -> Counter:
        name = self._qualify(name)
        if name not in self._counters:
            self._counters[name] = Counter(name, description)
        return self._counters[name]

    def histogram(self, name: str, description: str = "",
                  buckets: Sequence[float] = Histogram.DEFAULT_BUCKETS) -> Histogram:
        name = self._qualify(name)
        if name not in self._histograms:
            self._histograms[name] = Histogram(name, description, buckets)
        return self._histograms[name]

    def snapshot(self) -> Dict[str, float]:
        """A flat name -> value view (histograms expose count/mean/p95)."""
        out: Dict[str, float] = {}
        for name, counter in sorted(self._counters.items()):
            out[name] = counter.total
            # The bare name is the cross-label total; only genuinely
            # labelled series get their own {k=v} entries.  (A counter
            # registered at zero unlabelled and then incremented with
            # labels must not report the stale unlabelled zero.)
            for key, value in sorted(counter._values.items()):
                if key:
                    labels = ",".join(f"{k}={v}" for k, v in key)
                    out[f"{name}{{{labels}}}"] = value
        for name, histogram in sorted(self._histograms.items()):
            out[f"{name}.count"] = histogram.count
            if histogram.count:
                out[f"{name}.mean"] = histogram.mean
                out[f"{name}.p95"] = histogram.quantile(0.95)
        return out
