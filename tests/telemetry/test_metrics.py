"""Telemetry metric tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_inc_and_labels(self):
        counter = Counter("tiles_processed")
        counter.inc(5, stage="preprocess")
        counter.inc(3, stage="preprocess")
        counter.inc(2, stage="inference")
        assert counter.value(stage="preprocess") == 8
        assert counter.value(stage="inference") == 2
        assert counter.total == 10

    def test_monotone(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestHistogram:
    def test_count_sum_mean(self):
        histogram = Histogram("latency", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.mean == pytest.approx((0.05 + 0.5 + 0.5 + 5.0) / 4)
        assert histogram.minimum == 0.05
        assert histogram.maximum == 5.0

    def test_quantile_estimates(self):
        histogram = Histogram("latency", buckets=(1.0, 2.0, 4.0, 8.0))
        for value in np.linspace(0.1, 7.9, 100):
            histogram.observe(value)
        # Conservative (bucket-upper-bound) estimates land in the right bucket.
        assert histogram.quantile(0.5) == 4.0
        assert histogram.quantile(1.0) == 8.0
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("x", buckets=(2.0, 1.0))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
                    min_size=1, max_size=100))
    def test_quantile_bounds_property(self, values):
        histogram = Histogram("x", buckets=(1.0, 10.0, 100.0))
        for value in values:
            histogram.observe(value)
        # Any quantile is between min and a bucket bound >= max's bucket.
        q50 = histogram.quantile(0.5)
        assert q50 >= min(values) - 1e-9 or q50 in histogram.buckets


class TestRegistry:
    def test_idempotent_creation(self):
        registry = MetricsRegistry(prefix="eo_ml")
        a = registry.counter("files")
        b = registry.counter("files")
        assert a is b
        assert a.name == "eo_ml.files"

    def test_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("tiles").inc(12)
        registry.counter("leases").inc(3, unit="download")
        hist = registry.histogram("task_seconds", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(2.0)
        snap = registry.snapshot()
        assert snap["tiles"] == 12
        assert snap["leases"] == 3
        assert snap["leases{unit=download}"] == 3
        assert snap["task_seconds.count"] == 2
        assert "task_seconds.mean" in snap
