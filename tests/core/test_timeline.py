"""WallClockTimeline tests."""

import time

import pytest

from repro.core.timeline import WallClockTimeline


class TestWallClockTimeline:
    def test_spans_and_breakdown_order(self):
        timeline = WallClockTimeline()
        timeline.begin("download")
        timeline.end("download")
        timeline.begin("preprocess")
        timeline.end("preprocess")
        breakdown = timeline.breakdown()
        assert [b.stage for b in breakdown] == ["download", "preprocess"]
        assert all(b.duration >= 0 for b in breakdown)

    def test_end_without_begin(self):
        timeline = WallClockTimeline()
        with pytest.raises(KeyError):
            timeline.end("ghost")

    def test_worker_gauges(self):
        timeline = WallClockTimeline()
        timeline.workers("download", +3)
        series = timeline.series("download")
        assert series.at(timeline.now + 1) == 3
        timeline.workers("download", -3)
        assert timeline.series("download").at(timeline.now + 1) == 0

    def test_overlaps_keyed_in_plan_order(self):
        # Threads that begin together race; the key must not.
        timeline = WallClockTimeline()
        timeline.begin("inference")
        timeline.begin("preprocess")
        time.sleep(0.005)
        timeline.end("inference")
        timeline.end("preprocess")
        overlaps = timeline.overlaps(["download", "preprocess", "inference"])
        assert list(overlaps) == ["preprocess+inference"]
        assert overlaps["preprocess+inference"] > 0

    def test_gaps_non_negative(self):
        timeline = WallClockTimeline()
        timeline.begin("a")
        timeline.end("a")
        timeline.begin("b")
        timeline.end("b")
        gaps = timeline.gaps()
        assert len(gaps) == 1
        (src, dst, gap) = gaps[0]
        assert (src, dst) == ("a", "b")
        assert gap >= 0

    def test_render_empty(self):
        assert "no activity" in WallClockTimeline().render()

    def test_render_with_activity(self):
        timeline = WallClockTimeline()
        timeline.workers("preprocess", 4)
        timeline.workers("preprocess", -4)
        text = timeline.render()
        assert "workers:preprocess" in text
        assert "peak=4" in text
