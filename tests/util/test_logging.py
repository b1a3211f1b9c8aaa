"""EventLog tests."""

from repro.util.logging import EventLog


class TestEventLog:
    def test_emit_and_filter(self):
        log = EventLog()
        log.emit(1.0, "slurm", "submit", job_id=1)
        log.emit(2.0, "slurm", "start", job_id=1)
        log.emit(3.0, "transfer", "submit", task_id=9)
        assert len(log) == 3
        assert len(log.filter(source="slurm")) == 2
        assert len(log.filter(kind="submit")) == 2
        assert len(log.filter(source="slurm", kind="submit")) == 1

    def test_last(self):
        log = EventLog()
        assert log.last() is None
        log.emit(1.0, "a", "x")
        log.emit(2.0, "a", "y")
        assert log.last().kind == "y"
        assert log.last(kind="x").time == 1.0

    def test_subscription(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        log.emit(0.0, "s", "k", value=1)
        assert len(seen) == 1
        assert seen[0].detail == {"value": 1}

    def test_str_rendering(self):
        log = EventLog()
        event = log.emit(1.5, "fs", "close", path="/a.nc")
        assert "fs:close" in str(event)
        assert "path='/a.nc'" in str(event)

    def test_clear_and_index(self):
        log = EventLog()
        log.emit(0.0, "a", "b")
        assert log[0].source == "a"
        log.clear()
        assert len(log) == 0
