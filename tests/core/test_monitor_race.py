"""Crawler vs. writer races: exactly-once triggers, never a partial.

A writer thread publishes tile files the way every stage does (temp
``.part`` name + atomic rename, via the chaos-aware write path) while
the crawler polls concurrently.  The contract under test is the
monitor stage's core promise — presence implies completeness:

* each published file triggers **exactly once**, even with a background
  poll loop and a main-thread ``scan_once`` hammering the directory;
* a trigger never observes a partial: the path parses as NetCDF at
  trigger time;
* a torn writer's ``.part`` corpse (chaos ``torn_write``) is refused
  forever, and counted.
"""

import os
import threading
import time
from collections import Counter

import numpy as np

from repro.chaos import FaultInjector, FaultPlan, FaultSpec, chaos_atomic_write
from repro.core import DirectoryCrawler
from repro.netcdf import Dataset, read as nc_read


def tile_dataset(index):
    ds = Dataset()
    ds.create_dimension("x", 64)
    ds.create_variable(
        "v", "f4", ("x",), np.full(64, float(index), dtype=np.float32)
    )
    ds.set_attr("index", index)
    return ds


class TriggerProbe:
    """Records every trigger and validates the file at trigger time."""

    def __init__(self):
        self.counts = Counter()
        self.violations = []
        self._lock = threading.Lock()

    def __call__(self, path):
        if path.endswith(".part"):
            self.violations.append(f"triggered on a temp file: {path}")
        try:
            nc_read(path)  # a partial would fail to parse
        except Exception as exc:  # noqa: BLE001 - recorded for the assert
            self.violations.append(f"unparseable at trigger time: {path}: {exc}")
        with self._lock:
            self.counts[path] += 1


class TestCrawlerWriterRace:
    def test_exactly_once_and_never_partial(self, tmp_path):
        directory = str(tmp_path)
        probe = TriggerProbe()
        num_files = 12
        # Every first write of every key is torn (rate 1, times 1): the
        # writer leaves a .part corpse mid-race and retries, exactly the
        # failure mode the crawler must be immune to.
        chaos = FaultInjector(FaultPlan(seed=5, faults=(
            FaultSpec("preprocess", "torn_write", rate=1.0, times=1),
        )))
        published = []

        def writer():
            for index in range(num_files):
                name = f"tiles_{index:03d}.nc"
                final = os.path.join(directory, name)
                while True:
                    try:
                        chaos_atomic_write(tile_dataset(index), final,
                                           chaos=chaos, stage="preprocess",
                                           key=name)
                        break
                    except OSError:
                        time.sleep(0.002)  # crashed worker; a retry re-runs it
                published.append(final)
                time.sleep(0.003)

        crawler = DirectoryCrawler(directory, trigger=probe, poll_interval=0.005)
        thread = threading.Thread(target=writer)
        with crawler:
            thread.start()
            # Hammer scan_once from this thread while the loop polls: the
            # scan lock must still deliver exactly-once triggers.
            while thread.is_alive():
                crawler.scan_once()
                time.sleep(0.001)
            thread.join()
            deadline = time.monotonic() + 10
            while len(probe.counts) < num_files and time.monotonic() < deadline:
                crawler.scan_once()
                time.sleep(0.005)

        assert probe.violations == []
        assert sorted(probe.counts) == sorted(published)
        assert all(count == 1 for count in probe.counts.values()), probe.counts
        assert not crawler.errors
        # Every torn first attempt fired and was survived.
        assert chaos.counts_by_kind() == {"torn_write": num_files}

    def test_abandoned_torn_write_is_refused_forever(self, tmp_path):
        directory = str(tmp_path)
        probe = TriggerProbe()
        chaos = FaultInjector(FaultPlan(seed=5, faults=(
            FaultSpec("preprocess", "torn_write", rate=1.0, times=1),
        )))
        final = os.path.join(directory, "tiles_dead.nc")
        try:
            chaos_atomic_write(tile_dataset(0), final, chaos=chaos,
                               stage="preprocess", key="tiles_dead.nc")
        except OSError:
            pass  # the writer "died" here; nobody retries
        assert os.path.exists(final + ".part") and not os.path.exists(final)

        crawler = DirectoryCrawler(directory, trigger=probe, poll_interval=0.005)
        for _ in range(5):
            assert crawler.scan_once() == []
        assert probe.counts == {}
        assert crawler.partials_seen == 1  # seen, counted, refused
