"""Torn writers vs. the tile announcements: exactly once, never a partial.

Preprocess publishes tile files the way every stage does (temp ``.part``
name + atomic rename, via the chaos-aware write path) and names each one
on the ``preprocess -> inference`` stream once it settles.  The contract
under test is the monitor stage's core promise — presence implies
completeness:

* each published tile file is announced, and labelled, **exactly once**;
* an announcement never names a partial: at announcement time the path
  parses as NetCDF and hashes to the announced digest;
* a torn writer's ``.part`` corpse (chaos ``torn_write``) is never
  announced, not by the run that tore it nor by a resume over it.
"""

import os

from tests.core.crash_driver import build_raw_config
from tests.core.test_tile_announcements import published, run

from repro.netcdf import read as nc_read
from repro.runtime import StreamChannel
from repro.util.digest import sha256_file


def torn_raw(tmp_path, streaming):
    raw = build_raw_config(str(tmp_path), 3)
    raw["chaos"] = {"seed": 0, "faults": [
        {"stage": "preprocess", "kind": "torn_write", "rate": 0.5},
    ]}
    raw["runtime"] = {"stream": {"enabled": streaming}}
    return raw


def probe_announcements(monkeypatch):
    """Record each announced tile path and check the file as it is named."""
    paths, violations = [], []
    put = StreamChannel.put

    def probing_put(channel, item):
        if channel.edge == "preprocess->inference" and item[0] == "tiles":
            _kind, path, sha256 = item
            paths.append(path)
            if path.endswith(".part"):
                violations.append(f"announced a temp file: {path}")
            try:
                nc_read(path)  # a partial would fail to parse
                if sha256_file(path) != sha256:
                    violations.append(f"digest differs at announcement: {path}")
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                violations.append(f"unreadable at announcement: {path}: {exc}")
        put(channel, item)

    monkeypatch.setattr(StreamChannel, "put", probing_put)
    return paths, violations


def corpses(directory):
    return [name for name in os.listdir(directory) if name.endswith(".part")]


class TestCrawlerWriterRace:
    def test_exactly_once_and_never_partial(self, tmp_path, monkeypatch):
        paths, violations = probe_announcements(monkeypatch)
        config, report = run(torn_raw(tmp_path, streaming=False))

        assert corpses(config.preprocessed) and report.preprocess.quarantined
        assert violations == []
        assert sorted(paths) == published(config.preprocessed)  # each exactly once
        assert sorted(r.src_path for r in report.inference) == sorted(paths)
        assert report.labelled_tiles == report.total_tiles > 0

    def test_abandoned_torn_write_is_refused_forever(self, tmp_path, monkeypatch):
        paths, violations = probe_announcements(monkeypatch)
        raw = torn_raw(tmp_path, streaming=True)
        config, first = run(raw)
        left = corpses(config.preprocessed)
        assert left and first.preprocess.quarantined  # torn writers died mid-file

        # A resume over the same directories re-tiles what was torn; the
        # corpses it finds lying there are never named either.
        raw["chaos"] = {"seed": 0, "faults": []}
        _config, second = run(raw)

        assert violations == []
        assert not any(path.endswith(".part") for path in paths)
        assert set(paths) <= set(published(config.preprocessed))
        assert second.labelled_tiles == second.total_tiles > 0
