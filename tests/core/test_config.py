"""Workflow configuration schema tests."""

import datetime as dt

import pytest

from repro.core import ConfigError, load_config

GOOD_YAML = """
name: eo-ml-demo
archive:
  products: [MOD02, MOD03, MOD06]
  start_date: 2022-01-01
  max_granules_per_day: 4
  seed: 7
paths:
  staging: /tmp/raw
download:
  workers: 3
preprocess:
  workers: 32
  tile_size: 16
inference:
  workers: 1
shipment:
  enabled: true
"""


class TestLoadConfig:
    def test_full_document(self):
        config = load_config(GOOD_YAML)
        assert config.name == "eo-ml-demo"
        # Aliases resolve to canonical LAADS short names.
        assert config.products == ["MOD021KM", "MOD03", "MOD06_L2"]
        assert config.start_date == dt.date(2022, 1, 1)
        assert config.end_date == dt.date(2022, 1, 1)  # defaults to start
        assert config.max_granules_per_day == 4
        assert config.seed == 7
        assert config.staging == "/tmp/raw"
        assert config.preprocessed == "data/tiles"  # default
        assert config.workers.download == 3
        assert config.workers.preprocess == 32
        assert config.workers.inference == 1
        assert config.tile_size == 16
        assert config.cloud_threshold == pytest.approx(0.30)
        assert config.ship is True

    def test_minimal_document(self):
        config = load_config("archive:\n  start_date: 2022-01-01\n")
        assert config.products == ["MOD021KM", "MOD03", "MOD06_L2"]
        assert config.workers.download == 3  # paper defaults

    def test_mapping_input(self):
        config = load_config({"archive": {"start_date": "2022-06-15"}})
        assert config.start_date == dt.date(2022, 6, 15)

    def test_end_before_start(self):
        with pytest.raises(ConfigError, match="end date"):
            load_config(
                "archive:\n  start_date: 2022-01-02\n  end_date: 2022-01-01\n"
            )

    def test_unknown_product(self):
        with pytest.raises(ConfigError, match="unknown MODIS product"):
            load_config("archive:\n  start_date: 2022-01-01\n  products: [MOD99]\n")

    def test_unknown_key_rejected(self):
        # A typo, and the knobs that are gone (the progressive-fidelity
        # pair, the instrument x model fan-out lists, the model name, the
        # inference drain deadline and the live pool's elastic section):
        # an old config naming one fails loudly instead of being ignored.
        for section, key, value in [
            ("archive", "tiem_span", "oops"),
            ("preprocess", "coarse_stride", 2),
            ("inference", "refine_threshold", 0.1),
            ("archive", "instruments", ["modis"]),
            ("inference", "models", ["ricc"]),
            ("inference", "model", "ricc"),
            ("inference", "drain_timeout", 300.0),
            ("runtime", "elastic", {"enabled": True}),
        ]:
            raw = {"archive": {"start_date": "2022-01-01"}}
            raw[section] = dict(raw.get(section, {}), **{key: value})
            with pytest.raises(ConfigError, match=rf"^{section}: unknown keys \['{key}'\]"):
                load_config(raw)

    def test_bad_worker_count(self):
        with pytest.raises(ConfigError, match="positive"):
            load_config(
                "archive:\n  start_date: 2022-01-01\ndownload:\n  workers: 0\n"
            )

    def test_bad_threshold(self):
        with pytest.raises(ConfigError, match="fraction"):
            load_config(
                "archive:\n  start_date: 2022-01-01\npreprocess:\n  cloud_threshold: 1.5\n"
            )

    def test_bad_date(self):
        with pytest.raises(ConfigError):
            load_config("archive:\n  start_date: January 1st\n")

    def test_non_mapping(self):
        with pytest.raises(ConfigError):
            load_config("- just\n- a\n- list\n")


class TestJournalConfig:
    def test_defaults_derive_journal_dir_from_staging(self):
        config = load_config(
            "archive:\n  start_date: 2022-01-01\n"
            "paths:\n  staging: /scratch/run7/raw\n"
        )
        assert config.journal_enabled is True
        assert config.journal_durable is True
        # The journal lives beside (not inside) the watched staging tree.
        assert config.journal_dir == "/scratch/run7/journal"

    def test_explicit_journal_section(self):
        config = load_config(
            {
                "archive": {"start_date": "2022-01-01"},
                "journal": {
                    "enabled": False,
                    "dir": "/state/journal",
                    "durable": False,
                },
            }
        )
        assert config.journal_enabled is False
        assert config.journal_dir == "/state/journal"
        assert config.journal_durable is False

    def test_enabled_must_be_boolean(self):
        with pytest.raises(ConfigError, match="boolean"):
            load_config(
                "archive:\n  start_date: 2022-01-01\n"
                "journal:\n  enabled: maybe\n"
            )

    def test_unknown_journal_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(
                "archive:\n  start_date: 2022-01-01\n"
                "journal:\n  path: /state\n"
            )


def test_runtime_stream_takes_only_enabled_and_capacity():
    config = load_config({
        "archive": {"start_date": "2022-01-01"},
        "runtime": {"stream": {"enabled": True, "capacity": 3}},
    })
    assert (config.stream.enabled, config.stream.capacity) == (True, 3)
    # The runner decides barrier or pipeline: no per-edge knob, not even
    # for an edge the plan does not have.
    with pytest.raises(ConfigError, match=r"runtime\.stream.*'edges'"):
        load_config({
            "archive": {"start_date": "2022-01-01"},
            "runtime": {"stream": {"edges": {"download->preprocess": {}}}},
        })
