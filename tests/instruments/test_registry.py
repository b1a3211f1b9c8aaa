"""Registry lookups and the config layer's name resolution.

The failure-mode promise matters most: an unknown instrument name must
die at config-load time with a ``ConfigError`` that names the offending
key and lists what *is* registered — never deep inside a stage.
"""

import pytest

from repro.core import load_config
from repro.core.config import ConfigError
from repro.instruments import available_instruments, get_instrument
from repro.instruments.registry import register_instrument


def make_raw(tmp_path, **overrides):
    raw = {
        "name": "registry-test",
        "archive": {"start_date": "2022-01-01", "max_granules_per_day": 1},
        "paths": {
            "staging": str(tmp_path / "staging"),
            "preprocessed": str(tmp_path / "pre"),
            "transfer_out": str(tmp_path / "out"),
            "destination": str(tmp_path / "dst"),
        },
    }
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        raw.setdefault(section, {})[field] = value
    return raw


class TestRegistry:
    def test_builtins_are_registered(self):
        assert "modis" in available_instruments()

    def test_unknown_instrument_names_the_available_set(self):
        with pytest.raises(KeyError, match="modis"):
            get_instrument("viirs")

    def test_registration_is_idempotent_last_write_wins(self):
        sentinel = get_instrument("modis")
        assert register_instrument(sentinel) is sentinel
        assert get_instrument("modis") is sentinel


class TestConfigResolution:
    def test_single_source_defaults(self, tmp_path):
        config = load_config(make_raw(tmp_path))
        assert config.instrument == "modis"

    def test_unknown_instrument_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            load_config(make_raw(tmp_path, **{"archive.instrument": "viirs"}))
        message = str(exc.value)
        assert "archive.instrument" in message
        assert "viirs" in message
        assert "modis" in message  # the available set is listed

    def test_products_default_to_the_instruments_scene(self, tmp_path):
        config = load_config(make_raw(tmp_path))
        assert config.products == list(get_instrument("modis").default_products)
