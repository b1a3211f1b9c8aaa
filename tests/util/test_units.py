"""Unit parsing/formatting tests."""

import pytest

from repro.util import units


class TestParseBytes:
    def test_plain_int(self):
        assert units.parse_bytes(1024) == 1024

    def test_decimal_suffixes(self):
        assert units.parse_bytes("32GB") == 32 * 10**9
        assert units.parse_bytes("8.4 GB") == int(8.4 * 10**9)
        assert units.parse_bytes("18gb") == 18 * 10**9
        assert units.parse_bytes("100MB") == 100 * 10**6
        assert units.parse_bytes("1.6 PB") == int(1.6 * 10**15)

    def test_binary_suffixes(self):
        assert units.parse_bytes("1KiB") == 1024
        assert units.parse_bytes("2 MiB") == 2 * 2**20

    def test_bare_number_string(self):
        assert units.parse_bytes("42") == 42

    def test_bad_inputs(self):
        for bad in ("", "GB", "12XB", "1.2.3GB", -5):
            with pytest.raises(ValueError):
                units.parse_bytes(bad)

    def test_bool_rejected(self):
        with pytest.raises(ValueError):
            units.parse_bytes(True)


class TestParseRate:
    def test_paper_interconnect(self):
        # "12.5 GB/s Slingshot-10 interconnect"
        assert units.parse_rate("12.5 GB/s") == pytest.approx(12.5e9)

    def test_per_minute(self):
        assert units.parse_rate("60MB/min") == pytest.approx(1e6)

    def test_float_passthrough(self):
        assert units.parse_rate(1000.0) == 1000.0

    def test_bad_rate(self):
        for bad in ("12GB", "12GB/s/s", "12GB/parsec"):
            with pytest.raises(ValueError):
                units.parse_rate(bad)


class TestFormatting:
    def test_format_bytes(self):
        assert units.format_bytes(32 * 10**9) == "32.00 GB"
        assert units.format_bytes(999) == "999 B"
        assert units.format_bytes(1.6e15) == "1.60 PB"

    def test_roundtrip(self):
        for value in (1, 10**6, 32 * 10**9):
            assert units.parse_bytes(units.format_bytes(value)) == pytest.approx(value, rel=0.01)
