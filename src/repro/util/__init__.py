"""Shared utilities: units, YAML-subset parsing, config schema, stats, logging."""

from repro.util.units import (
    format_bytes,
    parse_bytes,
    parse_rate,
)
from repro.util.stats import RunningStats, summarize
from repro.util.yamlish import YamlError, loads as yaml_loads

__all__ = [
    "parse_bytes",
    "parse_rate",
    "format_bytes",
    "RunningStats",
    "summarize",
    "yaml_loads",
    "YamlError",
]
