"""Byte-size and rate unit parsing and formatting.

The workflow configuration surface of the paper ("32GB for MOD02",
"12.5 GB/s Slingshot-10 interconnect") is expressed in human units.  This
module provides a small, strict parser so configs and simulator parameters
can be written the same way.

All byte quantities are decimal (SI) unless an explicit binary suffix
(``KiB``/``MiB``/...) is used, matching how the paper quotes product sizes.
"""

from __future__ import annotations

import re
from typing import Union

__all__ = [
    "parse_bytes",
    "parse_rate",
    "format_bytes",
    "KB",
    "MB",
    "GB",
    "TB",
    "PB",
    "KiB",
    "MiB",
    "GiB",
    "TiB",
]

KB = 10**3
MB = 10**6
GB = 10**9
TB = 10**12
PB = 10**15

KiB = 2**10
MiB = 2**20
GiB = 2**30
TiB = 2**40

_DECIMAL = {
    "": 1,
    "b": 1,
    "k": KB,
    "kb": KB,
    "m": MB,
    "mb": MB,
    "g": GB,
    "gb": GB,
    "t": TB,
    "tb": TB,
    "p": PB,
    "pb": PB,
}

_BINARY = {
    "kib": KiB,
    "mib": MiB,
    "gib": GiB,
    "tib": TiB,
    "pib": 2**50,
}

_BYTES_RE = re.compile(
    r"^\s*([0-9]+(?:\.[0-9]+)?)\s*([a-zA-Z]*)\s*$",
)

_DURATION_SUFFIX = {
    "": 1.0,
    "s": 1.0,
    "sec": 1.0,
    "secs": 1.0,
    "second": 1.0,
    "seconds": 1.0,
    "ms": 1e-3,
    "us": 1e-6,
    "m": 60.0,
    "min": 60.0,
    "mins": 60.0,
    "minute": 60.0,
    "minutes": 60.0,
    "h": 3600.0,
    "hr": 3600.0,
    "hour": 3600.0,
    "hours": 3600.0,
    "d": 86400.0,
    "day": 86400.0,
    "days": 86400.0,
}


def parse_bytes(value: Union[int, float, str]) -> int:
    """Parse a byte quantity such as ``"32GB"``, ``"8.4 GB"`` or ``1024``.

    Returns an integer number of bytes.  Raises :class:`ValueError` on
    malformed input or unknown suffixes.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a byte quantity: {value!r}")
    if isinstance(value, (int, float)):
        if value < 0:
            raise ValueError(f"byte quantity must be non-negative: {value!r}")
        return int(value)
    match = _BYTES_RE.match(value)
    if match is None:
        raise ValueError(f"cannot parse byte quantity: {value!r}")
    number = float(match.group(1))
    suffix = match.group(2).lower()
    if suffix in _BINARY:
        factor = _BINARY[suffix]
    elif suffix in _DECIMAL:
        factor = _DECIMAL[suffix]
    else:
        raise ValueError(f"unknown byte suffix {match.group(2)!r} in {value!r}")
    return int(round(number * factor))


def parse_rate(value: Union[int, float, str]) -> float:
    """Parse a data rate such as ``"12.5 GB/s"`` or ``"120 MB/sec"``.

    Returns bytes per second as a float.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if value < 0:
            raise ValueError(f"rate must be non-negative: {value!r}")
        return float(value)
    if not isinstance(value, str):
        raise ValueError(f"cannot parse rate: {value!r}")
    parts = value.split("/")
    if len(parts) != 2:
        raise ValueError(f"rate must look like '<size>/<time>': {value!r}")
    size_part, time_part = parts[0], parts[1].strip().lower()
    per = _DURATION_SUFFIX.get(time_part)
    if per is None or per <= 0:
        raise ValueError(f"unknown rate time unit {time_part!r} in {value!r}")
    return parse_bytes(size_part) / per


def format_bytes(nbytes: Union[int, float]) -> str:
    """Render a byte count with the largest natural decimal suffix."""
    nbytes = float(nbytes)
    if nbytes < 0:
        raise ValueError("byte quantity must be non-negative")
    for suffix, factor in (("PB", PB), ("TB", TB), ("GB", GB), ("MB", MB), ("KB", KB)):
        if nbytes >= factor:
            return f"{nbytes / factor:.2f} {suffix}"
    return f"{int(nbytes)} B"
