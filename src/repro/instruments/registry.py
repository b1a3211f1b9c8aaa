"""The instrument registry.

A flat name → implementation map with lazy built-in loading: the
built-in ``repro.modis`` registers itself at import time, and the first
lookup imports it.  Laziness matters for layering — ``repro.core``
imports this module at module scope, and the built-in imports
``repro.core`` helpers (contracts), so an eager import here would cycle.

Unknown names raise ``KeyError`` listing what is available; the config
layer wraps that into a ``ConfigError`` pointing at ``archive.instrument``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.instruments.base import Instrument

__all__ = [
    "register_instrument",
    "get_instrument",
    "available_instruments",
]

_INSTRUMENTS: Dict[str, Instrument] = {}
_builtins_loaded = False


def _ensure_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    # Importing the module runs its register_instrument call.
    import repro.modis.instrument  # noqa: F401


def register_instrument(instrument: Instrument) -> Instrument:
    """Register ``instrument`` under its ``name`` (returns it)."""
    _INSTRUMENTS[instrument.name] = instrument
    return instrument


def get_instrument(name: str) -> Instrument:
    _ensure_builtins()
    try:
        return _INSTRUMENTS[name]
    except KeyError:
        known = ", ".join(sorted(_INSTRUMENTS))
        raise KeyError(
            f"unknown instrument {name!r} (available: {known})"
        ) from None


def available_instruments() -> Tuple[str, ...]:
    _ensure_builtins()
    return tuple(sorted(_INSTRUMENTS))
