"""The instrument interface and its registry.

See :mod:`repro.instruments.base` for the contract and
:mod:`repro.instruments.registry` for the name → implementation map.
The built-in instrument is ``modis`` (polar swath, 5-min cadence).
"""

from repro.instruments.base import (
    OCEAN_CLOUD_THRESHOLD,
    Instrument,
    SceneInputs,
)
from repro.instruments.registry import (
    available_instruments,
    get_instrument,
    register_instrument,
)

__all__ = [
    "OCEAN_CLOUD_THRESHOLD",
    "Instrument",
    "SceneInputs",
    "available_instruments",
    "get_instrument",
    "register_instrument",
]
