"""MODIS as a registered :class:`~repro.instruments.Instrument`.

The adapter over the existing package: product resolution delegates to
:func:`repro.modis.constants.resolve_product`, the archive is the
synthetic :class:`LaadsArchive`, and :meth:`load_scene` performs the
exact read-validate-decode sequence the preprocess stage historically
inlined (MOD02 radiances + MOD03 geolocation + MOD06 cloud/land
product), so the golden corpus is unchanged by the indirection.
"""

from __future__ import annotations

from typing import Any

from repro.core.contracts import GRANULE_MOD02, GRANULE_MOD03, GRANULE_MOD06
from repro.instruments.base import Instrument, SceneInputs
from repro.instruments.registry import register_instrument
from repro.modis.archive import LaadsArchive
from repro.modis.constants import (
    GRANULE_MINUTES,
    GRANULES_PER_DAY,
    resolve_product,
)
from repro.netcdf import read as nc_read

__all__ = ["ModisInstrument"]


class ModisInstrument(Instrument):
    """Polar-orbiting swath imager, 5-minute granules via LAADS DAAC."""

    name = "modis"
    title = "MODIS (Terra/Aqua) via LAADS DAAC"
    archive_host = "laads"
    default_products = ("MOD021KM", "MOD03", "MOD06_L2")
    granules_per_day = GRANULES_PER_DAY
    cadence_minutes = GRANULE_MINUTES

    def resolve_product(self, name: str) -> str:
        return resolve_product(name).short_name

    def build_archive(self, seed: int = 0) -> LaadsArchive:
        return LaadsArchive(seed=seed)

    def load_scene(self, granules: Any) -> SceneInputs:
        mod02 = nc_read(granules.path_for("021KM"))
        mod03 = nc_read(granules.path_for("03"))
        mod06 = nc_read(granules.path_for("06_L2"))
        # Interface validation (published contracts, Section V-A): reject
        # malformed inputs at the stage boundary.
        GRANULE_MOD02.validate(mod02)
        GRANULE_MOD03.validate(mod03)
        GRANULE_MOD06.validate(mod06)
        return SceneInputs(
            radiance=mod02["radiance"].data,
            cloud_mask=mod06["cloud_mask"].data.astype(bool),
            land_mask=mod06["land_mask"].data.astype(bool),
            latitude=mod03["latitude"].data,
            longitude=mod03["longitude"].data,
            optical_thickness=mod06["cloud_optical_thickness"].data,
            cloud_top_pressure=mod06["cloud_top_pressure"].data,
            attrs={"true_regime": str(mod02.get_attr("true_regime", "unknown"))},
        )


register_instrument(ModisInstrument())
