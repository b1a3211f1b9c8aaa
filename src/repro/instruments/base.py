"""The instrument interface — the data-source seam.

The paper's pipeline is written against one instrument (MODIS via
LAADS).  :class:`Instrument` is the small contract the download and
preprocess stages drive it through: how granules are named and paced,
which products make up a complete scene, how to build the (synthetic)
archive, and how to decode one scene's granule files into the arrays
tiling consumes.  Besides ``modis`` the benchmark registers a corpus
replay of it, so the stages never name a source directly.

``repro.core`` imports only this module and the registry next door —
never an instrument package directly (``tools/check_layering.py``
enforces it).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "OCEAN_CLOUD_THRESHOLD",
    "SceneInputs",
    "Instrument",
]

# Paper constant: a tile must be >30 % cloudy (over ocean) to enter the
# corpus.  It lives here — not inside any one instrument — because the
# preprocess stage applies the same physical criterion to every source.
OCEAN_CLOUD_THRESHOLD = 0.30


@dataclass
class SceneInputs:
    """One scene's granule files decoded into tiling-ready arrays.

    This is the hand-off between an :class:`Instrument` and the generic
    ``extract_tiles`` kernel: every array is on the instrument's native
    pixel grid, masks are boolean, and invalid pixels arrive masked as
    land so the ocean-only tile selection never sees them.
    """

    radiance: np.ndarray                  # (bands, lines, pixels) float32
    cloud_mask: np.ndarray                # (lines, pixels) bool
    land_mask: np.ndarray                 # (lines, pixels) bool
    latitude: np.ndarray                  # (lines, pixels) float32
    longitude: np.ndarray                 # (lines, pixels) float32
    optical_thickness: Optional[np.ndarray] = None
    cloud_top_pressure: Optional[np.ndarray] = None
    attrs: Dict[str, str] = field(default_factory=dict)


class Instrument(abc.ABC):
    """A satellite data source the five-stage pipeline can drive.

    Class attributes describe the static geometry and cadence; the
    three methods cover the pipeline's touch points: product-name
    resolution (config validation), archive construction (download),
    and scene decoding (preprocess).
    """

    #: registry key (``archive.instrument``)
    name: str
    #: human-readable source description
    title: str
    #: circuit-breaker host key for download retries
    archive_host: str
    #: the products that make up one complete scene
    default_products: Tuple[str, ...]
    #: granules per product per day (cadence)
    granules_per_day: int
    #: minutes between consecutive granules
    cadence_minutes: int

    @abc.abstractmethod
    def resolve_product(self, name: str) -> str:
        """Canonical short name for ``name`` (aliases accepted).

        Raises ``KeyError`` naming the known products when ``name``
        is not one of this instrument's products.
        """

    @abc.abstractmethod
    def build_archive(self, seed: int = 0) -> Any:
        """The synthetic archive for this source.

        The returned object must provide ``query(product, start, end,
        max_per_day)`` yielding refs with ``.filename``/``.gid`` and
        ``fetch(ref, bands=None)`` returning a dataset — the surface
        ``DownloadStage`` and ``ChaosArchive`` consume.
        """

    @abc.abstractmethod
    def load_scene(self, granules: Any) -> SceneInputs:
        """Decode one complete scene (a ``GranuleSet``) for tiling.

        ``granules`` provides ``path_for(family)`` and ``key``; the
        instrument validates its own file contracts here.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<Instrument {self.name}: {self.title}>"
