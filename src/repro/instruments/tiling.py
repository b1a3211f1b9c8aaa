"""Tile extraction and ocean-cloud selection (the preprocessing kernel).

Implements Section III stage 2: subdivide each (bands, lines, pixels)
swath into non-overlapping ``tile_size``-square tiles, fuse the MOD03
geolocation and MOD06 cloud/land masks, and keep only *ocean-cloud*
tiles — no land pixels, cloud fraction above the threshold ("> 30% cloud
pixels over only ocean regions", Section II-B).

The extraction is *selection-first*: the cloud/land selection masks are
computed from zero-copy reshape views, and only the tiles that pass
selection are ever gathered into fresh arrays.  The full-swath
(rows, cols, tile, tile, bands) cube is never materialized, and the
per-tile tau/ctp/lat/lon reductions run as masked batched sums rather
than a Python loop — both matter at paper scale (2030x1354 swaths),
where selection typically keeps a small fraction of the grid.

It lives under ``repro.instruments`` (below ``repro.core`` in the
layering): the kernel is instrument-agnostic and needs nothing from the
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.instruments.base import OCEAN_CLOUD_THRESHOLD
from repro.netcdf import Dataset

__all__ = [
    "Tile",
    "extract_tiles",
    "tiles_to_dataset",
]


@dataclass
class Tile:
    """One ocean-cloud tile with its AICCA-relevant metadata."""

    data: np.ndarray          # (tile, tile, bands) float32, either byte order
    row: int                  # tile-grid position within the swath
    col: int
    latitude: float           # tile-center geolocation
    longitude: float
    cloud_fraction: float
    mean_optical_thickness: float
    mean_cloud_top_pressure: float
    source: str = ""          # granule key
    label: Optional[int] = None
    extra: Dict[str, float] = field(default_factory=dict)


def _tile_view(field_2d: np.ndarray, tile: int) -> np.ndarray:
    """(lines, pixels) -> (rows, cols, tile, tile) by reshape (no copy)."""
    rows = field_2d.shape[0] // tile
    cols = field_2d.shape[1] // tile
    trimmed = field_2d[: rows * tile, : cols * tile]
    return trimmed.reshape(rows, tile, cols, tile).swapaxes(1, 2)


def extract_tiles(
    radiance: np.ndarray,
    cloud_mask: np.ndarray,
    land_mask: np.ndarray,
    latitude: np.ndarray,
    longitude: np.ndarray,
    tile_size: int,
    optical_thickness: Optional[np.ndarray] = None,
    cloud_top_pressure: Optional[np.ndarray] = None,
    cloud_threshold: float = OCEAN_CLOUD_THRESHOLD,
    max_land_fraction: float = 0.0,
    source: str = "",
) -> List[Tile]:
    """Cut one swath into selected ocean-cloud tiles.

    ``radiance`` is (bands, lines, pixels); the 2-D fields share
    (lines, pixels).  Selection: tile land fraction <= ``max_land_fraction``
    (0 = the paper's "exclusively ... ocean") and cloud fraction >
    ``cloud_threshold``.  Returns tiles in row-major grid order.
    """
    if radiance.ndim != 3:
        raise ValueError(f"radiance must be (bands, lines, pixels); got {radiance.shape}")
    bands, lines, pixels = radiance.shape
    for name, fld in (
        ("cloud_mask", cloud_mask),
        ("land_mask", land_mask),
        ("latitude", latitude),
        ("longitude", longitude),
    ):
        if fld.shape != (lines, pixels):
            raise ValueError(f"{name} shaped {fld.shape}, expected {(lines, pixels)}")
    if tile_size < 2 or tile_size > min(lines, pixels):
        raise ValueError(f"tile size {tile_size} incompatible with swath {lines}x{pixels}")
    if not 0.0 <= cloud_threshold <= 1.0:
        raise ValueError("cloud threshold must be in [0, 1]")

    # float32 means without a float32 copy of either mask.
    cloud_tiles = _tile_view(cloud_mask, tile_size)
    cloud_frac = cloud_tiles.mean(axis=(2, 3), dtype=np.float32)
    land_frac = _tile_view(land_mask, tile_size).mean(axis=(2, 3), dtype=np.float32)
    selected = (land_frac <= max_land_fraction + 1e-12) & (cloud_frac > cloud_threshold)

    sel_rows, sel_cols = np.nonzero(selected)
    if sel_rows.size == 0:
        return []

    # Gather *only* the selected tiles, each straight into its slot of
    # the one (n_selected, tile, tile, bands) cube — never the full-swath
    # (rows, cols, tile, tile, bands) cube.  float32 in the source's byte
    # order: radiances parsed from a granule file arrive big-endian, so
    # the cube is already what the tile file stores.
    sel_data = np.empty(
        (sel_rows.size, tile_size, tile_size, bands),
        dtype=np.dtype(np.float32).newbyteorder(radiance.dtype.byteorder),
    )
    for index, (row, col) in enumerate(zip(sel_rows.tolist(), sel_cols.tolist())):
        top, left = row * tile_size, col * tile_size
        tile = radiance[:, top : top + tile_size, left : left + tile_size]
        sel_data[index] = tile.transpose(1, 2, 0)

    def _gathered(field_2d: np.ndarray) -> np.ndarray:
        # Gather, then convert: float64 of the survivors, not of the swath.
        return _tile_view(field_2d, tile_size)[sel_rows, sel_cols].astype(np.float64)

    lat_mean = _gathered(latitude).mean(axis=(1, 2))
    lon_mean = _gathered(longitude).mean(axis=(1, 2))

    # MOD06 means over cloudy pixels only, as masked batched sums.  A
    # selected tile always has cloud_frac > threshold >= 0, so the count
    # is positive; the guard keeps a clean NaN if that ever changes.
    cloudy = cloud_tiles[sel_rows, sel_cols] > 0.5  # (n_selected, tile, tile)
    cloudy_counts = cloudy.sum(axis=(1, 2))
    safe_counts = np.maximum(cloudy_counts, 1)

    def _cloudy_mean(field_2d: Optional[np.ndarray]) -> np.ndarray:
        if field_2d is None:
            return np.full(sel_rows.size, np.nan)
        sums = np.where(cloudy, _gathered(field_2d), 0.0).sum(axis=(1, 2))
        return np.where(cloudy_counts > 0, sums / safe_counts, np.nan)

    mean_tau = _cloudy_mean(optical_thickness)
    mean_ctp = _cloudy_mean(cloud_top_pressure)
    sel_cloud_frac = cloud_frac[sel_rows, sel_cols]

    return [
        Tile(
            data=sel_data[index],
            row=row,
            col=col,
            latitude=lat,
            longitude=lon,
            cloud_fraction=frac,
            mean_optical_thickness=tau,
            mean_cloud_top_pressure=ctp,
            source=source,
        )
        for index, (row, col, lat, lon, frac, tau, ctp) in enumerate(
            zip(
                sel_rows.tolist(),
                sel_cols.tolist(),
                lat_mean.tolist(),
                lon_mean.tolist(),
                sel_cloud_frac.tolist(),
                mean_tau.tolist(),
                mean_ctp.tolist(),
            )
        )
    ]


def _cube_of(tiles: List[Tile]) -> np.ndarray:
    """The (n, tile, tile, bands) cube of ``tiles``: the array they are
    the slices of, in order (what ``extract_tiles`` returns), else a
    fresh stack."""
    cube = tiles[0].data.base
    if (
        isinstance(cube, np.ndarray)
        and cube.shape[:1] == (len(tiles),)
        and all(
            tile.data.__array_interface__ == slot.__array_interface__
            for tile, slot in zip(tiles, cube)
        )
    ):
        return cube
    return np.stack([tile.data for tile in tiles])


def tiles_to_dataset(
    tiles: List[Tile],
    source: str = "",
) -> Dataset:
    """Pack tiles into the workflow's NetCDF tile-file layout.

    Record dimension ``tile``; per-tile radiance cube plus the metadata
    AICCA derives from MOD06.  Labels (when present) are stored as int32
    with -1 meaning "not yet classified" — the inference stage appends
    real labels in place of that placeholder.
    """
    if not tiles:
        raise ValueError("cannot build a dataset from zero tiles")
    shape = tiles[0].data.shape
    if any(tile.data.shape != shape for tile in tiles):
        raise ValueError("tiles have inconsistent shapes")
    ds = Dataset()
    ds.create_dimension("tile", None)
    ds.create_dimension("y", shape[0])
    ds.create_dimension("x", shape[1])
    ds.create_dimension("band", shape[2])
    ds.create_variable("radiance", "f4", ("tile", "y", "x", "band"), _cube_of(tiles),
                       attributes={"long_name": "ocean-cloud tile radiances"})
    ds.create_variable(
        "latitude", "f4", ("tile",), np.array([t.latitude for t in tiles], dtype=np.float32),
        attributes={"units": "degrees_north"},
    )
    ds.create_variable(
        "longitude", "f4", ("tile",), np.array([t.longitude for t in tiles], dtype=np.float32),
        attributes={"units": "degrees_east"},
    )
    ds.create_variable(
        "cloud_fraction", "f4", ("tile",),
        np.array([t.cloud_fraction for t in tiles], dtype=np.float32),
    )
    ds.create_variable(
        "mean_optical_thickness", "f4", ("tile",),
        np.array([t.mean_optical_thickness for t in tiles], dtype=np.float32),
    )
    ds.create_variable(
        "mean_cloud_top_pressure", "f4", ("tile",),
        np.array([t.mean_cloud_top_pressure for t in tiles], dtype=np.float32),
        attributes={"units": "hPa"},
    )
    ds.create_variable(
        "tile_row", "i4", ("tile",), np.array([t.row for t in tiles], dtype=np.int32)
    )
    ds.create_variable(
        "tile_col", "i4", ("tile",), np.array([t.col for t in tiles], dtype=np.int32)
    )
    labels = np.array(
        [t.label if t.label is not None else -1 for t in tiles], dtype=np.int32
    )
    ds.create_variable(
        "label", "i4", ("tile",), labels,
        attributes={"long_name": "AICCA cloud class", "missing_value": -1},
    )
    ds.set_attr("source_granule", source or (tiles[0].source or "unknown"))
    ds.set_attr("num_tiles", len(tiles))
    return ds
