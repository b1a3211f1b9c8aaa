"""Quicklook imagery: swath composites and tile-class maps (Fig. 1).

Fig. 1 of the paper shows (a) a MODIS true-colour swath off South America
and (b) the same swath with each ocean-cloud tile coloured by its AICCA
class.  This module renders both from our synthetic data as portable
pixmaps (binary PPM — zero dependencies, viewable everywhere):

* :func:`swath_composite` — an RGB composite from the generated bands
  (reflective band for brightness, thermal band for cold-top tinting);
* :func:`class_map` — the Fig. 1b analog: the swath grid with selected
  tiles filled in their class colour;
* :func:`class_palette` — 42 visually-spread colours via the golden-ratio
  hue walk;
* :func:`write_ppm` — the image writer.
"""

from __future__ import annotations

import colorsys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "write_ppm",
    "class_palette",
    "swath_composite",
    "class_map",
]


def write_ppm(path: str, rgb: np.ndarray) -> int:
    """Write a (H, W, 3) uint8 array as binary PPM; returns bytes."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError("PPM needs a (H, W, 3) array")
    if rgb.dtype != np.uint8:
        rgb = np.clip(rgb, 0, 255).astype(np.uint8)
    header = f"P6\n{rgb.shape[1]} {rgb.shape[0]}\n255\n".encode()
    payload = header + rgb.tobytes()
    with open(path, "wb") as handle:
        handle.write(payload)
    return len(payload)


def class_palette(num_classes: int = 42) -> np.ndarray:
    """(num_classes, 3) uint8 colours, maximally spread hues.

    The golden-ratio hue walk keeps any two nearby class ids visually
    distinct — important when 42 classes share one map.
    """
    if num_classes < 1:
        raise ValueError("need at least one class")
    colors = []
    hue = 0.0
    golden = 0.61803398875
    for index in range(num_classes):
        hue = (hue + golden) % 1.0
        saturation = 0.85 if index % 2 == 0 else 0.6
        value = 0.95 if index % 3 else 0.75
        colors.append(colorsys.hsv_to_rgb(hue, saturation, value))
    return (np.array(colors) * 255).astype(np.uint8)


def swath_composite(
    radiance: np.ndarray,
    band_list: Sequence[int],
    land_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """An RGB (H, W, 3) composite from the generated band stack.

    Reflective band 6 drives brightness (clouds bright), thermal band 31
    drives a blue-cold tint (high tops bluer), land is tinted green-brown
    when a mask is available — a recognisable true-colour-like quicklook.
    """
    radiance = np.asarray(radiance)
    if radiance.ndim != 3:
        raise ValueError("radiance must be (band, line, pixel)")
    bands = list(band_list)
    if len(bands) != radiance.shape[0]:
        raise ValueError("band_list length does not match the band axis")

    def band(number: int) -> np.ndarray:
        if number not in bands:
            raise KeyError(f"band {number} not in granule bands {bands}")
        return radiance[bands.index(number)].astype(np.float64)

    bright = np.clip(band(6), 0.0, 1.0)
    thermal = band(31)
    t_lo, t_hi = float(thermal.min()), float(thermal.max())
    cold = 1.0 - (thermal - t_lo) / (t_hi - t_lo) if t_hi > t_lo else np.zeros_like(thermal)

    red = 0.15 + 0.85 * bright
    green = 0.18 + 0.82 * bright
    blue = 0.25 + 0.60 * bright + 0.15 * cold
    rgb = np.stack([red, green, blue], axis=-1)
    if land_mask is not None:
        land = np.asarray(land_mask, dtype=bool)
        clear_land = land & (bright < 0.3)
        rgb[clear_land] = rgb[clear_land] * 0.4 + np.array([0.25, 0.30, 0.12])
    return np.clip(rgb * 255, 0, 255).astype(np.uint8)


def class_map(
    shape: Tuple[int, int],
    tile_size: int,
    tile_labels: Dict[Tuple[int, int], int],
    num_classes: int = 42,
    background: int = 25,
) -> np.ndarray:
    """The Fig. 1b analog: the swath grid with classified tiles coloured.

    ``tile_labels`` maps (row, col) grid positions to class ids;
    unclassified tiles stay dark.  Grid lines are drawn at tile borders
    so tile extents are visible.
    """
    lines, pixels = shape
    if tile_size < 1:
        raise ValueError("tile size must be >= 1")
    palette = class_palette(num_classes)
    rgb = np.full((lines, pixels, 3), background, dtype=np.uint8)
    for (row, col), label in tile_labels.items():
        y0, x0 = row * tile_size, col * tile_size
        if y0 + tile_size > lines or x0 + tile_size > pixels:
            raise ValueError(f"tile ({row}, {col}) exceeds the raster")
        if not 0 <= label < num_classes:
            raise ValueError(f"label {label} outside [0, {num_classes})")
        rgb[y0 : y0 + tile_size, x0 : x0 + tile_size] = palette[label]
        # A darker border makes adjacent same-class tiles separable.
        rgb[y0, x0 : x0 + tile_size] = rgb[y0, x0 : x0 + tile_size] // 2
        rgb[y0 : y0 + tile_size, x0] = rgb[y0 : y0 + tile_size, x0] // 2
    return rgb
