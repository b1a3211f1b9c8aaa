#!/usr/bin/env python
"""Decadal monitoring: detect cloud-population change from AICCA labels.

The paper's science goal: "classifying different cloud types over the
oceans and monitoring their changes over decades" (Section V).  This
example simulates a multi-year archive in which closed-cell
stratocumulus gradually gives way to open-cell convection (the canonical
warming-response hypothesis), labels every year's tiles with a trained
atlas, and runs the Mann-Kendall trend detector over the per-class
frequency series.

Run:  python examples/decadal_monitoring.py
"""

import tempfile

import numpy as np

from repro.analysis import class_frequency_series, detect_changing_classes
from repro.instruments.tiling import Tile, tiles_to_dataset
from repro.modis.synthesis import synthesize_scene
from repro.netcdf import write as nc_write
from repro.ricc import AICCAModel

SEED = 31
TILE = 16
YEARS = range(2000, 2014)


def regime_tiles(regime: str, count: int, rng: np.random.Generator) -> np.ndarray:
    """Ocean-cloud tiles drawn from one generating regime."""
    tiles = []
    while len(tiles) < count:
        scene = synthesize_scene((TILE * 4, TILE * 4), rng, regime=regime)
        # Use optical thickness + CTP as a 2-channel "radiance" proxy so
        # the regimes are separable the way the real bands make them.
        stack = np.stack(
            [scene.tau / 30.0, scene.ctp / 1013.0], axis=-1
        ).astype(np.float32)
        for row in range(4):
            for col in range(4):
                block = stack[row * TILE:(row + 1) * TILE, col * TILE:(col + 1) * TILE]
                cloud = scene.cloud_mask[row * TILE:(row + 1) * TILE,
                                          col * TILE:(col + 1) * TILE]
                if cloud.mean() > 0.3:
                    tiles.append(block)
                if len(tiles) == count:
                    return np.stack(tiles)
    return np.stack(tiles)


def main() -> None:
    rng = np.random.default_rng(SEED)
    print("training the atlas on a mixed-regime corpus ...")
    corpus = np.concatenate([
        regime_tiles("closed_cell_sc", 80, rng),
        regime_tiles("open_cell_sc", 80, rng),
        regime_tiles("cirrus", 80, rng),
    ])
    model, _ = AICCAModel.train(
        corpus, num_classes=6, latent_dim=6, hidden=(64,), epochs=10, seed=SEED
    )

    with tempfile.TemporaryDirectory() as root:
        files_by_year = {}
        for year in YEARS:
            # The imposed change: closed-cell Sc share decays 70% -> 31%.
            closed_share = 0.7 - 0.03 * (year - 2000)
            n_total = 90
            n_closed = int(round(closed_share * n_total))
            n_open = int(round((0.9 - closed_share) * n_total))
            n_cirrus = n_total - n_closed - n_open
            tiles_arr = np.concatenate([
                regime_tiles("closed_cell_sc", n_closed, rng),
                regime_tiles("open_cell_sc", n_open, rng),
                regime_tiles("cirrus", n_cirrus, rng),
            ])
            labels = model.assign(tiles_arr)
            tile_objs = []
            for index in range(tiles_arr.shape[0]):
                tile_objs.append(
                    Tile(
                        data=tiles_arr[index], row=index, col=0,
                        latitude=-15.0, longitude=-85.0, cloud_fraction=0.6,
                        mean_optical_thickness=10.0, mean_cloud_top_pressure=800.0,
                        label=int(labels[index]),
                    )
                )
            path = f"{root}/labels_{year}.nc"
            nc_write(tiles_to_dataset(tile_objs, source=f"year-{year}"), path)
            files_by_year[str(year)] = [path]

        series = class_frequency_series(files_by_year, num_classes=model.num_classes)
        print(f"built a {len(series.periods)}-year frequency series over "
              f"{series.counts.sum()} labelled tiles\n")
        print("year  " + "  ".join(f"c{c}" for c in series.classes))
        for row, year in enumerate(series.periods):
            shares = "  ".join(f"{series.fractions[row, col]:.2f}"
                               for col in range(len(series.classes)))
            print(f"{year}  {shares}")

        changing = detect_changing_classes(series, alpha=0.05)
        print(f"\nMann-Kendall detections (alpha=0.05): {len(changing)} class(es)")
        for label, result in changing:
            print(f"  class {label}: {result.direction}, "
                  f"slope {result.slope * 100:+.2f} %/year, p={result.p_value:.2g}")
        if not changing:
            print("  (none — try more years or a stronger imposed drift)")


if __name__ == "__main__":
    main()
