#!/usr/bin/env python
"""AICCA atlas demo: classify ocean-cloud tiles on a swath (Fig. 1 analog).

Builds a training corpus of ocean-cloud tiles from several synthetic
MODIS granules, trains the rotationally invariant autoencoder +
agglomerative clustering (RICC), evaluates cluster quality, and then
classifies a held-out swath — printing the per-class physical-property
table and an ASCII map of class labels across the swath's tile grid
(the textual cousin of the paper's Fig. 1b).

Run:  python examples/aicca_atlas.py
"""

import datetime as dt

import numpy as np

from repro.instruments.tiling import extract_tiles
from repro.modis import MINI_SWATH, GranuleId, generate_granule
from repro.ricc import AICCAModel

TRAIN_GRANULES = 6
NUM_CLASSES = 8  # 42 in the paper; scaled to the corpus size here
SEED = 7


def granule_tiles(index: int, date: dt.date):
    """Extract ocean-cloud tiles for one granule (MOD02 + MOD06 fusion)."""
    mod02 = generate_granule(GranuleId("MOD021KM", date, index), MINI_SWATH, seed=SEED)
    mod03 = generate_granule(GranuleId("MOD03", date, index), MINI_SWATH, seed=SEED)
    mod06 = generate_granule(GranuleId("MOD06_L2", date, index), MINI_SWATH, seed=SEED)
    return extract_tiles(
        radiance=mod02["radiance"].data,
        cloud_mask=mod06["cloud_mask"].data.astype(bool),
        land_mask=mod06["land_mask"].data.astype(bool),
        latitude=mod03["latitude"].data,
        longitude=mod03["longitude"].data,
        tile_size=MINI_SWATH.tile_size,
        optical_thickness=mod06["cloud_optical_thickness"].data,
        cloud_top_pressure=mod06["cloud_top_pressure"].data,
        source=mod02.get_attr("granule"),
    ), mod02.get_attr("true_regime")


def main() -> None:
    date = dt.date(2022, 1, 1)
    train_tiles, regimes = [], []
    for index in range(TRAIN_GRANULES):
        tiles, regime = granule_tiles(index, date)
        train_tiles.extend(tiles)
        regimes.extend([regime] * len(tiles))
    corpus = np.stack([t.data for t in train_tiles])
    print(f"training corpus: {corpus.shape[0]} ocean-cloud tiles "
          f"({corpus.shape[1]}x{corpus.shape[2]}x{corpus.shape[3]}) from "
          f"{TRAIN_GRANULES} granules, regimes: {sorted(set(regimes))}")

    model, history = AICCAModel.train(
        corpus, num_classes=NUM_CLASSES, latent_dim=8, hidden=(96,),
        epochs=12, lr=2e-3, seed=SEED,
    )
    print(f"trained RICC: loss {history[0].loss:.4f} -> {history[-1].loss:.4f}, "
          f"invariance {history[0].invariance_loss:.4f} -> {history[-1].invariance_loss:.4f}")

    report = model.evaluate(corpus)
    print(f"cluster quality: silhouette {report.silhouette:.3f}, "
          f"stability {report.stability:.3f} over {report.n_clusters} classes")

    # Classify a held-out granule and draw its tile-label map.
    held_out, regime = granule_tiles(TRAIN_GRANULES + 3, date)
    if not held_out:
        print("held-out granule had no ocean-cloud tiles; try another index")
        return
    tiles_array = np.stack([t.data for t in held_out])
    labels = model.assign(tiles_array)
    stats = model.class_statistics(
        labels,
        {
            "optical_thickness": np.array([t.mean_optical_thickness for t in held_out]),
            "cloud_top_pressure": np.array([t.mean_cloud_top_pressure for t in held_out]),
            "cloud_fraction": np.array([t.cloud_fraction for t in held_out]),
        },
    )
    print(f"\nheld-out swath (true regime: {regime}): "
          f"{len(held_out)} ocean-cloud tiles classified")
    print(f"{'class':>5} {'tiles':>5} {'mean COT':>9} {'mean CTP':>9} {'mean CF':>8}")
    for s in stats:
        print(f"{s.label:>5} {s.count:>5} {s.mean_optical_thickness:>9.2f} "
              f"{s.mean_cloud_top_pressure:>9.1f} {s.mean_cloud_fraction:>8.2f}")

    rows = MINI_SWATH.tile_rows
    cols = MINI_SWATH.tile_cols
    grid = [["."] * cols for _ in range(rows)]
    for tile, label in zip(held_out, labels):
        grid[tile.row][tile.col] = "0123456789abcdefghijklmnopqrstuvwxyz"[label % 36]
    print("\ntile-label map ('.' = land / clear / rejected):")
    for row in grid:
        print("  " + " ".join(row))

    # Fig. 1 as actual images: (a) the swath composite, (b) the class map.
    import numpy as _np

    from repro.modis.quicklook import class_map, swath_composite, write_ppm

    gid = GranuleId("MOD021KM", date, TRAIN_GRANULES + 3)
    ds02 = generate_granule(gid, MINI_SWATH, seed=SEED)
    ds06 = generate_granule(GranuleId("MOD06_L2", date, TRAIN_GRANULES + 3),
                            MINI_SWATH, seed=SEED)
    composite = swath_composite(
        ds02["radiance"].data,
        list(_np.asarray(ds02.get_attr("band_list"))),
        land_mask=ds06["land_mask"].data.astype(bool),
    )
    write_ppm("fig1a_swath.ppm", composite)
    labels_by_grid = {(t.row, t.col): int(l) for t, l in zip(held_out, labels)}
    write_ppm(
        "fig1b_classes.ppm",
        class_map((MINI_SWATH.lines, MINI_SWATH.pixels), MINI_SWATH.tile_size,
                  labels_by_grid, num_classes=NUM_CLASSES),
    )
    print("\nwrote fig1a_swath.ppm and fig1b_classes.ppm (view with any image tool)")


if __name__ == "__main__":
    main()
