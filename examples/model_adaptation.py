#!/usr/bin/env python
"""Foundation-model adaptation: fine-tune and merge RICC models.

Section V: foundation models "can be further adapted for a host of new
tasks and applications via fine tuning, requiring relatively less amount
of data", and the pipeline "will evolve to facilitate model merging, data
efficient learning".  This example:

1. pretrains a RICC "foundation" autoencoder on a broad tile corpus;
2. adapts it to a small, distribution-shifted dataset by fine-tuning
   with frozen early layers, versus training from scratch on the same
   small data (the data-efficiency comparison);
3. merges two sibling adaptations into one model and shows the merged
   model serves both regimes.

Run:  python examples/model_adaptation.py
"""

import copy
import datetime as dt

import numpy as np

from repro.instruments.tiling import extract_tiles
from repro.modis import MINI_SWATH, GranuleId, generate_granule
from repro.ricc import RotationInvariantAutoencoder, fine_tune, merge_models

SEED = 23


def corpus_tiles(granules, seed):
    date = dt.date(2022, 1, 1)
    tiles = []
    for index in range(granules):
        mod02 = generate_granule(GranuleId("MOD021KM", date, index), MINI_SWATH, seed=seed)
        mod06 = generate_granule(GranuleId("MOD06_L2", date, index), MINI_SWATH, seed=seed)
        mod03 = generate_granule(GranuleId("MOD03", date, index), MINI_SWATH, seed=seed)
        tiles.extend(
            extract_tiles(
                radiance=mod02["radiance"].data,
                cloud_mask=mod06["cloud_mask"].data.astype(bool),
                land_mask=mod06["land_mask"].data.astype(bool),
                latitude=mod03["latitude"].data,
                longitude=mod03["longitude"].data,
                tile_size=MINI_SWATH.tile_size,
            )
        )
    return np.stack([t.data for t in tiles])


def main() -> None:
    print("pretraining the foundation model on a broad corpus ...")
    foundation = RotationInvariantAutoencoder(
        (MINI_SWATH.tile_size, MINI_SWATH.tile_size, 6), latent_dim=8, hidden=(96,),
        seed=SEED,
    )
    broad = corpus_tiles(granules=5, seed=SEED)
    foundation.train(broad, epochs=15, batch_size=32, lr=2e-3, seed=SEED)
    print(f"  corpus {broad.shape[0]} tiles; "
          f"reconstruction error {foundation.reconstruction_error(broad):.5f}")

    # Two shifted target domains (e.g. successor sensors / new regions).
    domain_a = 1.05 - corpus_tiles(granules=2, seed=SEED + 50)
    domain_b = corpus_tiles(granules=2, seed=SEED + 80)[:, :, :, ::-1] * 0.9

    print("\n-- data-efficient adaptation (small target data) --")
    adapted = copy.deepcopy(foundation)
    fine_tune(adapted, domain_a, freeze_encoder_layers=1, epochs=8, lr=1e-3, seed=1)

    scratch = RotationInvariantAutoencoder(
        (MINI_SWATH.tile_size, MINI_SWATH.tile_size, 6), latent_dim=8, hidden=(96,),
        seed=SEED + 1,
    )
    scratch.train(domain_a, epochs=8, batch_size=32, lr=1e-3, seed=1)

    print(f"  domain A ({domain_a.shape[0]} tiles):")
    print(f"    foundation (unadapted): {foundation.reconstruction_error(domain_a):.5f}")
    print(f"    fine-tuned:             {adapted.reconstruction_error(domain_a):.5f}")
    print(f"    trained from scratch:   {scratch.reconstruction_error(domain_a):.5f}")

    print("\n-- model merging (two sibling adaptations) --")
    sibling_b = copy.deepcopy(foundation)
    fine_tune(sibling_b, domain_b, freeze_encoder_layers=1, epochs=8, lr=1e-3, seed=2)
    merged = merge_models([adapted, sibling_b])
    rows = [
        ("adapted-to-A", adapted),
        ("adapted-to-B", sibling_b),
        ("merged", merged),
    ]
    print(f"  {'model':<14}{'err(A)':>10}{'err(B)':>10}{'err(broad)':>12}")
    for name, model in rows:
        print(f"  {name:<14}{model.reconstruction_error(domain_a):>10.5f}"
              f"{model.reconstruction_error(domain_b):>10.5f}"
              f"{model.reconstruction_error(broad):>12.5f}")


if __name__ == "__main__":
    main()
