#!/usr/bin/env python
"""Continual learning: periodic retraining without catastrophic forgetting.

Section V: "AI applications are continually trained periodically on new
data without catastrophically forgetting what had been learned
previously."  This example trains the RICC autoencoder on a first epoch
of MODIS-like tiles, then retrains on a later epoch whose cloud regimes
differ, comparing naive fine-tuning against Elastic Weight Consolidation
— the retained reconstruction quality on the original data is the
forgetting metric.

Run:  python examples/continual_learning.py
"""

import datetime as dt

import numpy as np

from repro.instruments.tiling import extract_tiles
from repro.modis import MINI_SWATH, GranuleId, generate_granule
from repro.ricc import EWCTrainer, RotationInvariantAutoencoder

SEED = 11


def epoch_tiles(date: dt.date, granules: int, seed: int) -> np.ndarray:
    """Ocean-cloud tiles for one data epoch."""
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


def fresh_model() -> RotationInvariantAutoencoder:
    return RotationInvariantAutoencoder(
        (MINI_SWATH.tile_size, MINI_SWATH.tile_size, 6),
        latent_dim=8, hidden=(96,), seed=SEED,
    )


def successor_instrument(tiles: np.ndarray) -> np.ndarray:
    """Simulate a successor sensor (VIIRS-like): permuted band order and
    inverted radiometric calibration.  Continual learning across missions
    is exactly the enduring-observation scenario Section V raises."""
    permuted = tiles[:, :, :, ::-1]
    return (1.1 - permuted).astype(tiles.dtype)


def main() -> None:
    task_a = epoch_tiles(dt.date(2002, 7, 1), granules=4, seed=SEED)
    task_b = successor_instrument(epoch_tiles(dt.date(2022, 1, 1), granules=4, seed=SEED + 100))
    print(f"epoch A: {task_a.shape[0]} tiles (MODIS, 2002); "
          f"epoch B: {task_b.shape[0]} tiles (successor instrument, 2022)")

    # Baseline: train on A, then naively fine-tune on B.
    naive = fresh_model()
    naive.train(task_a, epochs=30, batch_size=32, lr=2e-3, seed=SEED)
    err_a_before = naive.reconstruction_error(task_a)
    naive.train(task_b, epochs=20, batch_size=32, lr=2e-3, seed=SEED + 1)

    # EWC: consolidate after A, penalize drift while training on B.
    protected = fresh_model()
    protected.train(task_a, epochs=30, batch_size=32, lr=2e-3, seed=SEED)
    trainer = EWCTrainer(protected, ewc_lambda=50.0)
    trainer.consolidate(task_a)
    trainer.train_task(task_b, epochs=20, batch_size=32, lr=2e-3, seed=SEED + 1)

    rows = [
        ("epoch A error after training A", err_a_before, err_a_before),
        ("epoch A error after training B", naive.reconstruction_error(task_a),
         protected.reconstruction_error(task_a)),
        ("epoch B error after training B", naive.reconstruction_error(task_b),
         protected.reconstruction_error(task_b)),
    ]
    print(f"\n{'':<34}{'naive':>10}{'EWC':>10}")
    for name, naive_err, ewc_err in rows:
        print(f"{name:<34}{naive_err:>10.5f}{ewc_err:>10.5f}")

    forgetting_naive = naive.reconstruction_error(task_a) / err_a_before
    forgetting_ewc = protected.reconstruction_error(task_a) / err_a_before
    print(f"\nforgetting factor (1.0 = none): naive {forgetting_naive:.2f}, "
          f"EWC {forgetting_ewc:.2f}")
    print(f"EWC penalty at end of training: {trainer.penalty():.6f}")


if __name__ == "__main__":
    main()
