"""Rotation-invariant autoencoder and rotinv machinery tests."""

import numpy as np
import pytest

from repro.ricc import (
    NUM_TRANSFORMS,
    RotationInvariantAutoencoder,
    transform_batch,
)


def dihedral_transforms(tile):
    """The 8 D4 transforms of one (H, W, C) tile, spelled out per tile:
    the reference ``transform_batch`` is held to."""
    return [
        np.rot90(flipped, k=k, axes=(0, 1))
        for flipped in (tile, tile[:, ::-1, :])
        for k in range(4)
    ]


def invariance_gap(encode, tiles):
    """Mean latent spread across the 8 transforms, over the overall
    latent scale: zero for an exactly rotation-invariant encoder."""
    n = tiles.shape[0]
    stack = np.stack([
        encode(transform_batch(tiles, index).reshape(n, -1))
        for index in range(NUM_TRANSFORMS)
    ])
    return float(stack.std(axis=0).mean() / (stack.std() + 1e-12))


def toy_tiles(n=48, size=8, channels=2, seed=0):
    """Tiles from two synthetic 'regimes': smooth gradients and checkers."""
    rng = np.random.default_rng(seed)
    tiles = np.zeros((n, size, size, channels), dtype=np.float64)
    for index in range(n):
        if index % 2 == 0:
            ramp = np.linspace(0, 1, size)
            tiles[index, :, :, 0] = ramp[None, :] * rng.uniform(0.5, 1.0)
            tiles[index, :, :, 1] = ramp[:, None] * rng.uniform(0.5, 1.0)
        else:
            checker = ((np.arange(size)[:, None] + np.arange(size)[None, :]) % 2).astype(float)
            tiles[index, :, :, 0] = checker * rng.uniform(0.5, 1.0)
            tiles[index, :, :, 1] = (1 - checker) * rng.uniform(0.5, 1.0)
        tiles[index] += rng.normal(0, 0.02, size=(size, size, channels))
    return tiles


class TestDihedral:
    def test_eight_unique_transforms(self):
        rng = np.random.default_rng(0)
        tile = rng.normal(size=(6, 6, 2))
        transforms = [transform_batch(tile[None], index) for index in range(NUM_TRANSFORMS)]
        flattened = {t.tobytes() for t in transforms}
        assert len(flattened) == NUM_TRANSFORMS  # generic tile: all distinct

    def test_identity_is_first(self):
        tile = np.random.default_rng(1).normal(size=(4, 4, 1))
        np.testing.assert_array_equal(transform_batch(tile[None], 0)[0], tile)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        tiles = rng.normal(size=(3, 5, 5, 2))
        for index in range(NUM_TRANSFORMS):
            batched = transform_batch(tiles, index)
            for tile_index in range(3):
                expected = dihedral_transforms(tiles[tile_index])[index]
                np.testing.assert_array_equal(batched[tile_index], expected)

    def test_rotation_group_closure(self):
        """Applying rot90 four times returns the original."""
        tiles = np.random.default_rng(3).normal(size=(2, 4, 4, 1))
        result = tiles
        for _ in range(4):
            result = transform_batch(result, 1)
        np.testing.assert_array_equal(result, tiles)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            transform_batch(np.zeros((1, 4, 5, 1)), 0)
        with pytest.raises(ValueError):
            transform_batch(np.zeros((1, 4, 4, 1)), 9)


class TestAutoencoder:
    def test_shapes(self):
        model = RotationInvariantAutoencoder((8, 8, 2), latent_dim=5, hidden=(32,))
        tiles = toy_tiles(n=4)
        assert model.encode(tiles).shape == (4, 5)
        assert model.reconstruct(tiles).shape == (4, 128)

    def test_training_reduces_loss(self):
        tiles = toy_tiles(n=32)
        model = RotationInvariantAutoencoder((8, 8, 2), latent_dim=8, hidden=(64,), seed=1)
        history = model.train(tiles, epochs=15, batch_size=16, lr=2e-3, seed=1)
        assert history[-1].loss < history[0].loss * 0.7
        assert model.trained_epochs == 15

    def test_invariance_improves_with_training(self):
        """Training with the RI loss shrinks the latent spread across
        rotations relative to the untrained network."""
        tiles = toy_tiles(n=32)
        model = RotationInvariantAutoencoder(
            (8, 8, 2), latent_dim=8, hidden=(64,), lambda_inv=2.0, seed=2
        )
        before = invariance_gap(model.encoder.forward, tiles)
        model.train(tiles, epochs=25, batch_size=16, lr=2e-3, seed=2)
        after = invariance_gap(model.encoder.forward, tiles)
        assert after < before * 0.6

    def test_ri_model_more_invariant_than_plain(self):
        """Ablation: lambda_inv=0 trains a plain AE; its encoder is less
        rotation invariant than the RI-trained twin."""
        tiles = toy_tiles(n=32)
        plain = RotationInvariantAutoencoder((8, 8, 2), 8, (64,), lambda_inv=0.0, seed=3)
        invariant = RotationInvariantAutoencoder((8, 8, 2), 8, (64,), lambda_inv=2.0, seed=3)
        plain.train(tiles, epochs=20, batch_size=16, lr=2e-3, seed=3)
        invariant.train(tiles, epochs=20, batch_size=16, lr=2e-3, seed=3)
        assert invariance_gap(invariant.encoder.forward, tiles) < invariance_gap(
            plain.encoder.forward, tiles
        )

    def test_training_deterministic(self):
        tiles = toy_tiles(n=16)

        def run():
            model = RotationInvariantAutoencoder((8, 8, 2), 4, (32,), seed=5)
            model.train(tiles, epochs=3, batch_size=8, seed=5)
            return model.encode(tiles)

        np.testing.assert_array_equal(run(), run())

    def test_save_load_roundtrip(self, tmp_path):
        tiles = toy_tiles(n=16)
        model = RotationInvariantAutoencoder((8, 8, 2), 4, (32,), seed=6)
        model.train(tiles, epochs=2, batch_size=8, seed=6)
        path = str(tmp_path / "ricc.npz")
        model.save(path)
        clone = RotationInvariantAutoencoder.load(path)
        np.testing.assert_allclose(clone.encode(tiles), model.encode(tiles))

    def test_validation(self):
        with pytest.raises(ValueError):
            RotationInvariantAutoencoder((8, 7, 2))
        with pytest.raises(ValueError):
            RotationInvariantAutoencoder((8, 8, 2), latent_dim=0)
        model = RotationInvariantAutoencoder((8, 8, 2))
        with pytest.raises(ValueError):
            model.encode(np.zeros((2, 4, 4, 2)))
        with pytest.raises(ValueError):
            model.train(np.zeros((1, 8, 8, 2)))
