"""AICCA atlas tests."""

import numpy as np
import pytest

from repro.ricc import AICCAModel
from repro.ricc.evaluate import adjusted_rand_index


def regime_tiles(n_per=20, size=8, channels=2, seed=0):
    """Tiles from three visually distinct synthetic regimes + truth labels."""
    rng = np.random.default_rng(seed)
    n = 3 * n_per
    tiles = np.zeros((n, size, size, channels))
    truth = np.repeat([0, 1, 2], n_per)
    for index in range(n):
        regime = truth[index]
        if regime == 0:  # bright, smooth
            tiles[index] = 0.8 + rng.normal(0, 0.03, (size, size, channels))
        elif regime == 1:  # dark, smooth
            tiles[index] = 0.1 + rng.normal(0, 0.03, (size, size, channels))
        else:  # high-frequency checker
            checker = ((np.arange(size)[:, None] + np.arange(size)[None, :]) % 2).astype(float)
            tiles[index, :, :, :] = checker[:, :, None] * 0.9 + rng.normal(
                0, 0.03, (size, size, channels)
            )
    order = rng.permutation(n)
    return tiles[order], truth[order]


class TestAICCA:
    def test_train_and_assign_recovers_regimes(self):
        tiles, truth = regime_tiles(n_per=16)
        model, history = AICCAModel.train(
            tiles, num_classes=3, latent_dim=4, hidden=(32,), epochs=20, lr=2e-3, seed=0
        )
        labels = model.assign(tiles)
        assert adjusted_rand_index(labels, truth) > 0.8
        assert model.num_classes == 3
        assert len(history) == 20

    def test_assign_is_rotation_consistent(self):
        """Rotated tiles receive the same class (mostly) as originals."""
        tiles, _ = regime_tiles(n_per=16)
        model, _ = AICCAModel.train(
            tiles, num_classes=3, latent_dim=4, hidden=(32,), epochs=25, lr=2e-3, seed=1
        )
        from repro.ricc import transform_batch

        base = model.assign(tiles)
        rotated = model.assign(transform_batch(tiles, 1))
        agreement = float((base == rotated).mean())
        assert agreement > 0.85

    def test_class_statistics(self):
        tiles, truth = regime_tiles(n_per=10)
        model, _ = AICCAModel.train(
            tiles, num_classes=3, latent_dim=4, hidden=(32,), epochs=10, seed=2
        )
        labels = model.assign(tiles)
        n = labels.shape[0]
        rng = np.random.default_rng(0)
        stats = model.class_statistics(
            labels,
            {
                "optical_thickness": rng.uniform(1, 30, n),
                "cloud_top_pressure": rng.uniform(200, 900, n),
                "cloud_fraction": rng.uniform(0.3, 1.0, n),
            },
        )
        assert sum(s.count for s in stats) == n
        assert all(1 <= s.mean_optical_thickness <= 30 for s in stats)

    def test_class_statistics_validation(self):
        tiles, _ = regime_tiles(n_per=10)
        model, _ = AICCAModel.train(tiles, num_classes=2, latent_dim=4, hidden=(32,), epochs=3)
        labels = model.assign(tiles)
        with pytest.raises(KeyError):
            model.class_statistics(labels, {})
        with pytest.raises(ValueError):
            model.class_statistics(
                labels,
                {
                    "optical_thickness": np.zeros(5),
                    "cloud_top_pressure": np.zeros(5),
                    "cloud_fraction": np.zeros(5),
                },
            )

    def test_save_load_roundtrip(self, tmp_path):
        tiles, _ = regime_tiles(n_per=10)
        model, _ = AICCAModel.train(tiles, num_classes=3, latent_dim=4, hidden=(32,), epochs=5)
        path = str(tmp_path / "aicca.npz")
        model.save(path)
        clone = AICCAModel.load(path)
        np.testing.assert_array_equal(clone.assign(tiles), model.assign(tiles))

    def test_evaluate_produces_report(self):
        tiles, truth = regime_tiles(n_per=12)
        model, _ = AICCAModel.train(
            tiles, num_classes=3, latent_dim=4, hidden=(32,), epochs=15, seed=4
        )
        report = model.evaluate(tiles, truth=truth)
        assert report.n_clusters <= 3
        assert -1.0 <= report.silhouette <= 1.0
        assert report.ari_vs_truth is not None

