"""Loading a model builds it from the saved arrays — encoder now, decoder
on first use — and nothing observable differs from a model built the
long way (random init, then ``load_state_dict``)."""

import os
import pickle

import numpy as np
import pytest

from repro.ricc import AICCAModel
from repro.ricc.autoencoder import RotationInvariantAutoencoder
from repro.ricc.cluster import AgglomerativeClustering

TILE_SHAPE = (8, 8, 2)
HIDDEN = (24, 12)


def toy_tiles(n=24, seed=0):
    return np.random.default_rng(seed).random((n,) + TILE_SHAPE)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    tiles = toy_tiles()
    model, _history = AICCAModel.train(
        tiles, num_classes=3, latent_dim=4, hidden=HIDDEN, epochs=2, seed=5
    )
    path = str(tmp_path_factory.mktemp("model") / "aicca.npz")
    model.save(path)
    return model, path


def eager_clone(model: AICCAModel) -> AICCAModel:
    """The pre-lazy load path: fresh random layers, overwritten in place."""
    autoencoder = RotationInvariantAutoencoder(TILE_SHAPE, latent_dim=4, hidden=HIDDEN)
    autoencoder.load_state_dict(model.autoencoder.state_dict())
    clustering = AgglomerativeClustering(
        n_clusters=model.num_classes, linkage=model.clustering.linkage
    )
    clustering.centroids_ = model.clustering.centroids_.copy()
    return AICCAModel(autoencoder, clustering)


class TestLoadEquivalence:
    def test_load_reads_the_encoder_only(self, saved):
        _model, path = saved
        loaded = AICCAModel.load(path)
        assert loaded.autoencoder._decoder is None
        loaded.assign(toy_tiles(4).astype(np.float32))
        assert loaded.autoencoder._decoder is None
        # ... and no gradient buffers: assignment never trains.
        assert all(
            layer._grad_w is None
            for layer in loaded.autoencoder.encoder.layers if hasattr(layer, "w")
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_labels_and_margins_bit_identical(self, saved, dtype):
        model, path = saved
        tiles = toy_tiles(16, seed=9).astype(dtype)
        loaded, eager = AICCAModel.load(path), eager_clone(model)
        labels, margins = loaded.assign_with_margin(tiles)
        eager_labels, eager_margins = eager.assign_with_margin(tiles)
        np.testing.assert_array_equal(labels, eager_labels)
        np.testing.assert_array_equal(margins, eager_margins)
        np.testing.assert_array_equal(loaded.assign(tiles), model.assign(tiles))

    def test_reconstruct_after_a_lazy_load(self, saved):
        model, path = saved
        tiles = toy_tiles(6, seed=2)
        loaded = AICCAModel.load(path)
        np.testing.assert_array_equal(
            loaded.autoencoder.reconstruct(tiles), model.autoencoder.reconstruct(tiles)
        )
        assert loaded.autoencoder.reconstruction_error(tiles) == (
            model.autoencoder.reconstruction_error(tiles)
        )

    def test_one_train_step_matches_an_eager_model(self, saved):
        model, path = saved
        tiles = toy_tiles(8, seed=3)
        loaded, eager = AICCAModel.load(path).autoencoder, eager_clone(model).autoencoder
        loaded.train(tiles, epochs=1, batch_size=8, seed=1)
        eager.train(tiles, epochs=1, batch_size=8, seed=1)
        for key, value in eager.state_dict().items():
            np.testing.assert_array_equal(loaded.state_dict()[key], value, err_msg=key)

    def test_state_dict_and_resave(self, saved, tmp_path):
        model, path = saved
        loaded = AICCAModel.load(path)
        state, expected = loaded.autoencoder.state_dict(), model.autoencoder.state_dict()
        assert list(state) == list(expected)
        for key in expected:
            np.testing.assert_array_equal(state[key], expected[key], err_msg=key)
        resaved = str(tmp_path / "again.npz")
        AICCAModel.load(path).save(resaved)
        with np.load(path) as first, np.load(resaved) as second:
            assert first.files == second.files
            for key in first.files:
                np.testing.assert_array_equal(first[key], second[key], err_msg=key)

    def test_pickle_carries_the_decoder(self, saved, tmp_path):
        model, path = saved
        private = str(tmp_path / "private.npz")
        with open(path, "rb") as src, open(private, "wb") as dst:
            dst.write(src.read())
        blob = pickle.dumps(AICCAModel.load(private))
        os.remove(private)  # the pickle must not need the file again
        clone = pickle.loads(blob)
        tiles = toy_tiles(5, seed=4)
        np.testing.assert_array_equal(clone.assign(tiles), model.assign(tiles))
        np.testing.assert_array_equal(
            clone.autoencoder.reconstruct(tiles), model.autoencoder.reconstruct(tiles)
        )

    def test_bare_autoencoder_file(self, saved, tmp_path):
        model, _path = saved
        path = str(tmp_path / "riae.npz")
        model.autoencoder.save(path)
        loaded = RotationInvariantAutoencoder.load(path)
        tiles = toy_tiles(5, seed=6)
        np.testing.assert_array_equal(loaded.encode(tiles), model.autoencoder.encode(tiles))
        np.testing.assert_array_equal(
            loaded.reconstruct(tiles), model.autoencoder.reconstruct(tiles)
        )


class TestLoadErrors:
    def test_shape_mismatch(self, saved, tmp_path):
        model, _path = saved
        path = str(tmp_path / "riae.npz")
        model.autoencoder.save(path)
        with pytest.raises(ValueError, match="shape mismatch for 'enc.layer0.w'"):
            RotationInvariantAutoencoder.load(path, hidden=(7, 12))

    def test_decoder_shape_mismatch_is_found_at_load(self, saved, tmp_path):
        _model, path = saved
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["model.dec.layer0.w"] = arrays["model.dec.layer0.w"][:, :-1]
        broken = str(tmp_path / "broken.npz")
        np.savez(broken, **arrays)
        with pytest.raises(ValueError, match="shape mismatch for 'dec.layer0.w'"):
            AICCAModel.load(broken)

    @pytest.mark.parametrize("missing", ["model.enc.layer2.b", "model.dec.layer4.w"])
    def test_missing_key(self, saved, tmp_path, missing):
        _model, path = saved
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files if key != missing}
        broken = str(tmp_path / "broken.npz")
        np.savez(broken, **arrays)
        with pytest.raises(KeyError, match="missing parameter"):
            AICCAModel.load(broken)
