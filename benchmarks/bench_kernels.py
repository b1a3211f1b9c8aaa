"""Microbenchmarks of the real computational kernels.

Not a paper figure: these time the genuine code paths (tiling, NetCDF
codec, encoder inference, clustering) on this machine, so regressions in
the real library surface here.
"""

import numpy as np
import pytest

from repro.instruments.tiling import extract_tiles, tiles_to_dataset
from repro.netcdf import from_bytes, to_bytes
from repro.ricc import AgglomerativeClustering, RotationInvariantAutoencoder


def _swath(lines=512, pixels=512, bands=6, seed=0):
    rng = np.random.default_rng(seed)
    radiance = rng.normal(size=(bands, lines, pixels)).astype(np.float32)
    cloud = rng.uniform(size=(lines, pixels)) < 0.6
    land = np.zeros((lines, pixels), dtype=bool)
    lat = np.zeros((lines, pixels))
    lon = np.zeros((lines, pixels))
    return radiance, cloud, land, lat, lon


@pytest.mark.benchmark(group="kernels")
def test_kernel_tile_extraction(benchmark):
    radiance, cloud, land, lat, lon = _swath()
    tiles = benchmark(
        extract_tiles, radiance, cloud, land, lat, lon, 32,
    )
    assert tiles  # 16x16 grid, most tiles ~60% cloudy over ocean


@pytest.mark.benchmark(group="kernels")
def test_kernel_tile_extraction_paper_scale(benchmark):
    # One full MODIS swath (Section II-A): 2030 x 1354 pixels, 6 bands,
    # the paper's 128-pixel tiles — the production-size extraction load.
    radiance, cloud, land, lat, lon = _swath(lines=2030, pixels=1354)
    tiles = benchmark(
        extract_tiles, radiance, cloud, land, lat, lon, 128,
    )
    assert tiles


@pytest.mark.benchmark(group="kernels")
def test_kernel_netcdf_roundtrip(benchmark):
    radiance, cloud, land, lat, lon = _swath(lines=256, pixels=256)
    tiles = extract_tiles(radiance, cloud, land, lat, lon, 32)
    ds = tiles_to_dataset(tiles)

    def roundtrip():
        return from_bytes(to_bytes(ds))

    clone = benchmark(roundtrip)
    assert clone["radiance"].data.shape == ds["radiance"].data.shape


@pytest.mark.benchmark(group="kernels")
def test_kernel_encoder_inference(benchmark):
    rng = np.random.default_rng(0)
    model = RotationInvariantAutoencoder((16, 16, 6), latent_dim=16, hidden=(128, 32))
    batch = rng.normal(size=(256, 16, 16, 6)).astype(np.float32)
    latents = benchmark(model.encode, batch)
    assert latents.shape == (256, 16)


@pytest.mark.benchmark(group="kernels")
def test_kernel_encoder_inference_float32_batched(benchmark):
    # The inference micro-batcher's shape: many files fused into one
    # float32 encode call (the dtype-preserving fast path).
    rng = np.random.default_rng(0)
    model = RotationInvariantAutoencoder((16, 16, 6), latent_dim=16, hidden=(128, 32))
    batch = rng.normal(size=(2048, 16, 16, 6)).astype(np.float32)
    latents = benchmark(model.encode, batch)
    assert latents.shape == (2048, 16)
    assert latents.dtype == np.float32


@pytest.mark.benchmark(group="kernels")
def test_kernel_agglomerative_clustering(benchmark):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(300, 16))

    def cluster():
        return AgglomerativeClustering(n_clusters=42).fit_predict(data)

    labels = benchmark(cluster)
    assert np.unique(labels).size == 42
