"""The selection-first ``extract_tiles`` against a naive reference.

The optimized extraction gathers only selected tiles through fancy
indexing and computes the per-tile reductions with vectorized masked
sums.  These tests pin its behaviour to the original implementation: a
full-swath tile cube walked tile by tile in Python.

Two equivalence notions are exercised deliberately:

* everything derived without masking (tile data, order, row/col,
  lat/lon means, cloud fraction) must match **exactly**;
* the cloudy-pixel tau/ctp means are masked-sum reductions in the
  optimized path and compressed-array means in the reference — same
  mathematical value, potentially different last-ulp rounding — so they
  are compared with a tight tolerance;
* the fixed-seed golden test then shows the end artifact — the tile
  *file* — is byte-identical anyway, because float64 means survive the
  round-trip through the file's float32/float64 columns unchanged.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.instruments.tiling import Tile, extract_tiles, tiles_to_dataset
from repro.netcdf import to_bytes


def naive_extract_tiles(
    radiance,
    cloud_mask,
    land_mask,
    latitude,
    longitude,
    tile_size,
    optical_thickness=None,
    cloud_top_pressure=None,
    cloud_threshold=0.3,
    max_land_fraction=0.0,
    source="",
):
    """The pre-optimization implementation, kept verbatim as the oracle:
    materialize the full-swath band-tile cube, then loop in Python."""

    def view(field_2d, tile):
        rows = field_2d.shape[0] // tile
        cols = field_2d.shape[1] // tile
        return field_2d[: rows * tile, : cols * tile].reshape(
            rows, tile, cols, tile
        ).swapaxes(1, 2)

    bands = radiance.shape[0]
    cloud_tiles = view(cloud_mask.astype(np.float32), tile_size)
    land_tiles = view(land_mask.astype(np.float32), tile_size)
    cloud_frac = cloud_tiles.mean(axis=(2, 3))
    land_frac = land_tiles.mean(axis=(2, 3))
    selected = (land_frac <= max_land_fraction + 1e-12) & (cloud_frac > cloud_threshold)
    lat_tiles = view(latitude.astype(np.float64), tile_size)
    lon_tiles = view(longitude.astype(np.float64), tile_size)
    band_tiles = np.stack([view(radiance[b], tile_size) for b in range(bands)], axis=-1)
    tau_tiles = (
        view(optical_thickness.astype(np.float64), tile_size)
        if optical_thickness is not None
        else None
    )
    ctp_tiles = (
        view(cloud_top_pressure.astype(np.float64), tile_size)
        if cloud_top_pressure is not None
        else None
    )
    out = []
    for row, col in zip(*np.nonzero(selected)):
        cloudy = cloud_tiles[row, col] > 0.5
        mean_tau = (
            float(tau_tiles[row, col][cloudy].mean())
            if tau_tiles is not None and cloudy.any()
            else float("nan")
        )
        mean_ctp = (
            float(ctp_tiles[row, col][cloudy].mean())
            if ctp_tiles is not None and cloudy.any()
            else float("nan")
        )
        out.append(
            Tile(
                data=np.ascontiguousarray(band_tiles[row, col]).astype(np.float32),
                row=int(row),
                col=int(col),
                latitude=float(lat_tiles[row, col].mean()),
                longitude=float(lon_tiles[row, col].mean()),
                cloud_fraction=float(cloud_frac[row, col]),
                mean_optical_thickness=mean_tau,
                mean_cloud_top_pressure=mean_ctp,
                source=source,
            )
        )
    return out


def random_swath(rng, lines, pixels, bands, cloud_p, land_p):
    radiance = rng.normal(size=(bands, lines, pixels)).astype(np.float32)
    cloud = rng.uniform(size=(lines, pixels)) < cloud_p
    land = rng.uniform(size=(lines, pixels)) < land_p
    lat = rng.uniform(-90, 90, size=(lines, pixels))
    lon = rng.uniform(-180, 180, size=(lines, pixels))
    tau = rng.uniform(0, 40, size=(lines, pixels))
    ctp = rng.uniform(150, 1050, size=(lines, pixels))
    return radiance, cloud, land, lat, lon, tau, ctp


def assert_tiles_equivalent(optimized, reference):
    assert len(optimized) == len(reference)
    for new, old in zip(optimized, reference):
        # Selection, ordering and unmasked reductions: exact.
        assert (new.row, new.col) == (old.row, old.col)
        assert new.data.dtype == old.data.dtype == np.float32
        np.testing.assert_array_equal(new.data, old.data)
        assert new.latitude == old.latitude
        assert new.longitude == old.longitude
        assert new.cloud_fraction == old.cloud_fraction
        assert new.source == old.source
        # Masked means: same value, summation order may differ by an ulp.
        np.testing.assert_allclose(
            new.mean_optical_thickness, old.mean_optical_thickness,
            rtol=1e-12, equal_nan=True,
        )
        np.testing.assert_allclose(
            new.mean_cloud_top_pressure, old.mean_cloud_top_pressure,
            rtol=1e-12, equal_nan=True,
        )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lines=st.integers(16, 70),
    pixels=st.integers(16, 70),
    bands=st.integers(1, 4),
    tile_size=st.integers(2, 16),
    cloud_p=st.floats(0.0, 1.0),
    land_p=st.floats(0.0, 0.4),
    threshold=st.floats(0.0, 0.9),
    max_land=st.floats(0.0, 0.5),
)
def test_extract_tiles_matches_naive_reference(
    seed, lines, pixels, bands, tile_size, cloud_p, land_p, threshold, max_land
):
    rng = np.random.default_rng(seed)
    radiance, cloud, land, lat, lon, tau, ctp = random_swath(
        rng, lines, pixels, bands, cloud_p, land_p
    )
    kwargs = dict(
        optical_thickness=tau,
        cloud_top_pressure=ctp,
        cloud_threshold=threshold,
        max_land_fraction=max_land,
        source="hypothesis",
    )
    optimized = extract_tiles(radiance, cloud, land, lat, lon, tile_size, **kwargs)
    reference = naive_extract_tiles(radiance, cloud, land, lat, lon, tile_size, **kwargs)
    assert_tiles_equivalent(optimized, reference)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tile_size=st.integers(2, 12))
def test_extract_tiles_without_mod06_fields(seed, tile_size):
    rng = np.random.default_rng(seed)
    radiance, cloud, land, lat, lon, _, _ = random_swath(rng, 40, 40, 2, 0.7, 0.1)
    optimized = extract_tiles(radiance, cloud, land, lat, lon, tile_size)
    reference = naive_extract_tiles(radiance, cloud, land, lat, lon, tile_size)
    assert_tiles_equivalent(optimized, reference)
    for tile in optimized:
        assert np.isnan(tile.mean_optical_thickness)
        assert np.isnan(tile.mean_cloud_top_pressure)


def test_extract_tiles_empty_selection():
    rng = np.random.default_rng(3)
    radiance, cloud, land, lat, lon, tau, ctp = random_swath(rng, 32, 32, 3, 0.0, 0.0)
    assert extract_tiles(radiance, cloud, land, lat, lon, 8,
                         optical_thickness=tau, cloud_top_pressure=ctp) == []


def test_golden_tile_file_bytes_identical():
    """End-to-end golden check: the serialized tile *file* produced from
    the optimized extraction is byte-for-byte what the naive pipeline
    wrote — last-ulp drift in the means, if any, does not reach disk."""
    rng = np.random.default_rng(20260805)
    radiance, cloud, land, lat, lon, tau, ctp = random_swath(rng, 96, 96, 6, 0.65, 0.05)
    kwargs = dict(
        optical_thickness=tau,
        cloud_top_pressure=ctp,
        max_land_fraction=0.2,  # per-pixel land noise: pure-ocean tiles are rare
        source="golden",
    )
    optimized = extract_tiles(radiance, cloud, land, lat, lon, 16, **kwargs)
    reference = naive_extract_tiles(radiance, cloud, land, lat, lon, 16, **kwargs)
    assert optimized, "golden swath must select at least one tile"
    raw_new = to_bytes(tiles_to_dataset(optimized, source="golden"))
    raw_old = to_bytes(tiles_to_dataset(reference, source="golden"))
    assert raw_new == raw_old
