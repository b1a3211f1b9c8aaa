"""Climatology / trend-detection tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.climatology import (
    class_frequency_series,
    detect_changing_classes,
    linear_trend,
    mann_kendall,
)
from repro.instruments.tiling import Tile, tiles_to_dataset
from repro.netcdf import write as nc_write


def labelled_file(path, labels, seed=0):
    rng = np.random.default_rng(seed)
    tiles = []
    for index, label in enumerate(labels):
        tiles.append(
            Tile(
                data=rng.normal(size=(8, 8, 2)).astype(np.float32),
                row=index, col=0, latitude=0.0, longitude=0.0,
                cloud_fraction=0.5, mean_optical_thickness=1.0,
                mean_cloud_top_pressure=800.0, label=int(label),
            )
        )
    nc_write(tiles_to_dataset(tiles), str(path))
    return str(path)


class TestMannKendall:
    def test_strong_increase(self):
        result = mann_kendall(np.arange(20, dtype=float))
        assert result.direction == "increasing"
        assert result.p_value < 0.001
        assert result.slope == pytest.approx(1.0)

    def test_strong_decrease(self):
        result = mann_kendall(-np.arange(20, dtype=float))
        assert result.direction == "decreasing"
        assert result.slope == pytest.approx(-1.0)

    def test_constant_is_no_trend(self):
        result = mann_kendall([5.0] * 10)
        assert result.direction == "no trend"
        assert not result.significant()

    def test_noise_usually_not_significant(self):
        rng = np.random.default_rng(0)
        hits = sum(
            mann_kendall(rng.normal(size=20)).significant(alpha=0.05) for _ in range(100)
        )
        # ~5% false positives expected; allow generous slack.
        assert hits < 15

    def test_detects_trend_in_noise(self):
        rng = np.random.default_rng(1)
        series = 0.05 * np.arange(40) + rng.normal(0, 0.3, 40)
        result = mann_kendall(series)
        assert result.significant()
        assert result.direction == "increasing"

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            mann_kendall([1.0, 2.0])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=40))
    def test_sign_flip_antisymmetry(self, values):
        forward = mann_kendall(values)
        backward = mann_kendall([-v for v in values])
        assert forward.statistic == pytest.approx(-backward.statistic, abs=1e-9)
        assert forward.p_value == pytest.approx(backward.p_value, abs=1e-9)


class TestLinearTrend:
    def test_exact_line(self):
        result = linear_trend(3.0 + 2.0 * np.arange(10))
        assert result.slope == pytest.approx(2.0)
        assert result.direction == "increasing"
        assert result.p_value < 1e-6

    def test_agreement_with_mk_on_clean_trend(self):
        series = np.linspace(0, 1, 15)
        assert linear_trend(series).direction == mann_kendall(series).direction


class TestFrequencySeries:
    def test_aggregation(self, tmp_path):
        files = {
            "2000": [labelled_file(tmp_path / "a.nc", [0, 0, 1], seed=1)],
            "2001": [labelled_file(tmp_path / "b.nc", [0, 1, 1], seed=2),
                      labelled_file(tmp_path / "c.nc", [1], seed=3)],
        }
        series = class_frequency_series(files)
        assert series.periods == ("2000", "2001")
        assert series.classes == (0, 1)
        np.testing.assert_allclose(series.series_for(0), [2 / 3, 1 / 4])
        np.testing.assert_allclose(series.counts.sum(axis=1), [3, 4])

    def test_unlabelled_tiles_ignored(self, tmp_path):
        path = labelled_file(tmp_path / "a.nc", [0, 1])
        # Rewrite one label to the 'unclassified' placeholder.
        from repro.netcdf import read as nc_read, write

        ds = nc_read(path)
        labels = ds["label"].data.copy()
        labels[0] = -1
        ds["label"].data = labels
        write(ds, path)
        series = class_frequency_series({"t0": [path]})
        assert series.counts.sum() == 1

    def test_missing_class_key(self, tmp_path):
        series = class_frequency_series(
            {"t": [labelled_file(tmp_path / "a.nc", [2, 2])]}
        )
        with pytest.raises(KeyError):
            series.series_for(0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            class_frequency_series({})


class TestDetection:
    def test_detects_shifting_cloud_population(self, tmp_path):
        """Class 0 shrinks while class 1 grows across a decade of periods."""
        rng = np.random.default_rng(4)
        files = {}
        for year in range(2000, 2012):
            share0 = 0.8 - 0.05 * (year - 2000)
            labels = rng.choice([0, 1], size=60, p=[share0, 1 - share0])
            files[str(year)] = [
                labelled_file(tmp_path / f"{year}.nc", labels, seed=year)
            ]
        series = class_frequency_series(files)
        changing = detect_changing_classes(series, alpha=0.05)
        found = {label: result.direction for label, result in changing}
        assert found.get(0) == "decreasing"
        assert found.get(1) == "increasing"

    def test_stable_population_clean(self, tmp_path):
        rng = np.random.default_rng(5)
        files = {
            str(year): [
                labelled_file(
                    tmp_path / f"{year}.nc",
                    rng.choice([0, 1], size=60),
                    seed=year,
                )
            ]
            for year in range(2000, 2008)
        }
        changing = detect_changing_classes(class_frequency_series(files))
        assert changing == []

    def test_bad_method(self, tmp_path):
        series = class_frequency_series(
            {"t": [labelled_file(tmp_path / "a.nc", [0, 1, 0])]}
        )
        with pytest.raises(ValueError):
            detect_changing_classes(series, method="tea-leaves")
