"""The mapped, read-only read path and the two contracts it rests on.

``read(path)`` maps the file and ``from_bytes`` hands out views, so
(1) parsed arrays are read-only views of their source and (2) a
published file is never modified in place — a writer that truncated a
mapped file would deliver SIGBUS to whoever touches the map next.
"""

import io
import mmap
import os
import resource

import numpy as np
import pytest

from repro.cas import CASStore
from repro.chaos import FaultInjector, FaultPlan, FaultSpec, damage_file
from repro.netcdf import Dataset, NcFormatError, from_bytes, read, to_bytes, write

from tests.netcdf.test_roundtrip import make_tile_dataset


def granule(side=64):
    ds = Dataset()
    ds.create_dimension("y", side)
    ds.create_dimension("x", side)
    rng = np.random.default_rng(side)
    for name in ("radiance", "unused"):
        ds.create_variable(name, "f4", ("y", "x"), rng.normal(size=(side, side)).astype("f4"))
    return ds


def backing(array):
    """The object at the end of an array's ``base`` chain."""
    while isinstance(array, np.ndarray) and array.base is not None:
        array = array.base
    return array.obj if isinstance(array, memoryview) else array


class TestViews:
    def test_parsed_arrays_are_read_only_views_of_the_buffer(self):
        blob = to_bytes(granule())
        parsed = from_bytes(blob)
        for var in parsed.variables.values():
            assert backing(var.data) is blob
            assert not var.data.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                var.data[0, 0] = 1.0

    def test_a_changed_variable_is_a_new_array(self):
        parsed = from_bytes(to_bytes(granule()))
        parsed["radiance"].data = np.zeros((64, 64), dtype=np.float32)
        assert not from_bytes(to_bytes(parsed))["radiance"].data.any()

    def test_dense_record_variable_is_a_view_sparse_columns_are_gathered(self):
        blob = to_bytes(make_tile_dataset(num_tiles=5))
        parsed = from_bytes(blob)
        assert backing(parsed["radiance"].data) is blob
        assert not parsed["radiance"].data.flags.writeable
        # Four bytes of every record would pin the whole buffer.
        assert parsed["label"].data.base is None or backing(parsed["label"].data) is not blob

    def test_read_maps_a_path_and_reads_other_sources(self, tmp_path):
        ds = granule()
        path = str(tmp_path / "g.nc")
        write(ds, path)
        assert isinstance(backing(read(path)["radiance"].data), mmap.mmap)
        with open(path, "rb") as handle:
            blob = handle.read()
        for source in (blob, io.BytesIO(blob)):
            np.testing.assert_array_equal(read(source)["radiance"].data, ds["radiance"].data)

    def test_an_empty_or_short_file_fails_at_parse_time(self, tmp_path):
        path = str(tmp_path / "short.nc")
        blob = to_bytes(granule())
        for keep in (0, 3, len(blob) // 2, len(blob) - 1):
            with open(path, "wb") as handle:
                handle.write(blob[:keep])
            with pytest.raises(NcFormatError):
                read(path)


class TestNoLeak:
    def test_the_map_goes_with_its_last_array(self, tmp_path):
        path = str(tmp_path / "g.nc")
        write(granule(), path)
        before = len(os.listdir("/proc/self/fd"))
        radiance = read(path)["radiance"].data     # the dataset itself is gone
        assert len(os.listdir("/proc/self/fd")) == before + 1   # the map's own descriptor
        assert float(radiance.sum()) == float(granule()["radiance"].data.sum())
        del radiance
        assert len(os.listdir("/proc/self/fd")) == before

    def test_two_thousand_reads_under_a_256_descriptor_limit(self, tmp_path):
        path = str(tmp_path / "g.nc")
        write(granule(side=8), path)
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        resource.setrlimit(resource.RLIMIT_NOFILE, (256, hard))
        try:
            total = sum(float(read(path)["radiance"].data[0, 0]) for _ in range(2000))
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        assert total == 2000 * float(granule(side=8)["radiance"].data[0, 0])


class TestPublishedFilesAreNeverModifiedInPlace:
    """Each of these died with SIGBUS (or changed bytes under a reader)
    when the writer reopened the published file instead of replacing it."""

    def test_damage_file_leaves_a_mapped_reader_whole(self, tmp_path):
        ds = make_tile_dataset(num_tiles=600)   # > one page, so truncation would cut mapped pages
        path = str(tmp_path / "tiles.nc")
        write(ds, path)
        mapped = read(path)
        damage_file(path)
        for name, var in ds.variables.items():
            np.testing.assert_array_equal(mapped[name].data, var.data)
        with pytest.raises(NcFormatError):
            read(path)

    def test_cache_corrupt_leaves_hardlinked_materializations_whole(self, tmp_path):
        plan = FaultPlan(seed=0, faults=(FaultSpec(stage="cache", kind="cache_corrupt", rate=1.0, times=1),))
        source = str(tmp_path / "tiles.nc")
        write(make_tile_dataset(num_tiles=600), source)
        quiet = CASStore(str(tmp_path / "cas"), durable=False)
        digest = quiet.store_file(source)
        first = str(tmp_path / "first.nc")
        assert quiet.materialize(digest, first) == os.path.getsize(source)
        mapped = read(first)
        noisy = CASStore(str(tmp_path / "cas"), durable=False, chaos=FaultInjector(plan))
        assert noisy.materialize(digest, str(tmp_path / "second.nc")) is None
        assert noisy.counters()["corrupt_evictions"] == 1
        assert os.path.getsize(first) == os.path.getsize(source)
        np.testing.assert_array_equal(mapped["radiance"].data, read(source)["radiance"].data)

    def test_writing_a_dataset_back_over_the_file_it_maps(self, tmp_path):
        path = str(tmp_path / "tiles.nc")
        write(make_tile_dataset(num_tiles=600), path)
        ds = read(path)
        ds["label"].data = np.zeros(600, dtype=np.int32)
        expected = to_bytes(ds)
        write(ds, path)
        with open(path, "rb") as handle:
            assert handle.read() == expected
        assert not os.path.exists(path + ".part")
