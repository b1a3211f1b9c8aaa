"""The chunk iterator is the serializer: joined, it is ``to_bytes`` as it
always was; streamed to a file, it publishes those bytes and their digest.

``reference_to_bytes`` is the blob-building writer this repo shipped
before ``to_chunks`` existed (growing ``bytearray``, ``tobytes`` per
variable, final ``bytes`` copy), kept here as the oracle.
"""

import hashlib
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.surfaces import chaos_atomic_write
from repro.netcdf import Dataset, from_bytes, to_bytes, to_chunks, write
from repro.netcdf import writer as writer_mod
from repro.netcdf.types import TYPE_INFO
from repro.util.digest import digest_file

DTYPES = ("i1", "i2", "i4", "f4", "f8")


def reference_to_bytes(dataset: Dataset) -> bytes:
    offset_width, begins, _header_size, recsize, vsizes = writer_mod._choose_layout(dataset)
    out = bytearray(writer_mod._serialize_header(dataset, begins, vsizes, offset_width))
    for var in dataset.variables.values():
        if var.is_record:
            continue
        assert len(out) == begins[var.name]
        payload = np.ascontiguousarray(var.data, dtype=var.data.dtype).tobytes()
        out += payload
        out += b"\x00" * (vsizes[var.name] - len(payload))
    record_vars = [v for v in dataset.variables.values() if v.is_record]
    numrecs = dataset.num_records
    if record_vars:
        assert len(out) == min(begins[v.name] for v in record_vars)
        out += b"\x00" * (numrecs * recsize)
        for var in record_vars:
            info = TYPE_INFO[var.nc_type]
            count = writer_mod._per_record_size(var) // info.size
            if numrecs == 0 or count == 0:
                continue
            target = np.ndarray(
                shape=(numrecs, count), dtype=info.dtype, buffer=memoryview(out),
                offset=begins[var.name], strides=(recsize, info.size),
            )
            target[:] = np.ascontiguousarray(var.data).reshape(numrecs, count)
    return bytes(out)


@st.composite
def datasets(draw, fixed=(0, 3), record=(0, 3), records=(0, 4)):
    """Fixed-only, record-only, mixed and empty-record datasets, with odd
    sizes so padding and the sole-record-variable rule are exercised."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    ds = Dataset()
    ds.create_dimension("rec", None)
    ds.create_dimension("a", draw(st.integers(1, 5)))
    ds.create_dimension("b", draw(st.integers(1, 3)))
    numrecs = draw(st.integers(*records))
    if draw(st.booleans()):
        ds.set_attr("title", draw(st.text("abc xyz", max_size=9)))
    for index in range(draw(st.integers(*fixed))):
        dims = draw(st.sampled_from([(), ("a",), ("a", "b")]))
        shape = tuple(ds.dimensions[d].size for d in dims)
        dtype = draw(st.sampled_from(DTYPES))
        ds.create_variable(
            f"fixed{index}", dtype, dims, (rng.random(shape) * 100).astype(dtype),
            attributes={"units": "k"} if index % 2 else None,
        )
    for index in range(draw(st.integers(*record))):
        dims = draw(st.sampled_from([("rec",), ("rec", "a"), ("rec", "a", "b")]))
        shape = (numrecs,) + tuple(ds.dimensions[d].size for d in dims[1:])
        dtype = draw(st.sampled_from(DTYPES))
        ds.create_variable(
            f"record{index}", dtype, dims, (rng.random(shape) * 100).astype(dtype)
        )
    return ds


class TestChunksAreTheSerialization:
    @settings(max_examples=150, deadline=None)
    @given(datasets())
    def test_join_equals_the_blob_writer(self, ds):
        expected = reference_to_bytes(ds)
        assert b"".join(to_chunks(ds)) == expected
        assert to_bytes(ds) == expected

    @settings(max_examples=40, deadline=None)
    @given(datasets(fixed=(1, 3), record=(0, 0)))
    def test_fixed_only(self, ds):
        assert b"".join(to_chunks(ds)) == reference_to_bytes(ds)

    @settings(max_examples=40, deadline=None)
    @given(datasets(fixed=(0, 0), record=(1, 3), records=(1, 4)))
    def test_record_only(self, ds):
        assert b"".join(to_chunks(ds)) == reference_to_bytes(ds)

    @settings(max_examples=40, deadline=None)
    @given(datasets(fixed=(0, 2), record=(1, 3), records=(0, 0)))
    def test_empty_record_dimension(self, ds):
        raw = b"".join(to_chunks(ds))
        assert raw == reference_to_bytes(ds)
        assert from_bytes(raw).num_records == 0

    @settings(max_examples=40, deadline=None)
    @given(datasets(fixed=(1, 3), record=(1, 3), records=(1, 4)))
    def test_cdf2_offsets(self, ds):
        # Any data offset beyond the CDF-1 limit upgrades to 64-bit
        # offsets; shrink the limit instead of building a 2 GiB file.
        original = writer_mod._MAX_CDF1_OFFSET
        writer_mod._MAX_CDF1_OFFSET = 16
        try:
            raw = b"".join(to_chunks(ds))
            assert raw == reference_to_bytes(ds)
        finally:
            writer_mod._MAX_CDF1_OFFSET = original
        assert raw[:4] == b"CDF\x02"

    @settings(max_examples=80, deadline=None)
    @given(datasets(fixed=(0, 2), record=(1, 3), records=(1, 9)), st.integers(1, 4))
    def test_record_region_streams_in_bounded_batches(self, ds, per_batch):
        """Whole records, at most ``RECORD_BATCH`` bytes a chunk, the
        last batch short when the count is no multiple — and joined,
        still the one-slab writer's bytes."""
        recsize = writer_mod._choose_layout(ds)[3]
        original = writer_mod.RECORD_BATCH
        writer_mod.RECORD_BATCH = per_batch * recsize + recsize // 2
        try:
            chunks = [bytes(chunk) for chunk in to_chunks(ds)]
        finally:
            writer_mod.RECORD_BATCH = original
        raw = b"".join(chunks)
        assert raw == reference_to_bytes(ds)
        record_base = len(raw) - ds.num_records * recsize
        batches = []
        offset = 0
        for chunk in chunks:
            if offset >= record_base and chunk:
                batches.append(len(chunk) // recsize)
                assert len(chunk) % recsize == 0
            offset += len(chunk)
        full, rest = divmod(ds.num_records, per_batch)
        assert batches == [per_batch] * full + ([rest] if rest else [])

    def test_a_record_larger_than_the_batch_is_its_own_chunk(self):
        ds = Dataset()
        ds.create_dimension("rec", None)
        ds.create_dimension("x", writer_mod.RECORD_BATCH // 4 + 1)
        data = np.arange(3 * ds.dimensions["x"].size, dtype=np.float32).reshape(3, -1)
        ds.create_variable("v", "f4", ("rec", "x"), data)
        chunks = list(to_chunks(ds))
        assert [len(c) for c in chunks[1:]] == [data.shape[1] * 4] * 3
        np.testing.assert_array_equal(from_bytes(b"".join(chunks))["v"].data, data)

    def test_fixed_variables_are_not_copied(self):
        ds = Dataset()
        ds.create_dimension("x", 1 << 16)
        var = ds.create_variable("v", "f4", ("x",), np.arange(1 << 16, dtype=np.float32))
        views = [c for c in to_chunks(ds) if isinstance(c, memoryview)]
        assert len(views) == 1
        assert np.shares_memory(np.frombuffer(views[0], dtype=np.uint8), var.data)

    def test_native_endian_replacement_is_written_big_endian(self):
        ds = Dataset()
        ds.create_dimension("x", 4)
        ds.create_variable("v", "i4", ("x",), np.zeros(4, dtype=np.int32))
        ds["v"].data = np.arange(4, dtype="<i4")
        np.testing.assert_array_equal(from_bytes(to_bytes(ds))["v"].data, np.arange(4))


class TestStreamedPublish:
    @settings(max_examples=60, deadline=None)
    @given(datasets())
    def test_returns_what_hashing_the_file_returns(self, tmp_path_factory, ds):
        path = str(tmp_path_factory.mktemp("publish") / "out.nc")
        nbytes, digest = chaos_atomic_write(ds, path)
        assert (digest, nbytes) == digest_file(path)
        with open(path, "rb") as handle:
            raw = handle.read()
        assert raw == reference_to_bytes(ds)
        assert digest == hashlib.sha256(raw).hexdigest()

    @settings(max_examples=30, deadline=None)
    @given(datasets())
    def test_write_to_path_and_handle(self, tmp_path_factory, ds):
        path = str(tmp_path_factory.mktemp("write") / "out.nc")
        expected = reference_to_bytes(ds)
        assert write(ds, path) == len(expected)
        with open(path, "rb") as handle:
            assert handle.read() == expected

    def test_publishing_a_granule_allocates_no_copy_of_it(self, tmp_path):
        """The download path: a fixed-only granule streams from the
        arrays it already holds — no ``to_bytes``-sized intermediate."""
        ds = Dataset()
        ds.create_dimension("band", 4)
        ds.create_dimension("y", 512)
        ds.create_dimension("x", 512)
        ds.create_variable(
            "radiance", "f4", ("band", "y", "x"), np.ones((4, 512, 512), dtype=np.float32)
        )
        ds.create_variable("latitude", "f4", ("y", "x"), np.ones((512, 512), dtype=np.float32))
        path = str(tmp_path / "granule.nc")
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            nbytes, _digest = chaos_atomic_write(ds, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nbytes > 5 * 1024 * 1024
        assert peak - before < nbytes // 8


def test_inconsistent_record_count_still_rejected():
    ds = Dataset()
    ds.create_dimension("rec", None)
    ds.create_variable("a", "i4", ("rec",), np.zeros(3, dtype=np.int32))
    ds.create_variable("b", "i4", ("rec",), np.zeros(3, dtype=np.int32))
    ds["b"].data = np.zeros(2, dtype=">i4")
    with pytest.raises(writer_mod.NcFormatError):
        to_bytes(ds)


def test_invalid_dataset_is_refused_before_a_temp_file_exists(tmp_path):
    ds = Dataset()
    ds.create_dimension("rec", None)
    ds.create_variable("a", "i4", ("rec",), np.zeros(3, dtype=np.int32))
    ds.create_variable("b", "i4", ("rec",), np.zeros(3, dtype=np.int32))
    ds["b"].data = np.zeros(2, dtype=">i4")
    with pytest.raises(writer_mod.NcFormatError):
        chaos_atomic_write(ds, str(tmp_path / "bad.nc"))
    assert os.listdir(tmp_path) == []
