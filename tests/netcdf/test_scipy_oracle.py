"""An independent reader for what we write, and for what we read.

``scipy.io.netcdf_file`` is somebody else's NetCDF-classic codec (and a
declared dependency).  Everything downstream of the workflow opens the
shipped files with a library like it, so: whatever our writer emits,
scipy (plain reads, ``mmap=False``) and our mapped ``read(path)`` must
tell the same story — dimensions, attributes, every variable's values —
and a file scipy wrote must come back through ``read`` unchanged.
"""

import os

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.io import netcdf_file

from repro.core.inference import InferenceWorker
from repro.netcdf import Dataset, read, to_bytes, write
from repro.netcdf import writer as writer_mod

from tests.core.test_alloc_budget import ConstantModel
from tests.core.test_inference_batching import make_config, make_tile_file

DTYPES = ("i1", "S1", "i2", "i4", "f4", "f8")   # every NcType


def values(rng, dtype, shape):
    if dtype == "S1":
        return rng.integers(97, 123, size=shape).astype(np.uint8).view("S1")
    return (rng.random(shape) * 100 - 50).astype(dtype)


@st.composite
def datasets(draw):
    """Fixed and record variables of every external type, attributes of
    every kind, odd sizes (padding, the sole-record-variable rule)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    ds = Dataset()
    ds.create_dimension("rec", None)
    ds.create_dimension("a", draw(st.integers(1, 5)))
    ds.create_dimension("b", draw(st.integers(1, 3)))
    numrecs = draw(st.integers(0, 5))
    ds.set_attr("title", draw(st.text("abc xyz", min_size=1, max_size=9)))
    ds.set_attr("count", draw(st.integers(-5, 5)))
    ds.set_attr("scale", [0.5, draw(st.floats(-2, 2, width=32))])
    for index in range(draw(st.integers(0, 3))):
        dims = draw(st.sampled_from([(), ("a",), ("a", "b")]))
        dtype = draw(st.sampled_from(DTYPES))
        shape = tuple(ds.dimensions[d].size for d in dims)
        ds.create_variable(
            f"fixed{index}", dtype, dims, values(rng, dtype, shape),
            attributes={"units": "k", "valid_max": np.int16(7)} if index % 2 else None,
        )
    for index in range(draw(st.integers(0, 3))):
        dims = draw(st.sampled_from([("rec",), ("rec", "a"), ("rec", "a", "b")]))
        dtype = draw(st.sampled_from(DTYPES))
        shape = (numrecs,) + tuple(ds.dimensions[d].size for d in dims[1:])
        ds.create_variable(f"record{index}", dtype, dims, values(rng, dtype, shape))
    return ds


def attrs_of(theirs):
    """scipy's attribute dict in our terms: str, or a 1-D array."""
    return {
        name: value.decode("utf-8") if isinstance(value, bytes) else np.atleast_1d(value)
        for name, value in theirs.items()
    }


def assert_same_attrs(ours, theirs):
    theirs = attrs_of(theirs)
    assert list(ours) == list(theirs)
    for name, value in ours.items():
        if isinstance(value, str):
            assert value == theirs[name]
        else:
            assert value.dtype.newbyteorder("=") == theirs[name].dtype.newbyteorder("=")
            np.testing.assert_array_equal(value, theirs[name])


def assert_agree(path):
    """Our mapped read and scipy's plain read of one file; returns ours."""
    ours = read(path)
    with netcdf_file(path, "r", mmap=False) as theirs:
        assert {n: d.size for n, d in ours.dimensions.items()} == dict(theirs.dimensions)
        assert_same_attrs(ours.attributes, theirs._attributes)
        assert list(ours.variables) == list(theirs.variables)
        for name, var in ours.variables.items():
            other = theirs.variables[name]
            assert var.dim_names == other.dimensions
            assert var.is_record == other.isrec
            assert var.data.dtype.newbyteorder("=") == other.data.dtype.newbyteorder("=")
            np.testing.assert_array_equal(var.data, other.data)
            assert_same_attrs(var.attributes, other._attributes)
    return ours


class TestScipyReadsWhatWeWrite:
    @settings(max_examples=120, deadline=None)
    @given(ds=datasets(), cdf2=st.booleans())
    def test_drawn_datasets(self, tmp_path_factory, ds, cdf2):
        path = str(tmp_path_factory.mktemp("oracle") / "out.nc")
        # The CDF-2 upgrade without a 2 GiB file: the 32-bit limit drawn
        # just below this file's own length (no vsize field reaches it).
        original = writer_mod._MAX_CDF1_OFFSET
        writer_mod._MAX_CDF1_OFFSET = len(to_bytes(ds)) - 1 if cdf2 else original
        try:
            write(ds, path)
        finally:
            writer_mod._MAX_CDF1_OFFSET = original
        with open(path, "rb") as handle:
            assert handle.read(4) == (b"CDF\x02" if cdf2 else b"CDF\x01")
        parsed = assert_agree(path)
        for name, var in ds.variables.items():
            np.testing.assert_array_equal(parsed[name].data, var.data)

    def test_a_shipped_file_after_the_label_splice(self, tmp_path):
        """The most fragile path in the codec: header rewritten, label
        column patched between views of the mapped tile file."""
        tile_path = make_tile_file(str(tmp_path / "tiles_g0.nc"), seed=5)
        worker = InferenceWorker(ConstantModel(), make_config(tmp_path))
        ((_, result),) = worker.label([tile_path])
        assert_agree(tile_path)
        shipped = assert_agree(result.out_path)
        assert shipped["label"].get_attr("classified_by") == "RICC/AICCA"
        assert not shipped["label"].data.any() and shipped["label"].data.size == result.tiles
        np.testing.assert_array_equal(shipped["radiance"].data, read(tile_path)["radiance"].data)


class TestWeReadWhatScipyWrites:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "scipy.nc")
        with netcdf_file(path, "w") as out:
            out.history = "made by scipy"
            out.createDimension("t", None)
            out.createDimension("x", 3)
            temp = out.createVariable("temp", "f4", ("t", "x"))
            temp[0, :] = [1.5, 2.5, 3.5]
            temp[1, :] = [4.5, 5.5, 6.5]
            temp.units = "K"
            flag = out.createVariable("flag", "i1", ("t",))
            flag[:] = [1, -1]
            out.createVariable("idx", "i4", ("x",))[:] = [9, 8, 7]
        parsed = assert_agree(path)
        np.testing.assert_array_equal(parsed["temp"].data, [[1.5, 2.5, 3.5], [4.5, 5.5, 6.5]])
        assert parsed.get_attr("history") == "made by scipy"
        # ... and back out through our writer, for scipy to read again.
        again = str(tmp_path / "ours.nc")
        write(parsed, again)
        assert_agree(again)
        assert os.path.getsize(again) == os.path.getsize(path)
