"""The canonical-layout splice path (label-append fast serialization).

``canonical_layout`` recognises a byte string that is exactly what
``to_bytes`` would emit for the parsed dataset; ``splice_bytes`` then
re-serializes a mutated dataset by rewriting only the header and the
changed variables, copying the rest of the data region verbatim.  The
invariant under test everywhere: splice output is byte-identical to a
full ``to_bytes`` of the same mutated dataset.
"""

import numpy as np
import pytest

from repro.netcdf import Dataset, from_bytes, to_bytes
from repro.netcdf.writer import canonical_layout, splice_bytes

from tests.netcdf.test_roundtrip import make_tile_dataset


def parsed_with_raw(num_tiles=4):
    raw = to_bytes(make_tile_dataset(num_tiles=num_tiles))
    return from_bytes(raw), raw


class TestCanonicalLayout:
    def test_recognises_own_serialization(self):
        ds, raw = parsed_with_raw()
        layout = canonical_layout(ds, raw)
        assert layout is not None
        assert layout.numrecs == ds.num_records
        assert len(raw) == layout.header_size + sum(
            size for name, size in layout.vsizes.items()
            if not ds[name].is_record
        ) + layout.numrecs * layout.recsize

    def test_rejects_length_mismatch(self):
        ds, raw = parsed_with_raw()
        assert canonical_layout(ds, raw + b"\x00") is None
        assert canonical_layout(ds, raw[:-1]) is None

    def test_rejects_foreign_header(self):
        ds, raw = parsed_with_raw()
        tampered = bytearray(raw)
        tampered[8] ^= 0xFF  # somewhere inside the header
        assert canonical_layout(ds, bytes(tampered)) is None

    def test_rejects_mutated_dataset(self):
        """Layout must be taken before mutation: an attr added afterwards
        changes the canonical header, so recognition fails."""
        ds, raw = parsed_with_raw()
        ds.set_attr("processing_level", "L2")
        assert canonical_layout(ds, raw) is None


class TestSpliceBytes:
    def test_record_variable_patch_matches_full_serializer(self):
        ds, raw = parsed_with_raw()
        layout = canonical_layout(ds, raw)
        new_labels = np.arange(ds.num_records, dtype=np.int32)
        ds["label"].data = new_labels
        assert splice_bytes(ds, raw, layout, ("label",)) == to_bytes(ds)

    def test_attr_change_grows_header(self):
        """Label append as inference performs it: new attrs change the
        header size, so the splice shifts the data region."""
        ds, raw = parsed_with_raw()
        layout = canonical_layout(ds, raw)
        ds["label"].data = np.arange(ds.num_records, dtype=np.int32)
        ds["label"].set_attr("classified_by", "RICC/AICCA")
        ds.set_attr("aicca_classes", 42)
        spliced = splice_bytes(ds, raw, layout, ("label",))
        assert spliced == to_bytes(ds)
        assert from_bytes(spliced)["label"].get_attr("classified_by") == "RICC/AICCA"

    def test_fixed_variable_patch(self):
        ds = make_tile_dataset()
        ds.create_dimension("scalar", 1)
        ds.create_variable("offset", "f8", ("scalar",), np.array([1.5]))
        raw = to_bytes(ds)
        parsed = from_bytes(raw)
        layout = canonical_layout(parsed, raw)
        parsed["offset"].data = np.array([99.25])
        assert splice_bytes(parsed, raw, layout, ("offset",)) == to_bytes(parsed)

    def test_structural_change_falls_back_to_full_serializer(self):
        ds, raw = parsed_with_raw()
        layout = canonical_layout(ds, raw)
        ds.create_variable(
            "confidence", "f4", ("tile",),
            np.zeros(ds.num_records, dtype=np.float32),
        )
        assert splice_bytes(ds, raw, layout, ("confidence",)) == to_bytes(ds)

    def test_unchanged_splice_is_identity(self):
        ds, raw = parsed_with_raw()
        layout = canonical_layout(ds, raw)
        assert splice_bytes(ds, raw, layout, ()) == raw

    def test_round_trips_through_reader(self):
        ds, raw = parsed_with_raw(num_tiles=6)
        layout = canonical_layout(ds, raw)
        labels = np.arange(6, dtype=np.int32) % 3
        ds["label"].data = labels
        clone = from_bytes(splice_bytes(ds, raw, layout, ("label",)))
        np.testing.assert_array_equal(clone["label"].data, labels)
        np.testing.assert_array_equal(clone["radiance"].data, ds["radiance"].data)
