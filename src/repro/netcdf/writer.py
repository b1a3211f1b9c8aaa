"""NetCDF classic (CDF-1 / CDF-2) serializer.

Implements the on-disk layout from the NetCDF classic format specification:
a header (magic, numrecs, dimension list, global attributes, variable
list), then fixed-size variable data in definition order, then record
slabs.  Byte order is big-endian throughout; names, attribute values, and
variable slots are zero-padded to four-byte boundaries.

The writer picks CDF-1 (32-bit offsets) and transparently upgrades to
CDF-2 (64-bit offsets) when any data offset would exceed 2**31 - 1.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import BinaryIO, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.netcdf.dataset import Dataset, Variable
from repro.netcdf.types import NcFormatError, NcType, TYPE_INFO
from repro.util.digest import TEMP_SUFFIX, Buffer

__all__ = [
    "write", "to_bytes", "to_chunks", "WRITE_BUFFER", "RECORD_BATCH",
    "CanonicalLayout", "canonical_layout", "splice_chunks", "splice_bytes",
]

NC_DIMENSION = 0x0A
NC_VARIABLE = 0x0B
NC_ATTRIBUTE = 0x0C
ABSENT = b"\x00\x00\x00\x00\x00\x00\x00\x00"

_MAX_CDF1_OFFSET = 2**31 - 1

# Buffer size for a file that receives :func:`to_chunks`: chunks below
# it (header, padding, small variables) are coalesced by the file object
# instead of costing a syscall each; larger ones bypass the buffer.
WRITE_BUFFER = 64 * 1024

# Upper bound on one chunk of the record region (a single record larger
# than this is its own chunk): the interleaved records are assembled a
# batch at a time, so serializing never holds a second copy of the data.
RECORD_BATCH = 4 * 1024 * 1024


def _pad4(n: int) -> int:
    return (n + 3) & ~3


def _pack_int(value: int) -> bytes:
    return struct.pack(">i", value)


def _pack_name(name: str) -> bytes:
    encoded = name.encode("utf-8")
    return _pack_int(len(encoded)) + encoded + b"\x00" * (_pad4(len(encoded)) - len(encoded))


def _pack_attr_value(value: Union[str, np.ndarray]) -> bytes:
    if isinstance(value, str):
        payload = value.encode("utf-8")
        header = _pack_int(int(NcType.CHAR)) + _pack_int(len(payload))
        return header + payload + b"\x00" * (_pad4(len(payload)) - len(payload))
    array = np.asarray(value)
    from repro.netcdf.types import dtype_to_nctype

    nc_type = dtype_to_nctype(array.dtype)
    payload = array.astype(TYPE_INFO[nc_type].dtype, copy=False).tobytes()
    header = _pack_int(int(nc_type)) + _pack_int(array.size)
    return header + payload + b"\x00" * (_pad4(len(payload)) - len(payload))


def _pack_attr_list(attrs: Dict[str, Union[str, np.ndarray]]) -> bytes:
    if not attrs:
        return ABSENT
    chunks = [_pack_int(NC_ATTRIBUTE), _pack_int(len(attrs))]
    for name, value in attrs.items():
        chunks.append(_pack_name(name))
        chunks.append(_pack_attr_value(value))
    return b"".join(chunks)


def _per_record_size(var: Variable) -> int:
    """Unpadded bytes one record of ``var`` occupies (or full size if fixed)."""
    size = TYPE_INFO[var.nc_type].size
    dims = var.dimensions[1:] if var.is_record else var.dimensions
    for dim in dims:
        size *= dim.size
    return size


def _vsizes(dataset: Dataset) -> Dict[str, int]:
    """The vsize header field per variable, honouring the one-record-var rule."""
    record_vars = [v for v in dataset.variables.values() if v.is_record]
    sole_record = len(record_vars) == 1
    out: Dict[str, int] = {}
    for var in dataset.variables.values():
        raw = _per_record_size(var)
        if var.is_record and sole_record:
            out[var.name] = raw  # special case: no inter-record padding
        else:
            out[var.name] = _pad4(raw)
    return out


def _plan_offsets(dataset: Dataset, offset_width: int) -> Tuple[Dict[str, int], int, int]:
    """Compute (begin offsets, header size, record slab size)."""
    vsizes = _vsizes(dataset)
    header = len(_serialize_header(dataset, {v: 0 for v in dataset.variables}, vsizes, offset_width))
    begins: Dict[str, int] = {}
    cursor = header
    for var in dataset.variables.values():
        if not var.is_record:
            begins[var.name] = cursor
            cursor += vsizes[var.name]
    record_base = cursor
    rec_cursor = record_base
    recsize = 0
    for var in dataset.variables.values():
        if var.is_record:
            begins[var.name] = rec_cursor
            rec_cursor += vsizes[var.name]
            recsize += vsizes[var.name]
    return begins, header, recsize


def _serialize_header(
    dataset: Dataset,
    begins: Dict[str, int],
    vsizes: Dict[str, int],
    offset_width: int,
) -> bytes:
    chunks: List[bytes] = []
    chunks.append(b"CDF\x01" if offset_width == 4 else b"CDF\x02")
    chunks.append(_pack_int(dataset.num_records))

    dims = list(dataset.dimensions.values())
    if dims:
        chunks.append(_pack_int(NC_DIMENSION))
        chunks.append(_pack_int(len(dims)))
        for dim in dims:
            chunks.append(_pack_name(dim.name))
            chunks.append(_pack_int(0 if dim.is_record else dim.size))
    else:
        chunks.append(ABSENT)

    chunks.append(_pack_attr_list(dataset.attributes))

    variables = list(dataset.variables.values())
    if variables:
        dim_ids = {name: index for index, name in enumerate(dataset.dimensions)}
        chunks.append(_pack_int(NC_VARIABLE))
        chunks.append(_pack_int(len(variables)))
        for var in variables:
            chunks.append(_pack_name(var.name))
            chunks.append(_pack_int(len(var.dimensions)))
            for dim in var.dimensions:
                chunks.append(_pack_int(dim_ids[dim.name]))
            chunks.append(_pack_attr_list(var.attributes))
            chunks.append(_pack_int(int(var.nc_type)))
            chunks.append(_pack_int(min(vsizes[var.name], _MAX_CDF1_OFFSET)))
            if offset_width == 4:
                chunks.append(struct.pack(">i", begins[var.name]))
            else:
                chunks.append(struct.pack(">q", begins[var.name]))
    else:
        chunks.append(ABSENT)
    return b"".join(chunks)


def _choose_layout(dataset: Dataset) -> Tuple[int, Dict[str, int], int, int, Dict[str, int]]:
    """Pick CDF-1/CDF-2 and plan offsets; returns
    (offset_width, begins, header_size, recsize, vsizes)."""
    vsizes = _vsizes(dataset)
    offset_width = 4
    begins, header_size, recsize = _plan_offsets(dataset, offset_width)
    numrecs = dataset.num_records
    end = max(
        [header_size]
        + [
            begins[v.name] + (vsizes[v.name] if not v.is_record else 0)
            for v in dataset.variables.values()
        ]
        + ([begins[v.name] + numrecs * recsize for v in dataset.variables.values() if v.is_record] or [0])
    )
    if end > _MAX_CDF1_OFFSET:
        offset_width = 8
        begins, header_size, recsize = _plan_offsets(dataset, offset_width)
    return offset_width, begins, header_size, recsize, vsizes


def _record_batches(
    record_vars: Sequence[Variable],
    begins: Dict[str, int],
    recsize: int,
    numrecs: int,
) -> Iterator[memoryview]:
    """The record region as batches of whole records, in file order.

    Each batch is pre-zeroed (so inter-record padding needs no explicit
    writes) and filled with one strided scatter per variable: a
    variable's slices land ``recsize`` bytes apart.  Assigning through a
    big-endian view keeps on-disk byte order without a per-record
    ``ascontiguousarray(...).tobytes()`` loop.
    """
    base = min(begins[v.name] for v in record_vars)
    step = max(1, RECORD_BATCH // recsize)
    for start in range(0, numrecs, step):
        rows = min(step, numrecs - start)
        slab = np.zeros(rows * recsize, dtype=np.uint8)
        for var in record_vars:
            info = TYPE_INFO[var.nc_type]
            count = _per_record_size(var) // info.size
            if count == 0:
                continue
            target = np.ndarray(
                shape=(rows, count),
                dtype=info.dtype,
                buffer=slab,
                offset=begins[var.name] - base,
                strides=(recsize, info.size),
            )
            target[:] = var.data[start : start + rows].reshape(rows, count)
        yield memoryview(slab)


def to_chunks(dataset: Dataset) -> Iterator[Union[bytes, memoryview]]:
    """The serialization as byte buffers in file order, for streaming.

    Yields the header, then each fixed-size variable's array *as it sits
    in memory* (variables are held big-endian, so a ``memoryview`` is the
    on-disk form — no ``tobytes`` copy) followed by its zero padding,
    then the record region in batches of at most ``RECORD_BATCH`` bytes.
    ``b"".join`` of the chunks is the file; writers that hash or write
    chunk by chunk never hold a second copy of the data, only the batch
    in flight.  The dataset is validated and laid out here,
    before the first chunk is asked for, so a caller can open its
    output file knowing the serialization will not be refused.
    """
    for var in dataset.variables.values():
        if var.is_record and var.shape[0] != dataset.num_records:
            raise NcFormatError(f"record variable {var.name!r} has inconsistent record count")
    offset_width, begins, _header_size, recsize, vsizes = _choose_layout(dataset)
    header = _serialize_header(dataset, begins, vsizes, offset_width)
    return _chunks(dataset, header, begins, recsize, vsizes)


def _chunks(
    dataset: Dataset,
    header: bytes,
    begins: Dict[str, int],
    recsize: int,
    vsizes: Dict[str, int],
) -> Iterator[Union[bytes, memoryview]]:
    yield header
    cursor = len(header)

    # Fixed-size variable data, in definition order, zero-padded to vsize.
    for var in dataset.variables.values():
        if var.is_record:
            continue
        if cursor != begins[var.name]:
            raise NcFormatError(
                f"internal offset mismatch for {var.name!r}: "
                f"at {cursor}, planned {begins[var.name]}"
            )
        data = np.ascontiguousarray(var.data, dtype=TYPE_INFO[var.nc_type].dtype)
        yield memoryview(data.reshape(-1).view(np.uint8))
        if vsizes[var.name] > data.nbytes:
            yield b"\x00" * (vsizes[var.name] - data.nbytes)
        cursor += vsizes[var.name]

    record_vars = [v for v in dataset.variables.values() if v.is_record]
    if record_vars:
        if cursor != min(begins[v.name] for v in record_vars):
            raise NcFormatError(
                f"internal offset mismatch for record slabs: at {cursor}, "
                f"planned {min(begins[v.name] for v in record_vars)}"
            )
        if recsize:
            yield from _record_batches(record_vars, begins, recsize, dataset.num_records)


def to_bytes(dataset: Dataset) -> bytes:
    """Serialize a dataset to NetCDF classic bytes."""
    return b"".join(to_chunks(dataset))


@dataclass(frozen=True)
class CanonicalLayout:
    """Byte layout of a serialization this writer produced (see
    :func:`canonical_layout`)."""

    offset_width: int
    header_size: int
    begins: Dict[str, int]
    vsizes: Dict[str, int]
    recsize: int
    numrecs: int


def _serialized_length(
    dataset: Dataset, header_size: int, recsize: int, vsizes: Dict[str, int]
) -> int:
    fixed = sum(vsizes[v.name] for v in dataset.variables.values() if not v.is_record)
    return header_size + fixed + dataset.num_records * recsize


def canonical_layout(dataset: Dataset, raw: Buffer) -> Optional[CanonicalLayout]:
    """Layout of ``raw`` if it is exactly what :func:`to_bytes` would emit
    for ``dataset`` — or None for files from non-canonical producers.

    This is the precondition for :func:`splice_bytes`: when it holds, the
    data region of ``raw`` can be reused verbatim after a metadata-only
    change instead of re-serializing every unchanged variable.
    """
    offset_width, begins, header_size, recsize, vsizes = _choose_layout(dataset)
    if len(raw) != _serialized_length(dataset, header_size, recsize, vsizes):
        return None
    if bytes(raw[:header_size]) != _serialize_header(dataset, begins, vsizes, offset_width):
        return None
    return CanonicalLayout(
        offset_width=offset_width,
        header_size=header_size,
        begins=dict(begins),
        vsizes=dict(vsizes),
        recsize=recsize,
        numrecs=dataset.num_records,
    )


def splice_chunks(
    dataset: Dataset,
    raw: Buffer,
    layout: CanonicalLayout,
    changed: Sequence[str],
) -> Iterator[Buffer]:
    """Re-serialize ``dataset`` as the new header, then ``raw``'s data
    region (bytes or a mapped file) with the ``changed`` variables' new
    bytes in between, in buffers of at most ``RECORD_BATCH`` bytes.

    ``layout`` must come from :func:`canonical_layout` called *before*
    the dataset was mutated; since then only attributes and the values of
    the ``changed`` variables may have been touched (shapes and dtypes
    fixed).  This is the inference stage's label-append fast path: the
    radiance cube — the bulk of a tile file — goes from the tile file to
    the labelled one without being re-encoded or held a second time.
    """
    offset_width, begins, header_size, recsize, vsizes = _choose_layout(dataset)
    if (
        offset_width != layout.offset_width
        or recsize != layout.recsize
        or vsizes != layout.vsizes
        or dataset.num_records != layout.numrecs
        or {n: b - header_size for n, b in begins.items()}
        != {n: b - layout.header_size for n, b in layout.begins.items()}
    ):
        # The relative layout moved (e.g. a variable was added): fall
        # back to the full serializer.
        return to_chunks(dataset)

    patches: List[Tuple[int, bytes]] = []  # (offset in raw, new bytes)
    for name in changed:
        var = dataset.variables[name]
        data = np.ascontiguousarray(var.data, dtype=TYPE_INFO[var.nc_type].dtype)
        if not var.is_record:
            patches.append((layout.begins[name], data.tobytes()))
        elif data.size:
            rows = data.reshape(layout.numrecs, -1)
            patches.extend(
                (layout.begins[name] + index * recsize, row.tobytes())
                for index, row in enumerate(rows)
            )

    def pieces() -> Iterator[Buffer]:
        yield _serialize_header(dataset, begins, vsizes, offset_width)
        view, cursor = memoryview(raw), layout.header_size
        for offset, patch in sorted(patches):
            yield view[cursor:offset]
            yield patch
            cursor = offset + len(patch)
        yield view[cursor:]

    return _merged(pieces())


def _merged(pieces: Iterator[Buffer]) -> Iterator[Buffer]:
    """Runs of ``pieces`` joined into buffers of at most ``RECORD_BATCH``
    bytes (a larger piece passes through).  A label column is a patch per
    record: merged, the consumer writes and hashes a few large buffers
    instead of two small ones a record."""
    pending = bytearray()
    for piece in pieces:
        if len(pending) + len(piece) > RECORD_BATCH:
            if pending:
                yield pending
                pending = bytearray()
            if len(piece) > RECORD_BATCH:
                yield piece
                continue
        pending += piece
    if pending:
        yield pending


def splice_bytes(
    dataset: Dataset, raw: Buffer, layout: CanonicalLayout, changed: Sequence[str]
) -> bytes:
    """:func:`splice_chunks`, joined into one buffer."""
    return b"".join(splice_chunks(dataset, raw, layout, changed))


def write(dataset: Dataset, target: Union[str, BinaryIO]) -> int:
    """Write a dataset to a path or binary file object; returns byte count.

    A path is written under a temp name and renamed into place, so maps
    of a file already there (``dataset`` may hold one) stay whole.
    """
    chunks = to_chunks(dataset)  # validates before a path is opened
    if isinstance(target, str):
        with open(target + TEMP_SUFFIX, "wb", buffering=WRITE_BUFFER) as handle:
            nbytes = _write_chunks(handle, chunks)
        os.replace(target + TEMP_SUFFIX, target)
        return nbytes
    return _write_chunks(target, chunks)


def _write_chunks(handle: BinaryIO, chunks: Iterator[Union[bytes, memoryview]]) -> int:
    nbytes = 0
    for chunk in chunks:
        handle.write(chunk)
        nbytes += len(chunk)
    return nbytes
