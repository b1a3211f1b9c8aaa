"""NetCDF classic (CDF-1 / CDF-2) parser.

Parses bytes produced by :mod:`repro.netcdf.writer` — or by any conforming
NetCDF classic writer — back into a :class:`repro.netcdf.dataset.Dataset`.
Bounds are validated before every read so truncated or corrupt files fail
with :class:`NcFormatError` rather than silent garbage.

Variables are read-only views of the parsed buffer, and :func:`read` maps
a file instead of reading it — safe because published files are never
modified in place, so the length every bound was checked against holds.
"""

from __future__ import annotations

import mmap
import struct
from typing import BinaryIO, Dict, List, Tuple, Union

import numpy as np

from repro.netcdf.dataset import Dataset
from repro.netcdf.types import NcFormatError, NcType, TYPE_INFO
from repro.netcdf.writer import NC_ATTRIBUTE, NC_DIMENSION, NC_VARIABLE, _pad4
from repro.util.digest import Buffer

__all__ = ["read", "from_bytes", "map_file"]


class _Cursor:
    __slots__ = ("buf", "pos")

    def __init__(self, buf: Buffer):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise NcFormatError(
                f"truncated file: needed {n} bytes at offset {self.pos}, "
                f"have {len(self.buf) - self.pos}"
            )
        chunk = bytes(self.buf[self.pos : self.pos + n])
        self.pos += n
        return chunk

    def int32(self) -> int:
        return struct.unpack(">i", self.take(4))[0]

    def int64(self) -> int:
        return struct.unpack(">q", self.take(8))[0]

    def name(self) -> str:
        length = self.int32()
        if length < 0:
            raise NcFormatError(f"negative name length at offset {self.pos - 4}")
        raw = self.take(_pad4(length))[:length]
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise NcFormatError(f"name at offset {self.pos} is not valid UTF-8") from exc


def _read_attr_list(cursor: _Cursor) -> Dict[str, Union[str, np.ndarray]]:
    tag = cursor.int32()
    count = cursor.int32()
    if tag == 0:
        if count != 0:
            raise NcFormatError("ABSENT attribute list with non-zero count")
        return {}
    if tag != NC_ATTRIBUTE:
        raise NcFormatError(f"expected NC_ATTRIBUTE tag, got {tag:#x}")
    attrs: Dict[str, Union[str, np.ndarray]] = {}
    for _ in range(count):
        name = cursor.name()
        type_tag = cursor.int32()
        try:
            nc_type = NcType(type_tag)
        except ValueError as exc:
            raise NcFormatError(f"unknown attribute type {type_tag}") from exc
        nelems = cursor.int32()
        if nelems < 0:
            raise NcFormatError(f"negative attribute element count for {name!r}")
        info = TYPE_INFO[nc_type]
        payload = cursor.take(_pad4(nelems * info.size))[: nelems * info.size]
        if nc_type is NcType.CHAR:
            attrs[name] = payload.decode("utf-8", errors="replace")
        else:
            attrs[name] = np.frombuffer(payload, dtype=info.dtype).copy()
    return attrs


def from_bytes(buf: Buffer) -> Dataset:
    """Parse a NetCDF classic buffer into a Dataset of views over it.

    Variable arrays alias ``buf`` (keeping it alive) and are read-only:
    to change a variable, assign ``Variable.data`` a new array.  Only a
    record variable filling under half of each record (a per-tile column
    beside a radiance cube) is gathered into an array of its own — a
    view of it would pin the whole buffer for a few bytes per record.
    """
    cursor = _Cursor(buf)
    magic = cursor.take(4)
    if magic[:3] != b"CDF":
        raise NcFormatError(f"not a NetCDF classic file (magic {magic!r})")
    version = magic[3]
    if version not in (1, 2):
        raise NcFormatError(f"unsupported NetCDF version byte {version}")
    offset_width = 4 if version == 1 else 8

    numrecs = cursor.int32()
    if numrecs < 0:
        raise NcFormatError("streaming numrecs (-1) is not supported")

    # Dimensions.
    tag = cursor.int32()
    count = cursor.int32()
    dims: List[Tuple[str, int]] = []
    if tag == NC_DIMENSION:
        for _ in range(count):
            name = cursor.name()
            size = cursor.int32()
            if size < 0:
                raise NcFormatError(f"negative dimension size for {name!r}")
            dims.append((name, size))
    elif tag != 0 or count != 0:
        raise NcFormatError(f"expected NC_DIMENSION tag, got {tag:#x}")

    global_attrs = _read_attr_list(cursor)

    # Variables.
    tag = cursor.int32()
    count = cursor.int32()
    headers = []
    if tag == NC_VARIABLE:
        for _ in range(count):
            name = cursor.name()
            ndims = cursor.int32()
            if ndims < 0:
                raise NcFormatError(f"negative rank for variable {name!r}")
            dim_ids = [cursor.int32() for _ in range(ndims)]
            for dim_id in dim_ids:
                if not 0 <= dim_id < len(dims):
                    raise NcFormatError(f"variable {name!r} references bad dimension id {dim_id}")
            attrs = _read_attr_list(cursor)
            type_tag = cursor.int32()
            try:
                nc_type = NcType(type_tag)
            except ValueError as exc:
                raise NcFormatError(f"unknown variable type {type_tag}") from exc
            _vsize = cursor.int32()
            begin = cursor.int32() if offset_width == 4 else cursor.int64()
            if begin < 0:
                raise NcFormatError(f"variable {name!r} has negative data offset {begin}")
            # Upper-bound validation happens at data-read time: with zero
            # records a record variable's begin may legitimately point at
            # (or past) end-of-file.
            headers.append((name, dim_ids, attrs, nc_type, begin))
    elif tag != 0 or count != 0:
        raise NcFormatError(f"expected NC_VARIABLE tag, got {tag:#x}")

    dataset = Dataset()
    # The classic format marks the (single) record dimension with length 0.
    record_dim_id = None
    for dim_id, (name, size) in enumerate(dims):
        if size == 0 and record_dim_id is None:
            record_dim_id = dim_id
            dataset.create_dimension(name, None)
        else:
            dataset.create_dimension(name, size)
    for name, value in global_attrs.items():
        dataset.attributes[name] = value

    dim_names = [name for name, _ in dims]

    # Compute the record slab layout (mirrors the writer).
    record_headers = [h for h in headers if h[1] and h[1][0] == record_dim_id and record_dim_id is not None]
    sole_record = len(record_headers) == 1

    def per_record_bytes(header) -> int:
        _name, dim_ids, _attrs, nc_type, _begin = header
        size = TYPE_INFO[nc_type].size
        for dim_id in dim_ids[1:]:
            size *= dims[dim_id][1]
        return size

    recsize = sum(
        per_record_bytes(h) if sole_record else _pad4(per_record_bytes(h)) for h in record_headers
    )

    for header in headers:
        name, dim_ids, attrs, nc_type, begin = header
        info = TYPE_INFO[nc_type]
        is_record = record_dim_id is not None and dim_ids and dim_ids[0] == record_dim_id
        if is_record:
            tail_shape = tuple(dims[d][1] for d in dim_ids[1:])
            per_rec = per_record_bytes(header)
            count = per_rec // info.size
            if numrecs == 0 or count == 0:
                data = np.empty((numrecs, *tail_shape), dtype=info.dtype)
            else:
                if begin + (numrecs - 1) * recsize + per_rec > len(buf):
                    raise NcFormatError(
                        f"records of {name!r} extend past end of file"
                    )
                # One strided view over the whole record region: records
                # of this variable sit ``recsize`` bytes apart in the slab.
                strided = np.ndarray(
                    shape=(numrecs, count),
                    dtype=info.dtype,
                    buffer=buf,
                    offset=begin,
                    strides=(recsize, info.size),
                )
                if 2 * per_rec < recsize:
                    strided = strided.copy()
                # Splitting the contiguous last axis never copies.
                data = strided.reshape((numrecs, *tail_shape))
            shape_dims = [dim_names[d] for d in dim_ids]
        else:
            shape = tuple(dims[d][1] for d in dim_ids)
            count_elems = 1
            for extent in shape:
                count_elems *= extent
            if begin + count_elems * info.size > len(buf):
                raise NcFormatError(f"variable {name!r} extends past end of file")
            data = np.frombuffer(buf, info.dtype, count_elems, begin).reshape(shape)
            shape_dims = [dim_names[d] for d in dim_ids]
        variable = dataset.create_variable(name, nc_type, shape_dims, data)
        for attr_name, attr_value in attrs.items():
            variable.attributes[attr_name] = attr_value
    return dataset


def map_file(path: str) -> Buffer:
    """A file's content as a read-only map (``b""`` for an empty file,
    which cannot be mapped).  The descriptor opened here is closed before
    returning; the map, and the one it duplicated, go with the last
    reference — arrays parsed from the map count."""
    with open(path, "rb") as handle:
        try:
            return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            return handle.read()


def read(source: Union[str, BinaryIO, bytes]) -> Dataset:
    """Read a dataset from a path (mapped, not read: a variable nobody
    touches is never paged in), a binary file object, or bytes."""
    if isinstance(source, bytes):
        return from_bytes(source)
    if isinstance(source, str):
        return from_bytes(map_file(source))
    return from_bytes(source.read())
