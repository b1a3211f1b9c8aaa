"""From-scratch NetCDF-3 classic (CDF-1/CDF-2) reader and writer.

The EO-ML workflow stores tiles, labels, and physical properties in NetCDF
(Sections II-B, III).  This package implements the classic file format in
pure NumPy: :class:`Dataset` is the in-memory model; :func:`write` /
:func:`read` serialize to and from the on-disk format.
"""

from repro.netcdf.dataset import Dataset, Dimension, Variable
from repro.netcdf.reader import from_bytes, map_file, read
from repro.netcdf.types import NcFormatError, NcType
from repro.netcdf.writer import WRITE_BUFFER, to_bytes, to_chunks, write

__all__ = [
    "Dataset",
    "Dimension",
    "Variable",
    "NcType",
    "NcFormatError",
    "read",
    "write",
    "to_bytes",
    "to_chunks",
    "WRITE_BUFFER",
    "from_bytes",
    "map_file",
]
