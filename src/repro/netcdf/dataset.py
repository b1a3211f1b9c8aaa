"""In-memory NetCDF dataset model: dimensions, variables, attributes.

The API mirrors the familiar netCDF4-python surface (``create_dimension``,
``create_variable``, attribute dicts) so workflow code reads naturally, but
is backed by plain NumPy arrays and the from-scratch classic-format codec
in :mod:`repro.netcdf.writer` / :mod:`repro.netcdf.reader`.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.netcdf.types import NcFormatError, NcType, TYPE_INFO, dtype_to_nctype

__all__ = ["Dimension", "Variable", "Dataset"]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.@+\-]*$")

AttrValue = Union[str, bytes, int, float, np.ndarray, Sequence[int], Sequence[float]]


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise NcFormatError(f"invalid NetCDF name: {name!r}")
    return name


def normalize_attr(value: AttrValue) -> Union[str, np.ndarray]:
    """Canonicalize an attribute value to str or a typed NumPy array."""
    if isinstance(value, str):
        return value
    if isinstance(value, bytes):
        return value.decode("latin-1")
    if isinstance(value, bool):
        raise NcFormatError("boolean attributes are not representable in classic NetCDF")
    if isinstance(value, (int, np.integer)):
        if not (-(2**31) <= int(value) < 2**31):
            raise NcFormatError(f"integer attribute out of 32-bit range: {value}")
        return np.array([value], dtype=">i4")
    if isinstance(value, (float, np.floating)):
        return np.array([value], dtype=">f8")
    array = np.asarray(value)
    if array.ndim == 0:
        array = array.reshape(1)
    if array.ndim != 1:
        raise NcFormatError("attribute arrays must be one-dimensional")
    if array.size == 0:
        raise NcFormatError("empty attribute arrays are not supported")
    nc_type = dtype_to_nctype(array.dtype)
    return array.astype(TYPE_INFO[nc_type].dtype)


class Dimension:
    """A named dimension; ``size=None`` declares the record dimension."""

    def __init__(self, name: str, size: Optional[int]):
        self.name = _check_name(name)
        if size is not None and (not isinstance(size, (int, np.integer)) or size < 0):
            raise NcFormatError(f"dimension size must be a non-negative int or None: {size!r}")
        self.size = None if size is None else int(size)

    @property
    def is_record(self) -> bool:
        return self.size is None

    def __repr__(self) -> str:
        return f"Dimension({self.name!r}, {'UNLIMITED' if self.is_record else self.size})"


class Variable:
    """A typed array over named dimensions, with attributes.

    In a parsed dataset ``data`` is a read-only view of the source:
    change a variable by assigning ``data`` a new array.
    """

    def __init__(
        self,
        name: str,
        nc_type: NcType,
        dimensions: Tuple[Dimension, ...],
        data: np.ndarray,
        attributes: Optional[Dict[str, AttrValue]] = None,
    ):
        self.name = _check_name(name)
        self.nc_type = NcType(nc_type)
        self.dimensions = tuple(dimensions)
        for dim in self.dimensions[1:]:
            if dim.is_record:
                raise NcFormatError(
                    f"variable {name!r}: only the first dimension may be the record dimension"
                )
        self.data = data
        self.attributes: Dict[str, Union[str, np.ndarray]] = {}
        for key, value in (attributes or {}).items():
            self.set_attr(key, value)

    @property
    def is_record(self) -> bool:
        return bool(self.dimensions) and self.dimensions[0].is_record

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def dim_names(self) -> Tuple[str, ...]:
        return tuple(d.name for d in self.dimensions)

    def set_attr(self, name: str, value: AttrValue) -> None:
        self.attributes[_check_name(name)] = normalize_attr(value)

    def get_attr(self, name: str, default: Any = None) -> Any:
        return self.attributes.get(name, default)

    def __getitem__(self, key) -> np.ndarray:
        return self.data[key]

    def __repr__(self) -> str:
        dims = ", ".join(self.dim_names)
        return f"Variable({self.name!r}, {self.nc_type.name}, [{dims}], shape={self.shape})"


class Dataset:
    """An in-memory NetCDF classic dataset.

    A dataset built here owns its arrays; one parsed by ``read`` /
    ``from_bytes`` holds read-only views of the mapped file or buffer
    (kept alive by them; published files are never modified in place).

    >>> ds = Dataset()
    >>> ds.create_dimension("tile", None)   # record dimension
    >>> ds.create_dimension("pixel", 128)
    >>> _ = ds.create_variable("radiance", "f4", ("tile", "pixel"),
    ...                        data=np.zeros((3, 128), dtype=np.float32))
    """

    def __init__(self) -> None:
        self.dimensions: Dict[str, Dimension] = {}
        self.variables: Dict[str, Variable] = {}
        self.attributes: Dict[str, Union[str, np.ndarray]] = {}

    # -- construction -----------------------------------------------------

    def create_dimension(self, name: str, size: Optional[int]) -> Dimension:
        if name in self.dimensions:
            raise NcFormatError(f"duplicate dimension {name!r}")
        dim = Dimension(name, size)
        if dim.is_record and any(d.is_record for d in self.dimensions.values()):
            raise NcFormatError("classic NetCDF allows a single record dimension")
        self.dimensions[dim.name] = dim
        return dim

    def create_variable(
        self,
        name: str,
        dtype: Union[str, np.dtype, NcType],
        dimensions: Sequence[str],
        data: np.ndarray,
        attributes: Optional[Dict[str, AttrValue]] = None,
    ) -> Variable:
        if name in self.variables:
            raise NcFormatError(f"duplicate variable {name!r}")
        nc_type = dtype if isinstance(dtype, NcType) else dtype_to_nctype(np.dtype(dtype))
        dims = []
        for dim_name in dimensions:
            if dim_name not in self.dimensions:
                raise NcFormatError(f"variable {name!r} references unknown dimension {dim_name!r}")
            dims.append(self.dimensions[dim_name])
        array = np.asarray(data).astype(TYPE_INFO[nc_type].dtype, copy=False)
        expected = tuple(d.size for d in dims)
        if array.ndim != len(dims):
            raise NcFormatError(
                f"variable {name!r}: data has {array.ndim} axes for {len(dims)} dimensions"
            )
        for axis, (dim, size) in enumerate(zip(dims, array.shape)):
            if dim.is_record:
                continue
            if size != dim.size:
                raise NcFormatError(
                    f"variable {name!r} axis {axis}: size {size} != dimension "
                    f"{dim.name!r} ({dim.size})"
                )
        del expected
        variable = Variable(name, nc_type, tuple(dims), array, attributes)
        self._check_record_count(variable)
        self.variables[name] = variable
        return variable

    def _check_record_count(self, new: Variable) -> None:
        if not new.is_record:
            return
        for other in self.variables.values():
            if other.is_record and other.shape[0] != new.shape[0]:
                raise NcFormatError(
                    f"record variable {new.name!r} has {new.shape[0]} records but "
                    f"{other.name!r} has {other.shape[0]}"
                )

    def set_attr(self, name: str, value: AttrValue) -> None:
        self.attributes[_check_name(name)] = normalize_attr(value)

    def get_attr(self, name: str, default: Any = None) -> Any:
        return self.attributes.get(name, default)

    # -- introspection ------------------------------------------------------

    @property
    def record_dimension(self) -> Optional[Dimension]:
        for dim in self.dimensions.values():
            if dim.is_record:
                return dim
        return None

    @property
    def num_records(self) -> int:
        records = [v.shape[0] for v in self.variables.values() if v.is_record]
        return records[0] if records else 0

    def __contains__(self, name: str) -> bool:
        return name in self.variables

    def __getitem__(self, name: str) -> Variable:
        return self.variables[name]

    def describe(self) -> str:
        """A CDL-flavoured text rendering (like ``ncdump -h``)."""
        lines: List[str] = ["netcdf {"]
        lines.append("dimensions:")
        for dim in self.dimensions.values():
            size = "UNLIMITED" if dim.is_record else str(dim.size)
            lines.append(f"    {dim.name} = {size} ;")
        lines.append("variables:")
        for var in self.variables.values():
            dims = ", ".join(var.dim_names)
            lines.append(f"    {var.nc_type.name.lower()} {var.name}({dims}) ;")
            for attr_name in var.attributes:
                lines.append(f"        {var.name}:{attr_name} = ... ;")
        if self.attributes:
            lines.append("// global attributes:")
            for attr_name in self.attributes:
                lines.append(f"    :{attr_name} = ... ;")
        lines.append("}")
        return "\n".join(lines)
