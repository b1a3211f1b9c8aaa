"""Published data contracts for the workflow's file interfaces.

Section V-A: "By publishing clear input and output schemas for each
workflow component, we aim to minimize errors and support the creation of
reliable, reusable workflows."  This module is that publication: a
machine-checkable schema for each NetCDF file class the stages exchange
(granule products in, tile files between preprocess and inference,
labelled files out), plus validators the stages call at their boundaries
so a malformed file fails *at the interface*, with a message naming the
violated clause, instead of deep inside NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netcdf import Dataset

__all__ = [
    "ContractViolation",
    "VariableSpec",
    "FileContract",
    "GRANULE_MOD02",
    "GRANULE_MOD03",
    "GRANULE_MOD06",
    "TILE_FILE",
    "LABELLED_TILE_FILE",
]


class ContractViolation(ValueError):
    """A file does not satisfy its published contract."""


@dataclass(frozen=True)
class VariableSpec:
    """One required variable: name, dtype kind, dimension names."""

    name: str
    kind: str                      # numpy dtype kind: 'f', 'i', ...
    dimensions: Tuple[str, ...]
    min_value: Optional[float] = None
    max_value: Optional[float] = None

    def check(self, ds: Dataset, contract: str) -> None:
        if self.name not in ds:
            raise ContractViolation(f"{contract}: missing variable {self.name!r}")
        var = ds[self.name]
        if var.data.dtype.kind != self.kind:
            raise ContractViolation(
                f"{contract}: variable {self.name!r} has dtype kind "
                f"{var.data.dtype.kind!r}, contract requires {self.kind!r}"
            )
        if var.dim_names != self.dimensions:
            raise ContractViolation(
                f"{contract}: variable {self.name!r} has dimensions "
                f"{var.dim_names}, contract requires {self.dimensions}"
            )
        if var.data.size:
            if self.min_value is not None and float(var.data.min()) < self.min_value:
                raise ContractViolation(
                    f"{contract}: {self.name!r} contains values below "
                    f"{self.min_value} (min {float(var.data.min()):.4g})"
                )
            if self.max_value is not None and float(var.data.max()) > self.max_value:
                raise ContractViolation(
                    f"{contract}: {self.name!r} contains values above "
                    f"{self.max_value} (max {float(var.data.max()):.4g})"
                )


@dataclass(frozen=True)
class FileContract:
    """The published schema of one file class."""

    name: str
    required_dimensions: Tuple[str, ...]
    variables: Tuple[VariableSpec, ...]
    required_attributes: Tuple[str, ...] = ()
    record_dimension: Optional[str] = None

    def validate(self, ds: Dataset) -> None:
        """Raise :class:`ContractViolation` on the first violated clause."""
        for dim in self.required_dimensions:
            if dim not in ds.dimensions:
                raise ContractViolation(f"{self.name}: missing dimension {dim!r}")
        if self.record_dimension is not None:
            record = ds.record_dimension
            if record is None or record.name != self.record_dimension:
                raise ContractViolation(
                    f"{self.name}: record dimension must be {self.record_dimension!r}"
                )
        for spec in self.variables:
            spec.check(ds, self.name)
        for attr in self.required_attributes:
            if ds.get_attr(attr) is None:
                raise ContractViolation(f"{self.name}: missing global attribute {attr!r}")

    def describe(self) -> str:
        """Human-readable publication of the contract."""
        lines = [f"contract {self.name}:"]
        for dim in self.required_dimensions:
            lines.append(f"  dimension {dim}")
        for spec in self.variables:
            bounds = ""
            if spec.min_value is not None or spec.max_value is not None:
                bounds = f" in [{spec.min_value}, {spec.max_value}]"
            lines.append(
                f"  variable {spec.name}({', '.join(spec.dimensions)}): "
                f"kind '{spec.kind}'{bounds}"
            )
        for attr in self.required_attributes:
            lines.append(f"  attribute :{attr}")
        return "\n".join(lines)


GRANULE_MOD02 = FileContract(
    name="MOD021KM granule",
    required_dimensions=("band", "line", "pixel"),
    variables=(VariableSpec("radiance", "f", ("band", "line", "pixel")),),
    required_attributes=("granule", "product", "acquisition_date", "band_list"),
)

GRANULE_MOD03 = FileContract(
    name="MOD03 granule",
    required_dimensions=("line", "pixel"),
    variables=(
        VariableSpec("latitude", "f", ("line", "pixel"), min_value=-90.0, max_value=90.0),
        VariableSpec("longitude", "f", ("line", "pixel"), min_value=-180.0, max_value=180.0),
    ),
    required_attributes=("granule", "product"),
)

GRANULE_MOD06 = FileContract(
    name="MOD06_L2 granule",
    required_dimensions=("line", "pixel"),
    variables=(
        VariableSpec("cloud_mask", "i", ("line", "pixel"), min_value=0, max_value=1),
        VariableSpec("cloud_optical_thickness", "f", ("line", "pixel"), min_value=0.0),
        VariableSpec("cloud_top_pressure", "f", ("line", "pixel"), min_value=0.0,
                     max_value=1100.0),
        VariableSpec("land_mask", "i", ("line", "pixel"), min_value=0, max_value=1),
    ),
    required_attributes=("granule", "product"),
)

TILE_FILE = FileContract(
    name="tile file",
    required_dimensions=("tile", "y", "x", "band"),
    record_dimension="tile",
    variables=(
        VariableSpec("radiance", "f", ("tile", "y", "x", "band")),
        VariableSpec("latitude", "f", ("tile",), min_value=-90.0, max_value=90.0),
        VariableSpec("longitude", "f", ("tile",), min_value=-180.0, max_value=180.0),
        VariableSpec("cloud_fraction", "f", ("tile",), min_value=0.0, max_value=1.0),
        VariableSpec("label", "i", ("tile",), min_value=-1),
    ),
    required_attributes=("source_granule", "num_tiles"),
)

LABELLED_TILE_FILE = FileContract(
    name="labelled tile file",
    required_dimensions=TILE_FILE.required_dimensions,
    record_dimension="tile",
    variables=tuple(
        VariableSpec("label", "i", ("tile",), min_value=0) if spec.name == "label" else spec
        for spec in TILE_FILE.variables
    ),
    required_attributes=TILE_FILE.required_attributes + ("aicca_classes",),
)

_PRODUCT_CONTRACTS: Dict[str, FileContract] = {
    "021KM": GRANULE_MOD02,
    "03": GRANULE_MOD03,
    "06_L2": GRANULE_MOD06,
}
