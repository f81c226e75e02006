"""Finite tabular domains: attribute schemas and coded datasets.

A domain is an ordered list of attributes, each with a finite cardinality.
Cells are addressed by a row-major index over the attribute cardinalities,
so ``cell = sum_i code_i * prod_{j>i} card_j``.  One attribute is designated
sensitive; an optional second one is the class attribute used by the
statistical-rate metrics.  A schema's stored form in a model is
``serialize``'s alone.

A schema is refused when built if its cell count, taken exactly, exceeds
``MAX_CELLS``, the most cells one float64 table can index.  Every coordinate
input is a matrix: ``encode`` takes ``(n, n_attributes)`` rows and
``Dataset`` an ``(n, n_attributes)`` array, and neither reshapes a vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: the most cells a table of one float64 per cell can hold: numpy caps an array at intp-max bytes
MAX_CELLS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


@dataclass(frozen=True)
class Attribute:
    """One column of the domain.

    ``categories`` maps integer codes back to the raw category labels for
    columns that were label-encoded.  ``bin_edges`` holds the ``cardinality+1``
    equal-width edges, finite and non-decreasing, for columns that were
    discretized from real values; its presence is what marks an attribute as
    ordinal for threshold splits.
    """

    name: str
    cardinality: int
    categories: Optional[tuple[str, ...]] = None
    bin_edges: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be nonempty")
        if self.cardinality < 1:
            raise ValueError(f"attribute {self.name!r}: cardinality must be >= 1")
        if self.categories is not None and len(self.categories) != self.cardinality:
            raise ValueError(f"attribute {self.name!r}: categories do not match cardinality")
        if self.bin_edges is not None:
            if len(self.bin_edges) != self.cardinality + 1:
                raise ValueError(f"attribute {self.name!r}: need cardinality+1 bin edges")
            # not strictly increasing: linspace repeats an edge on a range narrower than its bins in ulps
            edges = np.array(self.bin_edges, dtype=np.float64)
            if not (np.isfinite(edges).all() and (edges[1:] >= edges[:-1]).all()):
                raise ValueError(f"attribute {self.name!r}: bin edges must be finite and non-decreasing")

    @property
    def is_ordinal(self) -> bool:
        return self.bin_edges is not None


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered attributes plus the sensitive / target designations.

    ``sensitive_index`` may be None for pure-feature subdomains (the
    per-group conditionals live on such a schema); every fairness metric
    requires it to be set.
    """

    attributes: tuple[Attribute, ...]
    sensitive_index: Optional[int]
    target_index: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be distinct")
        n = len(self.attributes)
        if self.sensitive_index is not None and not (0 <= self.sensitive_index < n):
            raise ValueError("sensitive_index out of range")
        if self.target_index is not None:
            if not (0 <= self.target_index < n):
                raise ValueError("target_index out of range")
            if self.target_index == self.sensitive_index:
                raise ValueError("target_index must differ from sensitive_index")
        if self.n_cells > MAX_CELLS:
            raise ValueError(
                f"the domain has {self.n_cells} cells, more than one float64 table can index ({MAX_CELLS})"
            )

    # -- geometry -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.cardinality for a in self.attributes)

    @property
    def n_cells(self) -> int:
        return math.prod(map(int, self.shape))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @property
    def sensitive(self) -> Attribute:
        if self.sensitive_index is None:
            raise ValueError("no sensitive attribute")
        return self.attributes[self.sensitive_index]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown attribute {name!r}") from None

    # -- cell coding ----------------------------------------------------

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """Row-major cell index for each row of an (n, n_attributes) coordinate matrix."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2:
            raise ValueError(f"coordinate rows must be an (n, n_attributes) matrix, got shape {rows.shape}")
        return np.ravel_multi_index(tuple(rows.T), self.shape)

    def decode(self, cells: np.ndarray) -> np.ndarray:
        """Coordinate rows for each row-major cell index."""
        coords = np.unravel_index(np.asarray(cells, dtype=np.int64), self.shape)
        return np.stack(coords, axis=-1).astype(np.int64)

    def all_cells(self) -> np.ndarray:
        """Coordinate matrix enumerating every cell in row-major order."""
        return self.decode(np.arange(self.n_cells))

    # -- the feature subdomain (everything but the sensitive attribute) --

    @property
    def x_indices(self) -> tuple[int, ...]:
        if self.sensitive_index is None:
            return tuple(range(len(self.attributes)))
        return tuple(i for i in range(len(self.attributes)) if i != self.sensitive_index)

    def x_subschema(self) -> "AttributeSchema":
        """Schema over the non-sensitive attributes, order preserved, with no
        sensitive or target designation."""
        return AttributeSchema(tuple(self.attributes[i] for i in self.x_indices), sensitive_index=None)


def _readonly(arr: np.ndarray) -> np.ndarray:
    if arr.flags.writeable or not arr.flags.owndata:  # adopt only a read-only array that owns its data
        arr = np.array(arr, copy=True)
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """Coded sample rows on a schema."""

    schema: AttributeSchema
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.ndim != 2 or (rows.size and rows.shape[1] != len(self.schema.attributes)):
            raise ValueError("rows must be (n, n_attributes)")
        if rows.size:
            upper = np.array(self.schema.shape, dtype=np.int64)
            if (rows < 0).any() or (rows >= upper[None, :]).any():
                raise ValueError("row code out of range for schema")
        object.__setattr__(self, "rows", _readonly(rows))

    def __len__(self) -> int:
        return len(self.rows)

    def cells(self) -> np.ndarray:
        return self.schema.encode(self.rows)

    def x_rows(self) -> np.ndarray:
        return self.rows[:, list(self.schema.x_indices)]

    def sensitive_codes(self) -> np.ndarray:
        if self.schema.sensitive_index is None:
            raise ValueError("no sensitive attribute")
        return self.rows[:, self.schema.sensitive_index]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.schema, self.rows[np.asarray(idx)])
