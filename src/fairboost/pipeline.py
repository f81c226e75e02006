"""Data ingestion and experiment plumbing.

CSV files come in with a header row; declared columns are coded into finite
cells: categorical columns by first-appearance order, continuous columns by
equal-width binning over the observed range, with the edges recorded in the
schema so later files can be coded identically (out-of-range values clamp to
the edge bins, unknown categories are errors).

The synthetic generator draws the two-group Gaussian mixture through the
inverse normal CDF applied to uniforms from a seeded PCG64 generator; the
method is part of the reproducibility contract, so identical params and seed
give identical samples on any platform.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtri

from .boosted import InitialDensity
from .schema import Attribute, AttributeSchema, Dataset
from .tabular import fit_empirical

FEATURE = "feature"
SENSITIVE = "sensitive"
TARGET = "target"
IGNORE = "ignore"

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"

# numeric columns with few distinct integer levels read as categorical codes
_AUTO_CATEGORICAL_MAX_LEVELS = 12


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    role: str = FEATURE
    kind: str = CATEGORICAL
    bins: int = 50

    def __post_init__(self) -> None:
        if self.role not in (FEATURE, SENSITIVE, TARGET, IGNORE):
            raise ValueError(f"unknown column role {self.role!r}")
        if self.kind not in (CATEGORICAL, CONTINUOUS):
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.kind == CONTINUOUS and self.bins < 1:
            raise ValueError("bins must be >= 1")


@dataclass(frozen=True)
class CsvSpec:
    path: str
    columns: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        roles = [c.role for c in self.columns]
        if roles.count(SENSITIVE) != 1:
            raise ValueError("exactly one sensitive column required")
        if roles.count(TARGET) > 1:
            raise ValueError("at most one target column allowed")
        for col in self.columns:
            if col.role in (SENSITIVE, TARGET) and col.kind != CATEGORICAL:
                raise ValueError(f"{col.role} column must be categorical")


def _read_rows(path: str) -> tuple[list, list]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty file") from None
        rows = list(reader)
    return header, rows


def _cell(raw_rows: list, col_pos: int, name: str) -> list:
    out = []
    for i, row in enumerate(raw_rows):
        if col_pos >= len(row) or row[col_pos] == "":
            raise ValueError(f"missing value in column {name!r} at row {i}")
        out.append(row[col_pos])
    return out


def _parse_floats(values: Sequence[str], name: str) -> np.ndarray:
    out = np.empty(len(values))
    for i, v in enumerate(values):
        try:
            out[i] = float(v)
        except ValueError:
            raise ValueError(f"non-numeric value in column {name!r} at row {i}") from None
        if not math.isfinite(out[i]):
            raise ValueError(f"missing value in column {name!r} at row {i}")
    return out


def _equal_width_edges(lo: float, hi: float, bins: int) -> np.ndarray:
    if hi == lo:
        lo, hi = lo - 0.5, lo + 0.5
    return np.linspace(lo, hi, bins + 1)


def _bin_codes(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    # lower edge inclusive; values outside the range clamp to the edge bins
    return np.clip(np.searchsorted(edges, values, side="right") - 1, 0, len(edges) - 2)


def load_csv(spec: CsvSpec) -> tuple[Dataset, AttributeSchema]:
    """Read and code a training file, deriving the schema from its contents."""
    header, raw_rows = _read_rows(spec.path)
    positions = {}
    for col in spec.columns:
        if col.role == IGNORE:
            continue
        if col.name not in header:
            raise ValueError(f"column {col.name!r} not found")
        positions[col.name] = header.index(col.name)

    attributes = []
    codes = []
    sensitive_index = target_index = None
    for col in spec.columns:
        if col.role == IGNORE:
            continue
        values = _cell(raw_rows, positions[col.name], col.name)
        if col.kind == CATEGORICAL:
            categories = []
            seen = {}
            for v in values:
                if v not in seen:
                    seen[v] = len(categories)
                    categories.append(v)
            codes.append(np.array([seen[v] for v in values], dtype=np.int64))
            attributes.append(Attribute(col.name, len(categories), categories=tuple(categories)))
        else:
            floats = _parse_floats(values, col.name)
            edges = _equal_width_edges(float(floats.min()), float(floats.max()), col.bins)
            codes.append(_bin_codes(floats, edges))
            attributes.append(Attribute(col.name, col.bins, bin_edges=tuple(float(e) for e in edges)))
        if col.role == SENSITIVE:
            sensitive_index = len(attributes) - 1
        elif col.role == TARGET:
            target_index = len(attributes) - 1

    schema = AttributeSchema(tuple(attributes), sensitive_index=sensitive_index, target_index=target_index)
    rows = np.stack(codes, axis=1) if raw_rows else np.empty((0, len(attributes)), dtype=np.int64)
    return Dataset(schema, rows), schema


def load_csv_with_schema(path: str, schema: AttributeSchema) -> Dataset:
    """Code a new file against an existing schema (the model's view of the
    world): stored categories must cover every label, stored bin edges clamp."""
    header, raw_rows = _read_rows(path)
    codes = []
    for attr in schema.attributes:
        if attr.name not in header:
            raise ValueError(f"column {attr.name!r} not found")
        values = _cell(raw_rows, header.index(attr.name), attr.name)
        if attr.is_ordinal:
            floats = _parse_floats(values, attr.name)
            codes.append(_bin_codes(floats, np.asarray(attr.bin_edges)))
        else:
            lookup = {c: i for i, c in enumerate(attr.categories or ())}
            col = np.empty(len(values), dtype=np.int64)
            for i, v in enumerate(values):
                if v not in lookup:
                    raise ValueError(f"unseen category {v!r} in column {attr.name!r} at row {i}")
                col[i] = lookup[v]
            codes.append(col)
    rows = np.stack(codes, axis=1) if raw_rows else np.empty((0, len(schema.attributes)), dtype=np.int64)
    return Dataset(schema, rows)


def infer_csv_spec(
    path: str,
    sensitive: str,
    target: Optional[str] = None,
    bins: int = 50,
    ignore: Sequence[str] = (),
) -> CsvSpec:
    """Build a CsvSpec by sniffing the file.

    Columns whose values all parse as floats become continuous, except when
    they hold a handful of integer levels, which read as categorical codes.
    The sensitive and target columns are always categorical.
    """
    header, raw_rows = _read_rows(path)
    for name in (sensitive, *((target,) if target else ()), *ignore):
        if name not in header:
            raise ValueError(f"column {name!r} not found")
    columns = []
    for pos, name in enumerate(header):
        if name in ignore:
            columns.append(ColumnSpec(name, role=IGNORE))
            continue
        role = SENSITIVE if name == sensitive else TARGET if name == target else FEATURE
        kind = CATEGORICAL
        if role == FEATURE:
            values = _cell(raw_rows, pos, name)
            try:
                floats = _parse_floats(values, name)
            except ValueError:
                floats = None
            if floats is not None:
                levels = np.unique(floats)
                integral = np.all(levels == np.round(levels))
                if not (integral and len(levels) <= _AUTO_CATEGORICAL_MAX_LEVELS):
                    kind = CONTINUOUS
        columns.append(ColumnSpec(name, role=role, kind=kind, bins=bins))
    return CsvSpec(path, tuple(columns))


@dataclass(frozen=True)
class MixtureParams:
    """Two-group Gaussian mixture: a = 1 with probability s, x ~ N(mu_a, sigma_a)."""

    mu: tuple = (-0.5, 0.7)
    sigma: tuple = (0.4, 0.2)
    s: float = 0.9
    n: int = 5000
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.mu) != 2 or len(self.sigma) != 2:
            raise ValueError("mu and sigma need one value per group")
        if min(self.sigma) <= 0:
            raise ValueError("sigma must be > 0")
        if not (0.0 <= self.s <= 1.0):
            raise ValueError("s must be in [0, 1]")
        if self.n < 1:
            raise ValueError("n must be >= 1")


def generate_mixture(params: MixtureParams) -> tuple[np.ndarray, np.ndarray]:
    """Draw (x, a) samples; a first, then x through the inverse normal CDF."""
    rng = np.random.default_rng(params.seed)
    a = (rng.random(params.n) < params.s).astype(np.int64)
    u = np.clip(rng.random(params.n), 1e-16, 1.0 - 1e-16)
    z = ndtri(u)
    mu = np.asarray(params.mu)[a]
    sigma = np.asarray(params.sigma)[a]
    return mu + sigma * z, a


def write_mixture_csv(x: np.ndarray, a: np.ndarray, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("x,a\n")
        for xi, ai in zip(x, a):
            fh.write(f"{float(xi)!r},{int(ai)}\n")


def kfold(dataset: Dataset, k: int, seed: int) -> list:
    """Disjoint, exhaustive, shuffled (train, test) splits."""
    n = len(dataset)
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n:
        raise ValueError("k exceeds dataset size")
    perm = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(perm, k)
    splits = []
    for i in range(k):
        test_idx = np.sort(folds[i])
        train_idx = np.sort(np.concatenate([folds[j] for j in range(k) if j != i]))
        splits.append((dataset.subset(train_idx), dataset.subset(test_idx)))
    return splits


def build_initial(train: Dataset, schema: AttributeSchema, smoothing: float) -> InitialDensity:
    """Per-group empirical conditionals under the exactly uniform marginal."""
    InitialDensity.check_schema(schema)
    x_schema = schema.x_subschema()
    x_rows = train.x_rows()
    sensitive = train.sensitive_codes()
    cond = []
    for a in range(schema.sensitive.cardinality):
        mask = sensitive == a
        if not mask.any():
            raise ValueError("unrepresented sensitive value")
        cond.append(fit_empirical(Dataset(x_schema, x_rows[mask]), smoothing).mass)
    return InitialDensity(schema, np.stack(cond))
