"""Data ingestion and experiment plumbing.

CSV files come in with a header row, and no data row may hold more fields
than the header.  ``infer_csv_spec`` reads and parses a training file once,
derives its schema from the parsed columns (categorical columns keep their
labels in first-appearance order, continuous columns get equal-width bin
edges over the observed range) and codes those same columns into the
spec's dataset.  Every file is coded column by column through one coder,
``_code_column``: the training file inside ``infer_csv_spec``, every later
file by ``load_csv_with_schema`` against a stored schema, so eval rows land
in the cells fit used (out-of-range values clamp to the edge bins, unknown
categories are errors).

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
from .schema import MAX_CELLS, Attribute, AttributeSchema, Dataset
from .tabular import fit_empirical

#: numeric columns with at most this many distinct integer levels are categorical
_AUTO_CATEGORICAL_MAX_LEVELS = 12
#: the mixture's uniforms are clipped to [_U_MIN, 1 - _U_MIN], so ndtri of these two bounds every normal draw
_U_MIN = 1e-16


@dataclass(frozen=True)
class CsvSpec:
    """A training CSV file, the schema derived from it, and its rows coded
    with that schema."""

    path: str
    schema: AttributeSchema
    dataset: Dataset


def _read_rows(path: str) -> tuple[list, list]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty file") from None
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path!r} has a header and no data rows")
    if max(map(len, rows)) > len(header):
        i = next(i for i, row in enumerate(rows) if len(row) > len(header))
        raise ValueError(f"row {i} has {len(rows[i])} fields, the header has {len(header)}")
    return header, rows


def _cell(raw_rows: list, col_pos: int, name: str) -> list:
    out = []
    for i, row in enumerate(raw_rows):
        if col_pos >= len(row) or row[col_pos] == "":
            raise ValueError(f"missing value in column {name!r} at row {i}")
        out.append(row[col_pos])
    return out


class _NonNumeric(ValueError):
    """A value that does not parse as a number: the column is not numeric."""


def _parse_floats(values: Sequence[str], name: str) -> np.ndarray:
    """The column as finite floats.  A value that is not a number is
    reported first (as ``_NonNumeric``, so inference reads the column as
    labels), then a NaN or infinity; each error names the column and row."""
    try:
        out = np.fromiter(map(float, values), dtype=np.float64, count=len(values))
    except ValueError:
        for i, v in enumerate(values):
            try:
                float(v)
            except ValueError:
                raise _NonNumeric(f"non-numeric value in column {name!r} at row {i}") from None
        raise
    bad = ~np.isfinite(out)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"non-finite value {values[i]!r} in column {name!r} at row {i}")
    return out


def _equal_width_edges(lo: float, hi: float, bins: int) -> np.ndarray:
    if hi == lo:
        lo, hi = lo - 0.5, lo + 0.5
    return np.linspace(lo, hi, bins + 1)


def _bin_codes(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    # lower edge inclusive; values outside the range clamp to the edge bins
    return np.clip(np.searchsorted(edges, values, side="right") - 1, 0, len(edges) - 2)


def _code_column(attr: Attribute, values: Sequence[str], floats: Optional[np.ndarray] = None) -> np.ndarray:
    """The codes of one column's values under ``attr``: bin indices of an
    ordinal attribute (``floats``, the values already parsed, when given),
    category indices of the rest, where an unseen label is an error."""
    if attr.is_ordinal:
        if floats is None:
            floats = _parse_floats(values, attr.name)
        return _bin_codes(floats, np.asarray(attr.bin_edges))
    lookup = {c: i for i, c in enumerate(attr.categories or ())}
    col = np.array([lookup.get(v, -1) for v in values], dtype=np.int64)
    if (col < 0).any():
        i = int(np.argmax(col < 0))
        raise ValueError(f"unseen category {values[i]!r} in column {attr.name!r} at row {i}")
    return col


def _continuous_values(values: Sequence[str], name: str) -> Optional[np.ndarray]:
    """The column's values when it reads as continuous: all numbers, and not
    a handful of integer levels (those read as categorical codes).  A
    numeric column holding a NaN or infinity is an error."""
    try:
        floats = _parse_floats(values, name)
    except _NonNumeric:
        return None
    levels = np.unique(floats)
    if np.all(levels == np.round(levels)) and len(levels) <= _AUTO_CATEGORICAL_MAX_LEVELS:
        return None
    return floats


def infer_csv_spec(
    path: str,
    sensitive: str,
    target: Optional[str] = None,
    bins: int = 50,
    ignore: Sequence[str] = (),
) -> CsvSpec:
    """Derive a training file's schema from its contents, and code its rows.

    Every column not ignored becomes an attribute, in header order.  A
    feature column whose values all parse as floats is cut into
    ``bins`` equal-width bins over its observed range, unless it holds a
    handful of integer levels; a NaN or infinity in it is an error, and so
    is a range too wide for its width to be a float.  Every other column,
    the sensitive and target ones included, is categorical, with categories
    in first-appearance order; the sensitive and target columns need at
    least two.  The file is read and parsed once: each column is coded as
    soon as its attribute is known, with the values already parsed, and
    the spec carries the resulting dataset.
    """
    if target == sensitive:
        raise ValueError(f"column {sensitive!r} cannot be both sensitive and target")
    for name, role in ((sensitive, "sensitive"), (target, "target")):
        if name in ignore:
            raise ValueError(f"column {name!r} cannot be both {role} and ignored")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if bins > MAX_CELLS:  # a binned column alone makes that many cells
        raise ValueError(f"bins must be at most {MAX_CELLS}, the most cells one float64 table can index, got {bins}")
    header, raw_rows = _read_rows(path)
    for name in (sensitive, *((target,) if target else ()), *ignore):
        if name not in header:
            raise ValueError(f"column {name!r} not found")
    attributes, codes = [], []
    for pos, name in enumerate(header):
        if name in ignore:
            continue
        values = _cell(raw_rows, pos, name)
        floats = None if name in (sensitive, target) else _continuous_values(values, name)
        if floats is None:
            categories = tuple(dict.fromkeys(values))
            if name == sensitive and len(categories) < 2:
                raise ValueError(f"sensitive column {sensitive!r} needs at least 2 values, got {len(categories)}")
            if name == target and len(categories) < 2:
                raise ValueError(f"target column {target!r} needs at least 2 classes, got {len(categories)}")
            attr = Attribute(name, len(categories), categories=categories)
        else:
            lo, hi = float(floats.min()), float(floats.max())
            if not math.isfinite(hi - lo):
                raise ValueError(f"column {name!r}: range [{lo:g}, {hi:g}] is too wide to bin")
            edges = _equal_width_edges(lo, hi, bins)
            attr = Attribute(name, bins, bin_edges=tuple(float(e) for e in edges))
        attributes.append(attr)
        codes.append(_code_column(attr, values, floats))
    names = [a.name for a in attributes]
    schema = AttributeSchema(
        tuple(attributes),
        sensitive_index=names.index(sensitive),
        target_index=names.index(target) if target else None,
    )
    return CsvSpec(path, schema, Dataset(schema, np.stack(codes, axis=1)))


def load_csv(spec: CsvSpec) -> tuple[Dataset, AttributeSchema]:
    """The training file's coded rows and the schema derived from it."""
    return spec.dataset, spec.schema


def load_csv_with_schema(path: str, schema: AttributeSchema) -> Dataset:
    """Code a file against a schema (the model's view of the world): stored
    categories must cover every label, stored bin edges clamp."""
    header, raw_rows = _read_rows(path)
    codes = []
    for attr in schema.attributes:
        if attr.name not in header:
            raise ValueError(f"column {attr.name!r} not found")
        codes.append(_code_column(attr, _cell(raw_rows, header.index(attr.name), attr.name)))
    return Dataset(schema, np.stack(codes, axis=1))


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
        for name, values in (("mu", self.mu), ("sigma", self.sigma)):
            for v in values:
                if not math.isfinite(v):
                    raise ValueError(f"{name} must be finite, got {v!r}")
        if min(self.sigma) <= 0:
            raise ValueError("sigma must be > 0")
        for a, (mu, sigma) in enumerate(zip(self.mu, self.sigma)):
            for z in ndtri((_U_MIN, 1.0 - _U_MIN)).tolist():  # x = mu + sigma * z is monotone in z
                if not math.isfinite(mu + sigma * z):
                    raise ValueError(f"group {a}'s draws overflow: mu {mu!r} + sigma {sigma!r} * {z!r} is not finite")
        if not (0.0 <= self.s <= 1.0):
            raise ValueError("s must be in [0, 1]")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n > MAX_CELLS:  # each draw fills float64 arrays of n values
            raise ValueError(
                f"n must be at most {MAX_CELLS}, the most values one float64 array can index, got {self.n}"
            )
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def generate_mixture(params: MixtureParams) -> tuple[np.ndarray, np.ndarray]:
    """Draw (x, a) samples; a first, then x through the inverse normal CDF."""
    rng = np.random.default_rng(params.seed)
    a = (rng.random(params.n) < params.s).astype(np.int64)
    u = np.clip(rng.random(params.n), _U_MIN, 1.0 - _U_MIN)
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
    """Disjoint, exhaustive, shuffled (train, test) splits; each training
    part must hold every sensitive value, as ``build_initial`` needs."""
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
        train = dataset.subset(train_idx)
        counts = np.bincount(train.sensitive_codes(), minlength=dataset.schema.sensitive.cardinality)
        if not counts.all():
            label = _sensitive_label(dataset.schema, int(np.argmin(counts)))
            raise ValueError(f"fold {i}: unrepresented sensitive value {label!r} in the fold's training part")
        splits.append((train, dataset.subset(test_idx)))
    return splits


def _sensitive_label(schema: AttributeSchema, code: int):
    """The sensitive value ``code`` as the data spell it: its category, or the code itself."""
    categories = schema.sensitive.categories
    return code if categories is None else categories[code]


def build_initial(train: Dataset, schema: AttributeSchema, smoothing: float) -> InitialDensity:
    """Per-group empirical conditionals under the exactly uniform marginal."""
    InitialDensity.check_schema(schema)
    x_schema = schema.x_subschema()
    x_rows = train.x_rows()
    sensitive = train.sensitive_codes()
    # one (|A|, n_x) buffer, filled row by row and adopted read-only by the anchor
    cond = np.empty((schema.sensitive.cardinality, x_schema.n_cells))
    for a in range(len(cond)):
        mask = sensitive == a
        if not mask.any():
            raise ValueError(f"unrepresented sensitive value {_sensitive_label(schema, a)!r}")
        cond[a] = fit_empirical(Dataset(x_schema, x_rows[mask]), smoothing).mass
    cond.setflags(write=False)
    return InitialDensity(schema, cond)
