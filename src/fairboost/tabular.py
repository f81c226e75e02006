"""Explicit probability tables over finite domains, and the metrics on them.

The fairness quantities all reduce to ratios of marginal or conditional
probabilities read off a dense table:

    representation rate   RR(P)  = min_{i,j} p[A=a_i] / p[A=a_j]
    statistical rate      SR(P)  = min_{i,j} p[Y=y|A=a_i] / p[Y=y|A=a_j]
    discrimination ctrl   J(P)   = max_{i,j} |p[Y=y|A=a_i] / p[Y=y|A=a_j] - 1|

KL divergence is Sum p * ln(p/q) in nats with the 0*ln 0 := 0 convention and
an explicit absolute-continuity check.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .schema import AttributeSchema, Dataset, _readonly

_SUM_TOL = 1e-12
#: cells per block of ``kl_divergence``'s terms, and the longest run ``_pairwise_sum`` sums
#: by ``np.sum``; at least numpy's 128-value leaf, so its runs are whole subtrees
_KL_BLOCK = 1 << 14


@dataclass(frozen=True, eq=False)
class TabularDensity:
    """A dense joint probability vector in row-major cell order."""

    schema: AttributeSchema
    mass: np.ndarray

    def __post_init__(self) -> None:
        mass = np.asarray(self.mass, dtype=np.float64)
        object.__setattr__(self, "mass", _readonly(_checked_mass(self.schema, mass)))

    def sensitive_marginal(self) -> np.ndarray:
        s = self.schema
        if s.sensitive_index is None:
            raise ValueError("no sensitive attribute")
        other = tuple(i for i in range(len(s.shape)) if i != s.sensitive_index)
        return self.mass.reshape(s.shape).sum(axis=other)

    def target_sensitive_joint(self) -> np.ndarray:
        """p[Y=y, A=a] as a (|Y|, |A|) matrix."""
        s = self.schema
        if s.target_index is None:
            raise ValueError("no target attribute")
        if s.sensitive_index is None:
            raise ValueError("no sensitive attribute")
        cube = self.mass.reshape(s.shape)
        keep = {s.target_index, s.sensitive_index}
        other = tuple(i for i in range(cube.ndim) if i not in keep)
        joint = cube.sum(axis=other)
        if s.target_index > s.sensitive_index:
            joint = joint.T
        return joint

    def sample(self, n: int, seed: int) -> Dataset:
        """Draw n rows by inverting the table's CDF, ``np.cumsum(mass)``, through ``_sample_cdf``."""
        return _sample_cdf(self.schema, np.cumsum(self.mass), n, seed)


def _checked_mass(schema: AttributeSchema, mass: np.ndarray) -> np.ndarray:
    """``mass``, checked to be one finite value >= 0 per cell, summing to 1 within ``_SUM_TOL``."""
    if mass.shape != (schema.n_cells,):
        raise ValueError("mass length must equal the number of cells")
    if not np.isfinite(mass).all() or (mass < 0).any():
        raise ValueError("mass entries must be finite and >= 0")
    if abs(float(mass.sum()) - 1.0) > _SUM_TOL:
        raise ValueError(f"mass must sum to 1 within {_SUM_TOL}")
    return mass


def _sample_cdf(schema: AttributeSchema, cdf: np.ndarray, n: int, seed: int) -> Dataset:
    """Draw n rows from a table's CDF, deterministically for a given seed.

    Row i falls in the first cell whose CDF value exceeds the key
    ``u_i * cdf[-1]`` (clamped to the last cell).  The keys are searched
    in sorted order, so the binary searches walk the CDF in one
    direction; a key's cell does not depend on that order, so row i is
    the one the unsorted search finds.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    keys = np.random.default_rng(seed).random(n) * cdf[-1]
    order = np.argsort(keys)
    cells = np.empty(n, dtype=np.intp)
    cells[order] = np.searchsorted(cdf, keys[order], side="right")
    np.minimum(cells, len(cdf) - 1, out=cells)
    return Dataset(schema, schema.decode(cells))


def check_smoothing(smoothing: float) -> None:
    """The part of the smoothing rule that needs no data: finite and >= 0."""
    if not math.isfinite(smoothing):
        raise ValueError(f"smoothing must be finite, got {smoothing!r}")
    if smoothing < 0:
        raise ValueError("smoothing must be >= 0")


def fit_empirical(dataset: Dataset, smoothing: float = 0.0) -> TabularDensity:
    """Laplace-smoothed empirical table.

    mass[cell] = (count(cell) + smoothing) / (N + smoothing * n_cells),
    where count(cell) is the number of rows in the cell and N the number of
    rows.  The counts are summed as float64 weights straight into the table,
    which is smoothed and divided in place and handed to ``TabularDensity``
    read-only, so the build holds one domain-sized array.  ``smoothing``
    keeps ``check_smoothing``; a total that overflows, and a positive
    smoothing whose share of the total underflows to 0.0 in an empty cell,
    are refused too.
    """
    check_smoothing(smoothing)
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    n_cells = dataset.schema.n_cells
    total = len(dataset) + smoothing * n_cells
    if not math.isfinite(total):
        raise ValueError(f"smoothing {smoothing!r} over {n_cells} cells gives a table total that overflows")
    mass = np.bincount(dataset.cells(), weights=np.ones(len(dataset)), minlength=n_cells)
    mass += smoothing
    mass /= total
    if smoothing and not mass.min() > 0:
        raise ValueError(
            f"smoothing {smoothing!r} over {n_cells} cells gives an empty cell a mass that underflows to 0.0"
        )
    mass.setflags(write=False)
    return TabularDensity(dataset.schema, mass)


def representation_rate(density: TabularDensity) -> float:
    """Minimum ordered-pair ratio of the sensitive marginal.

    Equals 1 exactly when the marginal is uniform; undefined (an error)
    when any group carries zero mass.
    """
    marg = density.sensitive_marginal()
    if (marg <= 0).any():
        raise ValueError("degenerate marginal")
    return float(marg.min() / marg.max())


def _target_conditionals(density: TabularDensity, y: int) -> np.ndarray:
    """p[Y=y | A=a] for every sensitive value a."""
    schema = density.schema
    if schema.target_index is None:
        raise ValueError("no target attribute")
    joint = density.target_sensitive_joint()
    if not (0 <= y < joint.shape[0]):
        raise ValueError(f"target value {y} out of range")
    group = joint.sum(axis=0)
    if (group <= 0).any():
        raise ValueError("degenerate marginal")
    cond = joint[y] / group
    if (cond <= 0).any():
        raise ValueError("degenerate conditional")
    return cond


def statistical_rate(density: TabularDensity, y: int) -> float:
    """Minimum ordered-pair ratio of p[Y=y|A=a] across sensitive groups."""
    cond = _target_conditionals(density, y)
    return float(cond.min() / cond.max())


def discrimination_control(density: TabularDensity, y: int) -> float:
    """Maximum ordered-pair deviation |p[Y=y|A=a_i]/p[Y=y|A=a_j] - 1|.

    Over all ordered pairs the deviation is extremal at the largest ratio
    max/min, so the maximum equals max/min - 1.
    """
    cond = _target_conditionals(density, y)
    return float(cond.max() / cond.min() - 1.0)


def kl_divergence(pm: np.ndarray, qm: np.ndarray) -> float:
    """KL(p, q) in nats from two aligned mass vectors; q's support must cover p's.

    ``pm`` and ``qm`` are whole tables' masses (``TabularDensity.mass``), or
    both restricted to the same cells, in the same order: the sum runs over
    the cells where ``pm > 0``, so dropping cells where p is 0 leaves the
    result unchanged bit for bit.  The terms are made ``_KL_BLOCK`` cells at
    a time, each with the bits of the whole-array ``p * (log p - log q)``,
    and ``_pairwise_sum`` adds them as they come with the bits of that
    expression's ``sum()``, so no buffer of p's support size is held.
    """
    pm, qm = np.asarray(pm, dtype=np.float64), np.asarray(qm, dtype=np.float64)
    if pm.ndim != 1 or pm.shape != qm.shape:
        raise ValueError(f"mass vectors are not aligned: shapes {pm.shape} and {qm.shape}")
    support = pm > 0

    def terms():
        for start in range(0, len(pm), _KL_BLOCK):
            cells = slice(start, start + _KL_BLOCK)
            p_b, q_b = pm[cells][support[cells]], qm[cells][support[cells]]
            if (q_b <= 0).any():
                raise ValueError("absolute continuity violated")
            out = np.log(p_b)
            out -= np.log(q_b, out=q_b)
            out *= p_b
            yield out

    return max(_pairwise_sum(terms(), np.count_nonzero(support)), 0.0)


def _pairwise_sum(blocks: Iterator[np.ndarray], n: int) -> float:
    """``np.sum`` of the concatenated ``blocks``, n float64 values in all, bit for bit.

    numpy's ``add.reduce`` over a contiguous float64 array sums pairwise
    (Higham, SIAM J. Sci. Comput. 1993): a run of more than 128 values
    splits at ``n//2 - (n//2) % 8`` and its two halves' sums are added.
    This walks the same tree, sums each run of at most ``_KL_BLOCK`` values
    by ``np.sum`` over its own contiguous copy, and adds the runs' sums in
    the tree's order, so it holds at most ``_KL_BLOCK`` values at once.  A
    run's ``np.sum`` adds its tree to 0.0, which only turns a -0.0 sum into
    0.0, and the whole array's ``np.sum`` does the same.
    """
    run = np.empty(min(n, _KL_BLOCK))
    pending = np.empty(0)

    def tree(m: int) -> float:
        nonlocal pending
        if m > _KL_BLOCK:
            half = m // 2 - (m // 2) % 8
            return tree(half) + tree(m - half)
        filled = 0
        while filled < m:
            if not len(pending):
                pending = next(blocks)
            take = pending[: m - filled]
            run[filled : filled + len(take)] = take
            filled += len(take)
            pending = pending[len(take) :]
        return float(run[:m].sum())

    return tree(n)
