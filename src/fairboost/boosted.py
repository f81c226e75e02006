"""The boosted exponential-family density stack.

Starting from an anchor Q0 with a perfectly uniform sensitive marginal, each
round multiplies the density by exp(theta_t * c_t(x)) and renormalizes:

    Q_t(x, a) = Q_{t-1}(x, a) * exp(theta_t * c_t(x)) / Z_t

with the per-group normalizer Z_t(a) = E_{q_{t-1}(.|a)}[exp(theta_t c_t(x))]
and Z_t = Sum_a q_{t-1}(a) Z_t(a).  Because every classifier depends only on
the non-sensitive coordinates, the normalizers carry all the fairness
information:

    q_t(a)          = q_0(a) * Prod_k Z_k(a) / Z_k
    RR(Q_t) ratios  = Prod_k Z_k(a_i) / Z_k(a_j)

and expectations reduce to reweighted anchor expectations:

    E_{Q_t}[g] = E_{Q_0}[ Prod_k exp(theta_k c_k(x)) / Z_k * g(x, a) ].

The stack therefore holds only the anchor's per-group conditionals, one
cumulative tilt Sum_k theta_k c_k(x) over the feature cells, and the running
sums of log Z_k and log Z_k(a).  Expectations take a vectorized
``g(rows) -> array`` that maps a coordinate matrix to one value per row.

Normalizers are computed exactly (full log-space sums over the discrete
domain), frozen when a round is appended, and serialized with the model;
evaluation never recomputes them.  Each domain pass takes the anchor's logs as
it goes: the joint table is written through a group-major view of its cube,
and a round's normalizer terms fill one row buffer group by group, each cell
taking the operations, and so the bits, of the group-major expressions.

A classifier here is any object with a ``c_bound`` attribute and a method
``domain_scores(x_schema) -> array`` giving its score on every cell of the
non-sensitive subdomain in row-major order, a fresh array per call; trained
trees satisfy this.  A fit paints each tree once (``_checked_scores``), reads
its sample margins from the paint, and ``extended`` consumes it in place.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .schema import AttributeSchema, Dataset, _readonly
from .tabular import _SUM_TOL, TabularDensity


class InitialDensity:
    """The fair anchor: per-group conditionals under an exactly uniform marginal.

    The sensitive marginal is the constant 1/|A| by construction, never
    estimated, so the anchor's representation rate is exactly 1.  The
    conditionals are the (|A|, n_x) matrix ``cond``: row a is q0(x | A=a)
    over the feature cells in row-major order.  The anchor has no table of
    its own: its joint table is the zero-round stack's,
    ``BoostedDensity(q0).table()``.
    """

    def __init__(self, schema: AttributeSchema, cond: np.ndarray):
        self.check_schema(schema)
        self.schema = schema
        self.x_schema = schema.x_subschema()
        cond = np.asarray(cond, dtype=np.float64)
        shape = (schema.sensitive.cardinality, self.x_schema.n_cells)
        if cond.shape != shape:
            raise ValueError(f"conditionals must be a {shape[0]} x {shape[1]} matrix, got shape {cond.shape}")
        if not np.isfinite(cond).all() or (cond < 0).any():
            raise ValueError("conditional entries must be finite and >= 0")
        if (np.abs(cond.sum(axis=1) - 1.0) > _SUM_TOL).any():
            raise ValueError(f"each conditional must sum to 1 within {_SUM_TOL}")
        self.cond = _readonly(cond)

    @staticmethod
    def check_schema(schema: AttributeSchema) -> None:
        """Reject a schema the anchor cannot be built on: one sensitive
        attribute and at least one other attribute to model are required."""
        if schema.sensitive_index is None:
            raise ValueError("schema must designate a sensitive attribute")
        if len(schema.attributes) < 2:
            raise ValueError("schema must have at least one attribute besides the sensitive one")


@dataclass(frozen=True, eq=False)
class BoostRound:
    """One frozen boosting round: coefficient, classifier, and normalizers;
    theta, Z_t and each Z_t(a) are finite and the normalizers > 0."""

    theta: float
    classifier: object
    z: float
    z_by_group: np.ndarray

    def __post_init__(self) -> None:
        zg = np.asarray(self.z_by_group, dtype=np.float64)
        if not (math.isfinite(self.theta) and math.isfinite(self.z) and np.isfinite(zg).all()):
            raise ValueError("theta and normalizers must be finite")
        if self.z <= 0 or (zg <= 0).any():
            raise ValueError("normalizers must be > 0")
        object.__setattr__(self, "z_by_group", _readonly(zg))


@dataclass(frozen=True)
class ExpectationEstimate:
    value: float
    stderr: float
    n: int


GFun = Callable[[np.ndarray], np.ndarray]


class BoostedDensity:
    """Immutable stack of boosting rounds on top of an InitialDensity."""

    def __init__(self, q0: InitialDensity, rounds: Sequence[BoostRound] = ()):
        self.q0 = q0
        self.schema = q0.schema
        self.rounds = ()
        self._tilt = np.zeros(q0.x_schema.n_cells)
        self._tilt.setflags(write=False)
        self._log_z_total = 0.0
        self._log_zg_total = _readonly(np.zeros(q0.cond.shape[0]))
        for rnd in rounds:
            step = rnd.theta * _checked_scores(q0.x_schema, rnd.classifier)
            self._push(rnd, self._tilt + step)
            del step  # after the parent's tilt: eval's peak RSS moves with this free order

    def _push(self, rnd: BoostRound, tilt: np.ndarray) -> None:
        # tilt is the parent's plus theta * scores: the same left-to-right sums as rebuilding from every round
        self.rounds = self.rounds + (rnd,)
        self._tilt = tilt
        self._log_z_total = self._log_z_total + math.log(rnd.z)
        self._log_zg_total = self._log_zg_total + np.log(rnd.z_by_group)
        self._tilt.setflags(write=False)
        self._log_zg_total.setflags(write=False)

    # -- structure ------------------------------------------------------

    def extended(self, classifier, theta: float, scores: np.ndarray) -> "BoostedDensity":
        """Append one round, computing its exact normalizers.  ``scores``, the classifier's
        ``_checked_scores``, is scaled in place to theta * scores, then holds the child's tilt."""
        step = np.multiply(theta, scores, out=scores)
        z, z_by_group = self._normalizers(step)
        child = copy.copy(self)
        child._push(BoostRound(theta, classifier, z, z_by_group), np.add(self._tilt, step, out=step))
        return child

    def _normalizers(self, step: np.ndarray) -> tuple[float, np.ndarray]:
        row, log_zg = np.empty(len(step)), np.empty(len(self._log_zg_total))
        for a, cond in enumerate(self.q0.cond):
            with np.errstate(divide="ignore"):  # an unsmoothed anchor has empty cells
                np.log(cond, out=row)
            row += self._tilt
            row -= self._log_zg_total[a]
            row += step
            log_zg[a] = _logsumexp(row)
        log_marg = np.log(self.sensitive_marginal())
        log_z = _logsumexp(log_marg + log_zg)
        return float(np.exp(log_z)), np.exp(log_zg)

    # -- evaluation -----------------------------------------------------

    def _raw_joint_vector(self) -> np.ndarray:
        raw = np.empty(self.schema.n_cells)
        groups = np.moveaxis(raw.reshape(self.schema.shape), self.schema.sensitive_index, 0)
        with np.errstate(divide="ignore"):
            np.log(self.q0.cond.reshape(groups.shape), out=groups)
        groups -= math.log(len(groups))
        groups += self._tilt.reshape(groups.shape[1:])
        raw -= self._log_z_total
        return np.exp(raw, out=raw)

    def joint(self) -> np.ndarray:
        """The stack's mass on every cell, renormalized by its raw total, in a fresh buffer the caller owns."""
        raw = self._raw_joint_vector()
        raw /= raw.sum()
        return raw

    def table(self) -> TabularDensity:
        """Explicit table of the stack: ``joint()``, adopted read-only without a copy."""
        mass = self.joint()
        mass.setflags(write=False)
        return TabularDensity(self.schema, mass)

    def sensitive_marginal(self) -> np.ndarray:
        """Marginal recursion q_T(a) = q_0(a) * Prod_k Z_k(a)/Z_k."""
        card = self.q0.cond.shape[0]
        return np.exp(self._log_zg_total - self._log_z_total) / card

    def representation_rate(self) -> float:
        """RR through the normalizer products, min over ordered group pairs."""
        return representation_rates(r.z_by_group for r in self.rounds)[-1]

    # -- expectations ---------------------------------------------------

    def expectation(
        self,
        g: GFun,
        sample_budget: Union[int, str] = "exact",
        seed: int = 0,
    ) -> ExpectationEstimate:
        """E_{Q_T}[g], where g maps a coordinate matrix to one value per row.

        Exact mode sums the unrolled product over the whole domain.  Monte
        Carlo mode draws from the anchor's table (the zero-round stack's
        ``table()``) and averages the importance-weighted
        values Prod_k exp(theta_k c_k(x))/Z_k * g(x, a); the estimator is
        unbiased because the stored normalizers are exact.
        """
        if sample_budget == "exact":
            rows = self.schema.all_cells()
            return ExpectationEstimate(float(self._raw_joint_vector() @ _values(g, rows)), 0.0, len(rows))
        n = int(sample_budget)
        if n < 2:
            raise ValueError("sample_budget must be >= 2 in Monte Carlo mode")
        drawn = BoostedDensity(self.q0).table().sample(n, seed)
        x_idx = self.q0.x_schema.encode(drawn.x_rows())
        vals = np.exp(self._tilt[x_idx] - self._log_z_total) * _values(g, drawn.rows)
        return ExpectationEstimate(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n)), n)

    # -- sampling -------------------------------------------------------

    def sample(self, n: int, seed: int) -> Dataset:
        """Draw n rows from Q_T through its joint table (``TabularDensity.sample``)."""
        return self.table().sample(n, seed)


def representation_rates(z_by_group: Iterable[np.ndarray]) -> list[float]:
    """RR(Q_t) for t = 0, 1, ... from the rounds' Z_t(a) alone: q_t(a) is
    proportional to Prod_k Z_k(a), so with s the running sum of log Z_k(a)
    from zero, RR(Q_t) = exp(min s - max s)."""
    s = 0.0
    rates = [1.0]
    for zg in z_by_group:
        s = s + np.log(zg)
        rates.append(float(np.exp(s.min() - s.max())))
    return rates


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) over every entry of ``a``, as scipy 1.17 sums it.

    Every maximal entry is taken out of the sum and counted (m), so the result is
    log1p(sum(exp(a - a_max)) / m) + log(m) + a_max.  scipy's extra pass for infinite
    results is left out, so ``a`` must hold a finite maximum.  ``a`` is overwritten.
    """
    a_max = a.max()
    is_max = a == a_max
    m = np.count_nonzero(is_max)
    np.copyto(a, -np.inf, where=is_max)
    a -= a_max
    s = np.exp(a, out=a).sum() / m
    return float(np.log1p(s) + np.log(m) + a_max)


def _checked_scores(x_schema: AttributeSchema, classifier) -> np.ndarray:
    """The classifier's ``domain_scores``: one finite value per feature cell."""
    scores = np.asarray(classifier.domain_scores(x_schema), dtype=np.float64)
    if scores.shape != (x_schema.n_cells,) or not np.isfinite(scores).all():
        raise ValueError("classifier unbounded")
    return scores


def _values(g: GFun, rows: np.ndarray) -> np.ndarray:
    vals = np.asarray(g(rows), dtype=np.float64)
    if vals.shape != (len(rows),):
        raise ValueError("g must return one value per row")
    return vals
