"""Bound calculators and verifiers for the fitted stack's certificates.

Three families of results are covered, all in natural-log units:

* Per-round KL progress.  With classifier bound C = ln 2 and a round whose
  normalized margins are (gamma_p, gamma_q), the KL divergence to the data
  drops by at least theta * slope, where slope depends on the regime: the
  high regime (gamma_q >= 1/3) gives gamma_p*ln 2 + ln(4/(5-3*gamma_q)),
  the low regime gives gamma_p + gamma_q - ln 2 * theta/2.

* Total progress away from the anchor.  Delta = KL(P,Q0) - KL(P,Q_T) is
  capped by the mollifier size of the scheme, and floored (when margins stay
  in the high regime) by scheme-specific multiples of -ln tau.

* Fairness transfer.  A representation-rate floor on the data distribution
  converts into a statistical-rate floor (rate squared), a discrimination
  ceiling, and a false-negative-rate budget under which any predictor
  satisfies approximate equal opportunity.

build_report assembles one run's report from its model's rounds, which fix
every value the model and trace share, and the trace's kl_train and sample
margins.  The per-round and total-progress formulas assume C = ln 2; it
marks them not applicable for a run fitted with any other bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .boosted import BoostedDensity, BoostRound, representation_rates
from .engine import EXACT, LeveragingScheme, TraceRow, mollifier_size, rr_lower_bound
from .tabular import TabularDensity
from .tree import FAIL, HBS, boosting_regime

_LN2 = math.log(2.0)
_E_INV = math.exp(-1.0)
_TOL = 1e-9


def margin_gain(z: float) -> float:
    """ln(4/(5-3z)): the log-normalizer shrink bought by a model-side margin z.

    Zero at z = 1/3 (the regime boundary) and ln 2 at z = 1.
    """
    if z > 1.0:
        raise ValueError("margin must be at most 1")
    return math.log(4.0 / (5.0 - 3.0 * z))


def gain_ratio(gamma: float) -> float:
    """margin_gain(gamma) / (gamma * ln 2); equals 1 at gamma = 1."""
    if gamma <= 0.0:
        raise ValueError("margin must be positive")
    return margin_gain(gamma) / (gamma * _LN2)


@dataclass(frozen=True)
class KlDropBound:
    slope: float  # guaranteed KL drop per unit of leveraging coefficient
    bound: float  # theta * slope
    regime: str
    positive: bool


def kl_drop_bound(theta: float, gamma_p: float, gamma_q: float) -> KlDropBound:
    """Certified one-round KL drop for margins (gamma_p, gamma_q) at C = ln 2.

    The high regime always yields a positive drop; the low regime needs
    gamma_p + gamma_q >= ln 2 * theta / 2.
    """
    if theta <= 0.0:
        raise ValueError("theta must be > 0")
    regime = boosting_regime(gamma_p, gamma_q)
    if regime == FAIL:
        raise ValueError("WLA violated")
    if gamma_p > 1.0 or gamma_q > 1.0:
        raise ValueError("margins exceed 1")
    if regime == HBS:
        slope = gamma_p * _LN2 + margin_gain(gamma_q)
    else:
        slope = gamma_p + gamma_q - _LN2 * theta / 2.0
    bound = theta * slope
    return KlDropBound(slope=slope, bound=bound, regime=regime, positive=bound > 0.0)


@dataclass(frozen=True)
class DeltaBounds:
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower > self.upper + 1e-12:
            raise ValueError("lower bound exceeds upper bound")


def delta_bounds(scheme: LeveragingScheme, rounds: int, gamma_p: float, gamma_q: float) -> DeltaBounds:
    """Bracket the total progress Delta = KL(P,Q0) - KL(P,Q_T).

    Valid in the high regime with margins held fixed across rounds, T > 1,
    the scheme's tau in (exp(-1), 1), and C = ln 2.  The upper bound is
    the scheme's mollifier size at T; the lower bounds scale -ln tau by the
    margin mix (gamma_p + gamma_q * gain_ratio(gamma_q)) / 2.
    """
    if rounds <= 1:
        raise ValueError("rounds must exceed 1")
    if scheme.tau <= _E_INV:
        raise ValueError("tau must exceed exp(-1)")
    regime = boosting_regime(gamma_p, gamma_q)
    if regime == FAIL:
        raise ValueError("WLA violated")
    if gamma_p > 1.0 or gamma_q > 1.0:
        raise ValueError("margins exceed 1")
    if regime != HBS:
        raise ValueError("high boosting regime required")
    neg_log_tau = -math.log(scheme.tau)
    mix = (gamma_p + gamma_q * gain_ratio(gamma_q)) / 2.0
    scale = 1.0 - 2.0 ** -(rounds - 1) if scheme.kind == EXACT else math.log(rounds)
    return DeltaBounds(lower=neg_log_tau * mix * scale, upper=mollifier_size(scheme, rounds))


def eo_fnr_bound(tau: float, rho: float) -> float:
    """(tau - rho) / (1 + tau): the FNR budget under which rate-tau fair data
    forces rho-equal opportunity."""
    if rho < 0.0:
        raise ValueError("rho must be >= 0")
    if tau > 1.0:
        raise ValueError("tau must be at most 1")
    if rho > tau:
        raise ValueError("rho must not exceed tau")
    return (tau - rho) / (1.0 + tau)


@dataclass(frozen=True)
class EoReport:
    """One instance of the fairness-to-equal-opportunity implication."""

    rho: float
    tau: float  # pairwise group rate within the positive class
    fnr: float
    fnr_limit: Optional[float]  # budget at this (tau, rho); None when rho > tau
    eo_ratio: float
    positive_rates: tuple
    premises_hold: bool
    eo_holds: bool
    implication_held: bool


def verify_eo(density: TabularDensity, predictor, rho: float) -> EoReport:
    """Check the implication "rate-fair data + small FNR => rho-equal
    opportunity" on one explicit table.

    `predictor` maps full coordinate rows to hard 0/1 predictions.  The rate
    premise is evaluated on the positive-class slice: the class-1 accuracy
    decomposes as sum_a p[a|Y=1] * p[Yhat=1|a,Y=1], so the balance parameter
    tau that buys the budget (tau-rho)/(1+tau) is the pairwise ratio of
    p[A|Y=1], which caps each group share at 1/(1+tau).  The overall
    marginal of A never enters that argument.
    """
    schema = density.schema
    if schema.sensitive_index is None or schema.target_index is None:
        raise ValueError("schema must designate sensitive and target attributes")
    if schema.attributes[schema.sensitive_index].cardinality != 2:
        raise ValueError("binary sensitive attribute required")
    if schema.attributes[schema.target_index].cardinality != 2:
        raise ValueError("binary target attribute required")
    if not (0.0 <= rho <= 1.0):
        raise ValueError("rho must be in [0, 1]")

    cells = schema.all_cells()
    yhat = np.asarray(predictor(cells))
    if yhat.shape != (len(cells),) or not np.isin(yhat, (0, 1)).all():
        raise ValueError("predictor must output one 0/1 value per cell")
    yhat = yhat.astype(np.int64)
    y = cells[:, schema.target_index]
    a = cells[:, schema.sensitive_index]
    m = density.mass

    pos = y == 1
    p_pos = float(m[pos].sum())
    if p_pos <= 0.0:
        raise ValueError("degenerate marginal")
    group_pos = np.array([float(m[pos & (a == v)].sum()) for v in (0, 1)])
    if (group_pos <= 0.0).any():
        raise ValueError("degenerate marginal")
    tau = float(group_pos.min() / group_pos.max())

    rates = np.array(
        [float(m[pos & (a == v) & (yhat == 1)].sum()) for v in (0, 1)]
    ) / group_pos
    fnr = float(m[pos & (yhat == 0)].sum()) / p_pos

    if rho <= tau:
        limit = eo_fnr_bound(tau, rho)
        premises = fnr <= limit + 1e-12
    else:
        limit = None
        premises = False
    if (rates <= 0.0).any():
        raise ValueError("zero denominator in equal-opportunity ratio")
    eo_ratio = float(rates.min() / rates.max())
    eo_holds = eo_ratio >= rho - 1e-12
    return EoReport(
        rho=rho,
        tau=tau,
        fnr=fnr,
        fnr_limit=limit,
        eo_ratio=eo_ratio,
        positive_rates=tuple(float(r) for r in rates),
        premises_hold=premises,
        eo_holds=eo_holds,
        implication_held=(not premises) or eo_holds,
    )


def sr_from_rr(tau: float) -> float:
    """Statistical-rate floor tau^2 bought by rate tau over class-sensitive cells."""
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must be in (0, 1]")
    return tau * tau


def dc_from_rr(tau: float) -> float:
    """Discrimination-control ceiling (1 - tau^2)/tau^2 for the same premise."""
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must be in (0, 1]")
    return (1.0 - tau * tau) / (tau * tau)


def exact_round_margins(p: TabularDensity, prev: BoostedDensity, classifier) -> tuple[float, float]:
    """Exact margins (E_P[c]/C, E_Qprev[-c]/C) by full summation.

    These are the population quantities the per-round certificates are stated
    for; trace rows carry their sample estimates instead.  The scores fill a
    full-domain vector through its group-major view, as ``joint()`` fills its
    table, so every cell holds its feature cell's score bit for bit.
    """
    if p.schema != prev.schema:
        raise ValueError("schema mismatch")
    scores_x = np.asarray(classifier.domain_scores(prev.q0.x_schema), dtype=np.float64)
    full = np.empty(prev.schema.n_cells)
    groups = np.moveaxis(full.reshape(prev.schema.shape), prev.schema.sensitive_index, 0)
    groups[...] = scores_x.reshape(groups.shape[1:])
    c = float(classifier.c_bound)
    gamma_p = float(p.mass @ full) / c
    gamma_q = -float(prev.table().mass @ full) / c
    return gamma_p, gamma_q


_EO_RHO_GRID = (0.5, 0.7, 0.8, 0.9, 0.95)
#: how far a scheme's C may sit from ln 2 for the C = ln 2 certificates to apply
_C_LN2_TOL = 1e-12


@dataclass(frozen=True)
class GuaranteeReport:
    """Measured quantities of one fitted run against every applicable bound.

    Representation-rate floors and the progress upper bound are asserted
    (holds flags); the per-round drop floors and the progress lower bound are
    evaluated from sample margins and therefore reported, not asserted.
    ``dataclasses.asdict`` of it is the report document's body.
    """

    scheme: str
    tau: float
    rounds: int
    fairness_rounds: tuple
    drop_rounds: tuple
    delta: Optional[dict]
    implied: dict
    all_fairness_hold: bool


def build_report(
    trace: Sequence[TraceRow], scheme: LeveragingScheme, rounds: Sequence[BoostRound]
) -> GuaranteeReport:
    """Evaluate every bound a finished run carries evidence for.

    ``rounds`` are the model's stored rounds; t, theta, each rate (from the
    Z_t(a)) and each rate floor (from the scheme) come from them.  ``trace``
    holds ``TraceRow``s, which keep the row rule, and gives kl_train, the
    sample margins and their regime.  The trace must be the model's run: its
    t=0 anchor row, then exactly those rounds, each with the model's theta, z,
    rr and rr_bound bit for bit (both files write numbers shortest-repr and
    the rates come from the same arithmetic), or the error names the first
    column that differs.  Each round's margins are clamped to 1 once, for its
    drop floor and for the lower bound on Delta; both are derived for C = ln 2
    only, and for any other C they are None, with a note saying why.
    """
    if not trace or trace[0].t != 0:
        raise ValueError("the trace does not open with its t=0 anchor row; the trace is not this model's")
    rows = trace[1:]
    if len(rows) != len(rounds):
        raise ValueError(
            f"trace ends at round {len(rows)}, the model at round {len(rounds)}; the trace is not this model's"
        )
    c_note = None
    if abs(scheme.c_bound - _LN2) > _C_LN2_TOL:
        c_note = f"not applicable: certified only for C = ln 2, this run used C = {scheme.c_bound!r}"
    rates = representation_rates(rnd.z_by_group for rnd in rounds)

    fairness, drops, hbs_margins = [], [], []
    for t, (prev, r, rnd, rr) in enumerate(zip(trace, rows, rounds, rates[1:]), start=1):
        floor = rr_lower_bound(scheme, t)
        for column, value in zip(("theta", "z", "rr", "rr_bound"), (rnd.theta, rnd.z, rr, floor)):
            if getattr(r, column) != value:
                raise ValueError(
                    f"trace round {t}: {column} {getattr(r, column)!r} differs from the model's {value!r}; "
                    "the trace is not this model's"
                )
        fairness.append({"t": t, "rr": rr, "rr_floor": floor, "holds": rr >= floor - _TOL})

        measured = prev.kl_train - r.kl_train
        entry = {"t": t, "theta": rnd.theta, "regime": r.regime, "gamma_p": r.gamma_p, "gamma_q": r.gamma_q,
                 "measured_drop": measured}
        margins = (min(r.gamma_p, 1.0), min(r.gamma_q, 1.0))
        if r.regime == HBS:
            hbs_margins.append(margins)
        if c_note is None and r.regime != FAIL:
            db = kl_drop_bound(rnd.theta, *margins)
            entry.update(drop_floor=db.bound, floor_positive=db.positive, holds=measured >= db.bound - _TOL)
        else:
            entry.update(drop_floor=None, floor_positive=None, holds=None)
            if c_note is not None:
                entry["floor_note"] = c_note
        drops.append(entry)

    delta = None
    if rows:
        measured = trace[0].kl_train - trace[-1].kl_train
        upper = mollifier_size(scheme, len(rows))
        delta = {
            "measured": measured,
            "upper": upper,
            "upper_holds": measured <= upper + _TOL,
            "lower": None,
            "lower_note": "needs > 1 rounds, tau > exp(-1), and all rounds in the high regime",
        }
        if c_note is not None:
            delta["lower_note"] = c_note
        elif len(rows) > 1 and scheme.tau > _E_INV and len(hbs_margins) == len(rows):
            gp, gq = (min(g) for g in zip(*hbs_margins))
            delta["lower"] = delta_bounds(scheme, len(rows), gp, gq).lower
            delta["lower_note"] = "evaluated at the per-run minimum sample margins; informational"

    final_rr = rates[-1]
    implied = {
        "final_rr": final_rr,
        "sr_floor": sr_from_rr(final_rr),
        "dc_ceiling": dc_from_rr(final_rr),
        "eo_budgets": [
            {"rho": rho, "fnr_budget": eo_fnr_bound(final_rr, rho)}
            for rho in _EO_RHO_GRID
            if rho <= final_rr
        ],
        "premise_note": (
            "sr/dc assume the rate floor holds jointly over class-sensitive cells; "
            "eo budgets assume it holds on the positive-class slice"
        ),
    }

    return GuaranteeReport(
        scheme=scheme.kind,
        tau=scheme.tau,
        rounds=len(rows),
        fairness_rounds=tuple(fairness),
        drop_rounds=tuple(drops),
        delta=delta,
        implied=implied,
        all_fairness_hold=all(f["holds"] for f in fairness),
    )
