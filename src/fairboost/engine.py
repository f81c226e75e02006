"""The boosting loop: leveraging schemes, round execution, per-round trace.

Each round draws negatives from the current model, trains a bounded tree to
separate them from the data sample, and multiplies the density stack by
exp(theta_t * c_t).  Every round records the KL divergence from the training
data.  The leveraging coefficient theta_t controls the fairness budget spent
per round:

    exact      theta_t = -ln(tau) / (C * 2^(t+1))   keeps RR(Q_t) > tau forever
    relative   theta_t = -ln(tau) / (2 C t)         RR(Q_T) > tau^(1 + ln T)

Both floors rest on the normalizer bounds: each round can shift any pairwise
group log-ratio by at most 2*C*theta_t.  All logarithms are natural; tau
close to 1 forces theta toward 0 and the fit sticks to the anchor.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import seeds
from .boosted import BoostedDensity, InitialDensity, _checked_scores
from .schema import Dataset
from .tabular import _checked_mass, _sample_cdf, fit_empirical, kl_divergence
from .tree import TreeConfig, estimate_wla, train_tree

EXACT = "exact"
RELATIVE = "relative"

#: negatives drawn from the current model per data row, each round
NEGATIVES_PER_ROW = 2


@dataclass(frozen=True)
class LeveragingScheme:
    """How much the stack may move per round, parameterized by the target
    representation rate tau."""

    kind: str
    tau: float
    c_bound: float = math.log(2.0)

    def __post_init__(self) -> None:
        if self.kind not in (EXACT, RELATIVE):
            raise ValueError(f"unknown scheme {self.kind!r}")
        if not math.isfinite(self.c_bound):
            raise ValueError(f"c_bound must be finite, got {self.c_bound!r}")
        if self.c_bound <= 0:
            raise ValueError("c_bound must be > 0")
        if self.tau is None or not (0.0 < self.tau < 1.0):
            raise ValueError("tau must be in (0, 1)")


def leverage(scheme: LeveragingScheme, t: int) -> float:
    """theta_t for round t >= 1, a positive finite float under either scheme; a theta_t that is
    0.0 or inf in floats (0.0 once 2^(t+1) or t passes the largest float) is refused by name."""
    if t < 1:
        raise ValueError("t must be >= 1")
    x = -math.log(scheme.tau)
    try:
        theta = x / (scheme.c_bound * 2.0 ** (t + 1)) if scheme.kind == EXACT else x / (2.0 * scheme.c_bound * t)
    except OverflowError:
        theta = 0.0
    if not 0.0 < theta < math.inf:
        raise ValueError(
            f"the {scheme.kind} scheme's theta_t at round {t} is {theta!r} for tau {scheme.tau!r} and "
            f"C {scheme.c_bound!r}; it must be a positive finite float"
        )
    return theta


def rr_lower_bound(scheme: LeveragingScheme, t: int) -> float:
    """Guaranteed representation-rate floor after t rounds."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if scheme.kind == EXACT:
        return scheme.tau
    return scheme.tau ** (1.0 + math.log(t))


def mollifier_size(scheme: LeveragingScheme, t: int) -> float:
    """Size parameter eps_t of the anchored mollifier certified to contain Q_t:
    the anchor's group marginal is uniform, so Q_t's rate is >= exp(-eps_t)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if scheme.kind == EXACT:
        return -math.log(scheme.tau)
    return -(1.0 + math.log(t)) * math.log(scheme.tau)


@dataclass(frozen=True)
class FitConfig:
    """A fit's settings, checked when built: theta_t falls with t, so
    ``leverage`` of rounds 1 and T vouches for every round's theta."""

    rounds: int
    scheme: LeveragingScheme
    tree: TreeConfig = field(default_factory=TreeConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.rounds:
            leverage(self.scheme, 1)
            leverage(self.scheme, self.rounds)


@dataclass(frozen=True)
class TraceRow:
    """One line of the boosting trace, its fields the file's columns in order;
    t=0 is the anchor baseline, without margins or regime."""

    t: int
    theta: float
    gamma_p: Optional[float]
    gamma_q: Optional[float]
    regime: Optional[str]
    rr: float
    rr_bound: float
    kl_train: Optional[float]
    kl_test: Optional[float]  # always None: the column stays so trace files keep their 10 fields
    z: float


def fbde_fit(p: Dataset, q0: InitialDensity, cfg: FitConfig) -> tuple[BoostedDensity, list[TraceRow], list[dict]]:
    """Run the boosting loop for cfg.rounds rounds.

    Returns the fitted stack, its trace and one record per round (the tree's
    leaves and depth, and the seconds spent sampling, on the tree, on the
    round's ``_step`` and on the joint and KL).  The trace opens with a t=0
    row for the anchor (rr and z exactly 1) so downstream consumers can read
    off per-round drops and total progress without refitting; a zero-round
    fit is the bare anchor, its trace that one row.  Every row records
    kl_train, the KL divergence from the training data; kl_test is always
    None.  Deterministic given cfg.seed, timings aside.

    The empirical table p-hat is kept as its support (at most len(p) cells)
    and its masses there, and each KL is taken over those cells alone, with
    the bits of the KL over the whole table.  Beyond the anchor, a round holds
    the tilt, the tree's one paint and at most one whole-domain table: the joint,
    read by its KL and then made the next round's CDF in place.  The normalizer
    terms take one group's row at a time.
    """
    if p.schema != q0.schema:
        raise ValueError("schema mismatch")
    if len(p) == 0:
        raise ValueError("empty dataset")
    n_neg = NEGATIVES_PER_ROW * len(p)
    if not math.isfinite(cfg.scheme.c_bound * n_neg):  # bounds every sum behind a round's margins
        raise ValueError(f"c_bound {cfg.scheme.c_bound!r} times {n_neg} negatives overflows the round margins' sums")
    stack = BoostedDensity(q0)
    trace: list[TraceRow] = []
    records: list[dict] = []
    p_mass = fit_empirical(p, 0.0).mass
    support = np.flatnonzero(p_mass)
    p_mass = p_mass[support]
    # one joint table per stack, checked as a TabularDensity's: its KL, then its CDF for the next round's negatives
    mass = _checked_mass(p.schema, stack.joint())
    trace.append(TraceRow(0, 0.0, None, None, None, 1.0, 1.0, kl_divergence(p_mass, mass[support]), None, 1.0))

    for t in range(1, cfg.rounds + 1):
        theta = leverage(cfg.scheme, t)
        t0 = time.perf_counter()
        seed = seeds.subseed(cfg.seed, seeds.NEGATIVES, t)
        negatives = _sample_cdf(p.schema, np.cumsum(mass, out=mass), n_neg, seed)
        mass = None  # released before the round allocates its arrays
        t1 = time.perf_counter()
        classifier = train_tree(p, negatives, cfg.tree, cfg.scheme.c_bound)
        t2 = time.perf_counter()
        stack, wla = _step(stack, classifier, theta, p, negatives)
        t3 = time.perf_counter()
        mass = _checked_mass(p.schema, stack.joint())
        kl_train = kl_divergence(p_mass, mass[support])
        seconds = {"sample_s": t1 - t0, "tree_s": t2 - t1, "extended_s": t3 - t2}
        records.append({"t": t, **seconds, "joint_kl_s": time.perf_counter() - t3, **_tree_size(classifier.root)})
        trace.append(
            TraceRow(
                t=t,
                theta=theta,
                gamma_p=wla.gamma_p,
                gamma_q=wla.gamma_q,
                regime=wla.regime,
                rr=stack.representation_rate(),
                rr_bound=rr_lower_bound(cfg.scheme, t),
                kl_train=kl_train,
                kl_test=None,
                z=stack.rounds[-1].z,
            )
        )
    return stack, trace, records


def _step(stack: BoostedDensity, classifier, theta: float, p: Dataset, negatives: Dataset):
    """One round on its trained tree: paint it once, read the sample margins from
    the paint, and extend the stack by it.  Returns the child and the margins."""
    scores = _checked_scores(stack.q0.x_schema, classifier)
    wla = estimate_wla(classifier, p, negatives, scores)
    return stack.extended(classifier, theta, scores), wla


def _tree_size(node) -> dict:
    """The leaves and depth of the tree under ``node``; a lone leaf has depth 0."""
    if node.is_leaf:
        return {"leaves": 1, "depth": 0}
    left, right = _tree_size(node.left), _tree_size(node.right)
    return {"leaves": left["leaves"] + right["leaves"], "depth": 1 + max(left["depth"], right["depth"])}
