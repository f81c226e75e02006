"""Decision-tree weak learner producing a bounded score over the feature cells.

The trainer solves a two-class problem (rows of P against rows drawn from the
current model) by greedy top-down induction on weighted Gini impurity.  The
two sides are rescaled to equal total mass first, so an oversampled negative
pool steers variance down without biasing every leaf toward the model class.
Ordinal attributes (those carrying bin edges) get threshold splits on the bin
index; the rest get one-vs-rest category splits.  Leaves cast a full-strength
vote at the score bound C, which the fit passes in from its leveraging scheme
so that the trees and the coefficients theta_t share one C:

    v = +C where the P mass leads, -C where it trails,
    v = 0 where |w_P - w_Q| <= LEAF_SMOOTHING = 1 (too close to call)

Saturated votes spend the whole budget the bound C allows per round, which
matters because the leveraging coefficients multiplying the score are small;
a proportional leaf value would shrink exactly when the boosting stack needs
its last few rounds to keep moving.  The abstention margin, a fixed one
unit of (balanced) sample mass, keeps leaves quiet where the class masses
differ by no more than that, so indistinguishable sides yield a zero tree
rather than sign noise.  The sensitive attribute is never part of the
feature set.

Induction runs on counts, not rows.  The rows are aggregated once per tree
into their distinct feature cells, each holding an integer P count and Q
count; a bin's class mass is then the class weight times its count.  Every
node holds one histogram of those counts over all (attribute, value) bins,
and searches it in one vectorized pass over a padded attribute-by-value
grid: prefix sums along the value axis give the threshold candidates of
ordinal attributes, the bins themselves the one-vs-rest candidates of the
rest.  Only the child with fewer distinct cells is counted; its sibling's
histogram is the parent's minus that one (histogram subtraction, as in
LightGBM), exact because the counts are integers held in float64.  The
min-leaf and stopping rules count rows, never cells.  With the fit's two
negatives per data row the class weights are 3/2 and 3/4, so every sum is
exact and the gains equal row-by-row sums bit for bit.

Induction is deterministic: among the candidates with the largest Gini gain
the first in row-major grid order wins, so ties resolve to the lowest
attribute index, then the lowest split value, and a split is made only when
its gain exceeds a small tolerance.  A tree knows nothing of its stored
form, which ``serialize`` writes and reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import AttributeSchema, Dataset

_GAIN_TOL = 1e-12
#: a leaf abstains (votes 0) when its balanced class masses differ by at most this
LEAF_SMOOTHING = 1.0

HBS = "HBS"
LBS = "LBS"
FAIL = "FAIL"


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 8
    min_leaf_count: int = 5

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_leaf_count < 1:
            raise ValueError("min_leaf_count must be >= 1")


class Node:
    """One tree node; either a split (attr/op/value) or a leaf value."""

    __slots__ = ("attr", "op", "value", "left", "right", "leaf")

    def __init__(self, attr=None, op=None, value=None, left=None, right=None, leaf=None):
        self.attr = attr
        self.op = op
        self.value = value
        self.left = left
        self.right = right
        self.leaf = leaf

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None

    def goes_left(self, col: np.ndarray) -> np.ndarray:
        if self.op == "le":
            return col <= self.value
        return col == self.value


@dataclass(frozen=True, eq=False)
class DecisionTreeClassifier:
    """A fitted tree scoring feature rows into [-C, C]."""

    root: Node
    c_bound: float

    def scores(self, x_rows: np.ndarray) -> np.ndarray:
        x_rows = np.asarray(x_rows, dtype=np.int64)
        out = np.empty(len(x_rows), dtype=np.float64)
        stack = [(self.root, np.arange(len(x_rows)))]
        while stack:
            node, idx = stack.pop()
            if node.is_leaf:
                out[idx] = node.leaf
                continue
            left = node.goes_left(x_rows[idx, node.attr])
            stack.append((node.left, idx[left]))
            stack.append((node.right, idx[~left]))
        return out

    def domain_scores(self, x_schema: AttributeSchema) -> np.ndarray:
        """Scores of every cell of ``x_schema``, flat in row-major order.

        Walks the tree once and paints each leaf value onto its box of the
        feature cube through slice views; split values are absolute codes,
        so each view carries its per-axis offset into the cube.
        """
        cube = np.empty(x_schema.shape, dtype=np.float64)
        stack = [(self.root, cube, (0,) * cube.ndim)]
        while stack:
            node, view, offset = stack.pop()
            if node.is_leaf:
                view[...] = node.leaf
                continue
            f, base, n = node.attr, offset[node.attr], view.shape[node.attr]
            lo = min(max(node.value - base, 0), n)
            hi = min(max(node.value + 1 - base, 0), n)
            if node.op == "le":
                left, right = [(0, hi)], [(hi, n)]
            else:
                left, right = [(lo, hi)], [(0, lo), (hi, n)]
            for child, boxes in ((node.left, left), (node.right, right)):
                for start, stop in boxes:
                    if start < stop:
                        part = view[(slice(None),) * f + (slice(start, stop),)]
                        stack.append((child, part, offset[:f] + (base + start,) + offset[f + 1 :]))
        return cube.reshape(-1)


def _gini_terms(wp, wq):
    """Weighted Gini impurity contribution s * (1 - (wp/s)^2 - (wq/s)^2)."""
    s = wp + wq
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(s > 0, s - (wp * wp + wq * wq) / np.where(s > 0, s, 1.0), 0.0)
    return out


def train_tree(p_samples: Dataset, q_samples: Dataset, cfg: TreeConfig, c_bound: float) -> DecisionTreeClassifier:
    """Fit the P-vs-Q tree voting +-c_bound; deterministic through its tie-breaking rules."""
    if len(p_samples) == 0 or len(q_samples) == 0:
        raise ValueError("empty sample side")
    x_schema = p_samples.schema.x_subschema()
    if q_samples.schema.x_subschema() != x_schema:
        raise ValueError("schema mismatch")

    # aggregate once: the distinct feature cells, each with its P and Q row counts
    n_p, n_q = len(p_samples), len(q_samples)
    rows = np.concatenate([x_schema.encode(p_samples.x_rows()), x_schema.encode(q_samples.x_rows())])
    cells, inverse = np.unique(rows, return_inverse=True)
    counts = np.stack([np.bincount(side, minlength=len(cells)) for side in (inverse[:n_p], inverse[n_p:])])
    counts = counts.astype(np.float64)  # integers, so sums and differences stay exact
    X = x_schema.decode(cells)
    # equalize class masses; keeps the count scale so min_leaf/smoothing stay meaningful
    target = 0.5 * (n_p + n_q)
    w = np.array([target / n_p, target / n_q])
    # candidates on a padded (attribute, value) grid: thresholds v < card-1 on
    # ordinal attributes, every category on the rest
    cards = np.array(x_schema.shape, dtype=np.int64)[:, None]
    n_attr, width = len(cards), int(cards.max(initial=1))
    ordinal = np.array([a.is_ordinal for a in x_schema.attributes])[:, None]
    exists = (cards >= 2) & (np.arange(width) < np.where(ordinal, cards - 1, cards))
    bins = X + width * np.arange(n_attr)  # grid position of each cell's value, per attribute

    def histogram(idx):
        """(class, attribute, value) row counts over the cells idx."""
        b = bins[idx].ravel()
        hist = [np.bincount(b, weights=np.repeat(c[idx], n_attr), minlength=n_attr * width) for c in counts]
        return np.stack(hist).reshape(2, n_attr, width)

    def leaf(tot):
        wp, wq = w * tot
        if abs(wp - wq) <= LEAF_SMOOTHING:
            return Node(leaf=0.0)
        return Node(leaf=c_bound if wp > wq else -c_bound)

    def grow(idx, hist, tot, depth):
        n_rows = tot.sum()
        if depth >= cfg.max_depth or n_rows < 2 * cfg.min_leaf_count:
            return leaf(tot)
        # the left side of `le v` is a prefix of the value axis, of `eq v` one bin
        left = np.where(ordinal, np.cumsum(hist, axis=2), hist)
        right = tot[:, None, None] - left
        n_left = left.sum(axis=0)
        valid = exists & (n_left >= cfg.min_leaf_count) & (n_rows - n_left >= cfg.min_leaf_count)
        wc = w[:, None, None]  # class weights, broadcast over the grid
        gains = _gini_terms(*(w * tot)) - (_gini_terms(*(wc * left)) + _gini_terms(*(wc * right)))
        gains = np.where(valid, gains, -np.inf)
        # first occurrence in row-major order: lowest attribute, then lowest value
        f, value = divmod(int(np.argmax(gains)), width)
        if gains[f, value] <= _GAIN_TOL:
            return leaf(tot)
        op = "le" if ordinal[f, 0] else "eq"
        col = X[idx, f]
        mask = (col <= value) if op == "le" else (col == value)
        node = Node(attr=f, op=op, value=value)
        kids = [idx[mask], idx[~mask]]
        hists = [None, None]
        if depth + 1 < cfg.max_depth:
            # sibling subtraction: count the child with fewer cells, the other is the rest
            s = int(len(kids[1]) < len(kids[0]))
            hists[s] = histogram(kids[s])
            hists[1 - s] = hist - hists[s]
        node.left = grow(kids[0], hists[0], left[:, f, value], depth + 1)
        node.right = grow(kids[1], hists[1], right[:, f, value], depth + 1)
        return node

    every = np.arange(len(cells))
    root = grow(every, histogram(every), counts.sum(axis=1), 0)
    return DecisionTreeClassifier(root=root, c_bound=c_bound)


def boosting_regime(gamma_p: float, gamma_q: float) -> str:
    """The regime label of normalized margins, from the KL-drop analysis.

    Any nonpositive margin is a weak-learning failure; otherwise the
    model-side margin decides between the high (gamma_q >= 1/3) and low
    (0 < gamma_q < 1/3) boosting regimes.
    """
    if gamma_p <= 0 or gamma_q <= 0:
        return FAIL
    return HBS if gamma_q >= 1.0 / 3.0 else LBS


@dataclass(frozen=True)
class WlaEstimate:
    """Normalized margins gamma_p = E_P[c]/C and gamma_q = E_Q[-c]/C, and
    their ``boosting_regime``."""

    gamma_p: float
    gamma_q: float
    regime: str


def estimate_wla(classifier, p_samples: Dataset, q_samples: Dataset) -> WlaEstimate:
    if len(p_samples) == 0 or len(q_samples) == 0:
        raise ValueError("empty sample side")
    C = classifier.c_bound
    gamma_p = float(classifier.scores(p_samples.x_rows()).mean()) / C
    gamma_q = -float(classifier.scores(q_samples.x_rows()).mean()) / C
    return WlaEstimate(gamma_p, gamma_q, boosting_regime(gamma_p, gamma_q))
