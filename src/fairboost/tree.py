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
count; a bin's class mass is then the class weight times its count.  The
tree grows one depth level at a time, as XGBoost's depth-wise growth does:
the level's nodes share one (class, node, attribute, value) histogram
array, filled by one bincount per class over each cell's node slot, and
all of them are searched in one vectorized pass over padded
attribute-by-value grids: prefix sums along the value axis give the
threshold candidates of ordinal attributes, the bins themselves the
one-vs-rest candidates of the rest.  So the number of numpy calls grows
with the depth, not with the number of nodes; only building the ``Node``
objects loops over a level.  The prefix sums are taken in place in the
histogram, and the Gini terms summed in place, so the search holds few
histogram-sized arrays at once: a fit runs it beside its whole-domain
workspace.  The counts are integers held in float64, so
every sum is exact in any order.  The min-leaf and stopping rules count
rows, never cells.  With the fit's two negatives per data row the class
weights are 3/2 and 3/4, so the gains equal row-by-row sums bit for bit.

Induction is deterministic: among a node's candidates with the largest
Gini gain the first in row-major grid order wins, so ties resolve to the
lowest attribute index, then the lowest split value, and a split is made
only when its gain exceeds a small tolerance.  A tree knows nothing of its
stored form, which ``serialize`` writes and reads, holding each stored leaf
to the three votes above.

A round's two sample margins are read from the tree's paint by
``estimate_wla`` as a (gamma_p, gamma_q) pair, and ``boosting_regime``
labels them; the fit writes both into the round's ``TraceRow``, whose rule
checks the label.
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
    """Weighted Gini impurity contribution s * (1 - (wp/s)^2 - (wq/s)^2), computed as
    s - (wp^2 + wq^2) / s where s = wp + wq > 0 and 0 elsewhere, in a fresh array; wp and wq
    are left as they are."""
    s = wp + wq
    empty = s <= 0
    out = np.multiply(wp, wp)
    out += wq * wq
    out /= np.where(empty, 1.0, s)
    np.subtract(s, out, out=out)
    np.copyto(out, 0.0, where=empty)
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
    bins = x_schema.decode(cells)
    del rows, inverse, cells
    # equalize class masses; keeps the count scale so min_leaf/smoothing stay meaningful
    target = 0.5 * (n_p + n_q)
    w = np.array([target / n_p, target / n_q])
    # candidates on a padded (attribute, value) grid: thresholds v < card-1 on
    # ordinal attributes, every category on the rest
    cards = np.array(x_schema.shape, dtype=np.int64)[:, None]
    n_attr, width = len(cards), int(cards.max(initial=1))
    ordinal = np.array([a.is_ordinal for a in x_schema.attributes])[:, None]
    exists = (cards >= 2) & (np.arange(width) < np.where(ordinal, cards - 1, cards))
    bins += width * np.arange(n_attr)  # grid position of each cell's value, per attribute

    def leaves(tot):
        """Each node's leaf value from its (class, node) row totals."""
        wp, wq = w[:, None] * tot
        return np.where(np.abs(wp - wq) <= LEAF_SMOOTHING, 0.0, np.where(wp > wq, c_bound, -c_bound)).tolist()

    # one level at a time: its nodes, their (class, node) row totals, and the
    # node slot of every cell still inside a node that may split
    root = Node()
    level, tot = [root], counts.sum(axis=1)[:, None]
    cell, slot = np.arange(counts.shape[1]), np.zeros(counts.shape[1], dtype=np.int64)
    for _ in range(cfg.max_depth):
        k = len(level)
        # the level's (class, node, attribute, value) histogram, one bincount per class
        key = (np.take(bins, cell, axis=0) + n_attr * width * slot[:, None]).ravel()
        hist = np.empty((2, k * n_attr * width))
        for h, c in zip(hist, counts):
            h[...] = np.bincount(key, weights=np.repeat(c[cell], n_attr), minlength=k * n_attr * width)
        del key
        # the left side of `le v` is a prefix of the value axis, of `eq v` one bin, so the
        # prefix sums of the ordinal attributes, taken in place, make the histogram the left sides;
        # a node of fewer than 2 * min_leaf_count rows has no valid candidate
        left = hist.reshape(2, k, n_attr, width)
        for a in np.flatnonzero(ordinal[:, 0]):
            np.cumsum(left[:, :, a], axis=2, out=left[:, :, a])
        right = tot[:, :, None, None] - left
        n_left = left.sum(axis=0)
        n_rows = tot.sum(axis=0)[:, None, None]
        valid = exists & (n_left >= cfg.min_leaf_count) & (n_rows - n_left >= cfg.min_leaf_count)
        del n_left
        wc = w[:, None, None, None]  # class weights, broadcast over the nodes' grids
        parent = _gini_terms(*(w[:, None] * tot))[:, None, None]
        gains = _gini_terms(*(wc * left))
        gains += _gini_terms(*(wc * right))
        np.subtract(parent, gains, out=gains)
        np.copyto(gains, -np.inf, where=~valid)
        gains = gains.reshape(k, -1)
        # first occurrence in row-major order: lowest attribute, then lowest value
        best = np.argmax(gains, axis=1)
        split = gains[np.arange(k), best] > _GAIN_TOL
        f, value = np.divmod(best, width)
        s = np.flatnonzero(split)
        tot_next = np.stack([left[:, s, f[s], value[s]], right[:, s, f[s], value[s]]], axis=2).reshape(2, -1)
        # cells of split nodes move to their child: 2 * (rank among the splits) + (0 left, 1 right)
        live = split[slot]
        cell, slot = cell[live], slot[live]
        fv, vv = f[slot], value[slot]
        col = bins[cell, fv] - width * fv
        slot = 2 * (np.cumsum(split) - 1)[slot] + np.where(ordinal[fv, 0], col > vv, col != vv)
        next_level = []
        for node, splits, fi, vi, leaf in zip(level, split.tolist(), f.tolist(), value.tolist(), leaves(tot)):
            if splits:
                node.attr, node.op, node.value = fi, "le" if ordinal[fi, 0] else "eq", vi
                node.left, node.right = Node(), Node()
                next_level += (node.left, node.right)
            else:
                node.leaf = leaf
        level, tot = next_level, tot_next
        if not level:
            break
    for node, leaf in zip(level, leaves(tot)):
        node.leaf = leaf
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


def estimate_wla(classifier, p_samples: Dataset, q_samples: Dataset, scores: np.ndarray) -> tuple[float, float]:
    """The classifier's normalized sample margins gamma_p = E_P[c]/C and
    gamma_q = E_Q[-c]/C, read from its paint; ``boosting_regime`` labels them.

    ``scores`` is the classifier's checked ``domain_scores``
    (``boosted._checked_scores``).  Each row's score is read from it at the
    row's feature cell, the value a tree's row walk gives the row, in the
    same order, so the means carry the same bits.
    """
    if len(p_samples) == 0 or len(q_samples) == 0:
        raise ValueError("empty sample side")
    x_schema = p_samples.schema.x_subschema()
    C = classifier.c_bound
    gamma_p = float(scores[x_schema.encode(p_samples.x_rows())].mean()) / C
    gamma_q = -float(scores[x_schema.encode(q_samples.x_rows())].mean()) / C
    return gamma_p, gamma_q
