"""Decision-tree weak learner producing a bounded score over the feature cells.

The trainer solves a two-class problem (rows of P against rows drawn from the
current model) by greedy top-down induction on weighted Gini impurity.  The
two sides are rescaled to equal total mass first, so an oversampled negative
pool steers variance down without biasing every leaf toward the model class.
Ordinal attributes (those carrying bin edges) get threshold splits on the bin
index; the rest get one-vs-rest category splits.  Leaves cast a full-strength
vote at the score bound:

    v = +C where the P mass leads, -C where it trails,
    v = 0 where |w_P - w_Q| <= LEAF_SMOOTHING = 1 (too close to call)

Saturated votes spend the whole budget the bound C allows per round, which
matters because the leveraging coefficients multiplying the score are small;
a proportional leaf value would shrink exactly when the boosting stack needs
its last few rounds to keep moving.  The abstention margin, a fixed one
unit of (balanced) sample mass, keeps leaves quiet where the class masses
differ by no more than that, so indistinguishable sides yield a zero tree
rather than sign noise.  Induction is deterministic: candidate splits are
scanned in ascending attribute order and ascending split value, and only a
strictly better Gini gain displaces the incumbent, so ties resolve to the
lowest attribute index, then the lowest split value.  The sensitive
attribute is never part of the feature set.
"""

from __future__ import annotations

import math
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
    c_bound: float = math.log(2.0)

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_leaf_count < 1:
            raise ValueError("min_leaf_count must be >= 1")
        if self.c_bound <= 0:
            raise ValueError("c_bound must be > 0")


class Node:
    """One tree node; either a split (attr/op/value) or a leaf value."""

    __slots__ = ("attr", "name", "op", "value", "left", "right", "leaf")

    def __init__(self, attr=None, name=None, op=None, value=None, left=None, right=None, leaf=None):
        self.attr = attr
        self.name = name
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

    def depth(self) -> int:
        def walk(node):
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    def split_names(self) -> set:
        """Every attribute name used by some split (feature-hygiene checks)."""
        names = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                names.add(node.name)
                stack.extend([node.left, node.right])
        return names

    def to_dict(self) -> dict:
        def encode(node):
            if node.is_leaf:
                return {"leaf": float(node.leaf)}
            return {
                "attr": node.name,
                "split": {"op": node.op, "value": int(node.value)},
                "left": encode(node.left),
                "right": encode(node.right),
            }

        return {"type": "tree", "c_bound": float(self.c_bound), "root": encode(self.root)}

    @staticmethod
    def from_dict(d: dict, x_schema: AttributeSchema) -> "DecisionTreeClassifier":
        """Decode a stored tree, rejecting any node a fitted tree cannot have."""
        c_bound = float(d["c_bound"])
        if not (math.isfinite(c_bound) and c_bound > 0):
            raise ValueError(f"tree c_bound must be finite and > 0, got {c_bound!r}")

        def decode(obj):
            if "leaf" in obj:
                leaf = float(obj["leaf"])
                if not (math.isfinite(leaf) and abs(leaf) <= c_bound + 1e-12):
                    raise ValueError(f"tree leaf {leaf!r} is not a finite value in [-c_bound, c_bound]")
                return Node(leaf=leaf)
            attr = x_schema.index_of(obj["attr"])
            split = obj["split"]
            op, value = split["op"], int(split["value"])
            if op not in ("le", "eq"):
                raise ValueError(f"tree split op must be 'le' or 'eq', got {op!r}")
            card = x_schema.attributes[attr].cardinality
            if not (0 <= value < card):
                raise ValueError(f"tree split value {value} on {obj['attr']!r} is outside [0, {card})")
            return Node(
                attr=attr,
                name=obj["attr"],
                op=op,
                value=value,
                left=decode(obj["left"]),
                right=decode(obj["right"]),
            )

        return DecisionTreeClassifier(root=decode(d["root"]), c_bound=c_bound)


def _gini_terms(wp, wq):
    """Weighted Gini impurity contribution s * (1 - (wp/s)^2 - (wq/s)^2)."""
    s = wp + wq
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(s > 0, s - (wp * wp + wq * wq) / np.where(s > 0, s, 1.0), 0.0)
    return out


def _best_split_for_column(col, is_p, w, counts_card, ordinal, min_leaf):
    """(gain, split_value) of the best valid split on one column, or None.

    Works on per-value aggregates so a column costs O(n + cardinality):
    threshold sweeps use prefix sums of the value-indexed class weights,
    one-vs-rest uses them directly.
    """
    wp_by = np.bincount(col, weights=w * is_p, minlength=counts_card)
    wq_by = np.bincount(col, weights=w * (~is_p), minlength=counts_card)
    n_by = np.bincount(col, minlength=counts_card)
    wp_tot, wq_tot, n_tot = wp_by.sum(), wq_by.sum(), n_by.sum()
    parent = _gini_terms(np.array([wp_tot]), np.array([wq_tot]))[0]

    if ordinal:
        lp = np.cumsum(wp_by)[:-1]
        lq = np.cumsum(wq_by)[:-1]
        ln = np.cumsum(n_by)[:-1]
        values = np.arange(counts_card - 1)
    else:
        lp, lq, ln = wp_by, wq_by, n_by
        values = np.arange(counts_card)
    rp, rq, rn = wp_tot - lp, wq_tot - lq, n_tot - ln
    valid = (ln >= min_leaf) & (rn >= min_leaf)
    if not valid.any():
        return None
    gains = parent - (_gini_terms(lp, lq) + _gini_terms(rp, rq))
    # first occurrence of the largest valid gain: the lowest split value wins ties
    i = int(np.argmax(np.where(valid, gains, -np.inf)))
    return float(gains[i]), int(values[i])


def train_tree(p_samples: Dataset, q_samples: Dataset, cfg: TreeConfig) -> DecisionTreeClassifier:
    """Fit the P-vs-Q tree; deterministic through its tie-breaking rules."""
    if len(p_samples) == 0 or len(q_samples) == 0:
        raise ValueError("empty sample side")
    x_schema = p_samples.schema.x_subschema()
    if q_samples.schema.x_subschema() != x_schema:
        raise ValueError("schema mismatch")

    X = np.vstack([p_samples.x_rows(), q_samples.x_rows()])
    is_p = np.zeros(len(X), dtype=bool)
    is_p[: len(p_samples)] = True
    n_p, n_q = len(p_samples), len(q_samples)
    # equalize class masses; keeps the count scale so min_leaf/smoothing stay meaningful
    target = 0.5 * (n_p + n_q)
    w = np.where(is_p, target / n_p, target / n_q)
    cards = [a.cardinality for a in x_schema.attributes]
    ordinal = [a.is_ordinal for a in x_schema.attributes]
    C = cfg.c_bound

    def leaf(idx):
        wp = float(w[idx][is_p[idx]].sum())
        wq = float(w[idx][~is_p[idx]].sum())
        if abs(wp - wq) <= LEAF_SMOOTHING:
            return Node(leaf=0.0)
        return Node(leaf=C if wp > wq else -C)

    def grow(idx, depth):
        if depth >= cfg.max_depth or len(idx) < 2 * cfg.min_leaf_count:
            return leaf(idx)
        best = None  # (gain, attr, value, op)
        for f in range(X.shape[1]):
            if cards[f] < 2:
                continue
            found = _best_split_for_column(
                X[idx, f], is_p[idx], w[idx], cards[f], ordinal[f], cfg.min_leaf_count
            )
            if found is not None and (best is None or found[0] > best[0]):
                best = (found[0], f, found[1], "le" if ordinal[f] else "eq")
        if best is None or best[0] <= _GAIN_TOL:
            return leaf(idx)
        _, f, value, op = best
        col = X[idx, f]
        mask = (col <= value) if op == "le" else (col == value)
        node = Node(attr=f, name=x_schema.attributes[f].name, op=op, value=value)
        node.left = grow(idx[mask], depth + 1)
        node.right = grow(idx[~mask], depth + 1)
        return node

    root = grow(np.arange(len(X)), 0)
    return DecisionTreeClassifier(root=root, c_bound=C)


@dataclass(frozen=True)
class WlaEstimate:
    """Normalized margins gamma_p = E_P[c]/C and gamma_q = E_Q[-c]/C.

    The regime labels come from the KL-drop analysis: the model-side margin
    decides between the high (gamma_q >= 1/3) and low (0 < gamma_q < 1/3)
    boosting regimes, and any nonpositive margin is a weak-learning failure.
    """

    gamma_p: float
    gamma_q: float
    regime: str


def estimate_wla(classifier, p_samples: Dataset, q_samples: Dataset) -> WlaEstimate:
    if len(p_samples) == 0 or len(q_samples) == 0:
        raise ValueError("empty sample side")
    C = classifier.c_bound
    gamma_p = float(classifier.scores(p_samples.x_rows()).mean()) / C
    gamma_q = -float(classifier.scores(q_samples.x_rows()).mean()) / C
    if gamma_p <= 0 or gamma_q <= 0:
        regime = FAIL
    elif gamma_q >= 1.0 / 3.0:
        regime = HBS
    else:
        regime = LBS
    return WlaEstimate(gamma_p, gamma_q, regime)
