"""Weak learner: greedy tree induction, hard-vote leaves, margin estimation."""

import dataclasses
import math

import numpy as np
import pytest

from fairboost import (
    Attribute,
    AttributeSchema,
    Dataset,
    DecisionTreeClassifier,
    TreeConfig,
    train_tree,
)

from conftest import LN2, table_classifier, tree_nodes, wla, xa_schema
from fairboost.tree import _GAIN_TOL, FAIL, HBS, LBS, LEAF_SMOOTHING, Node, _gini_terms

CFG = TreeConfig()


def two_feature_schema(n1=4, n2=4):
    """Two ordinal features plus the sensitive column the learner must ignore."""
    return AttributeSchema(
        attributes=(
            Attribute("f1", n1, bin_edges=tuple(float(i) for i in range(n1 + 1))),
            Attribute("f2", n2, bin_edges=tuple(float(i) for i in range(n2 + 1))),
            Attribute("a", 2),
        ),
        sensitive_index=2,
    )


def with_a(feature_rows):
    rows = np.asarray(feature_rows, dtype=np.int64)
    return np.column_stack([rows, np.zeros(len(rows), dtype=np.int64)])


def cell_scores(tree, schema):
    return tree.scores(schema.x_subschema().all_cells())


def tree_depth(tree):
    """Number of splits on the longest root-to-leaf path."""

    def below(node):
        return 0 if node.is_leaf else 1 + max(below(node.left), below(node.right))

    return below(tree.root)


def split_names(tree, schema):
    """Every attribute name some split of the tree uses; split attributes
    index the features of `schema`."""
    names, stack = set(), [tree.root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            names.add(schema.x_subschema().attributes[node.attr].name)
            stack.extend([node.left, node.right])
    return names


def walk(node, x_row):
    while not node.is_leaf:
        col = np.array([x_row[node.attr]])
        node = node.left if bool(node.goes_left(col)[0]) else node.right
    return node


# -- basic induction ----------------------------------------------------


def test_separable_one_feature():
    s = two_feature_schema(n1=4, n2=1)
    p = Dataset(s, with_a([[c, 0] for c in (0, 1) for _ in range(10)]))
    q = Dataset(s, with_a([[c, 0] for c in (2, 3) for _ in range(10)]))
    tree = train_tree(p, q, CFG, LN2)
    assert tree_depth(tree) == 1
    scores = cell_scores(tree, s)
    assert np.allclose(scores, [LN2, LN2, -LN2, -LN2])


def test_identical_sides_yield_abstaining_tree():
    s = two_feature_schema()
    rows = with_a([[i % 4, (i // 4) % 4] for i in range(32)])
    tree = train_tree(Dataset(s, rows), Dataset(s, rows), CFG, LN2)
    assert tree_depth(tree) == 0
    assert np.all(cell_scores(tree, s) == 0.0)
    est = wla(tree, Dataset(s, rows), Dataset(s, rows))
    assert est.gamma_p == 0.0
    assert est.gamma_q == 0.0
    assert est.regime == FAIL


def test_oversampled_negatives_do_not_bias_leaves():
    # Q drawn as two copies of P must look identical after balancing:
    # every region ties exactly, so the tree abstains everywhere
    s = two_feature_schema()
    base = [[i % 4, (i * 7 + 1) % 4] for i in range(24)]
    p = Dataset(s, with_a(base))
    q = Dataset(s, with_a(base + base))
    tree = train_tree(p, q, CFG, LN2)
    assert tree_depth(tree) == 0
    assert np.all(cell_scores(tree, s) == 0.0)


def test_rectangle_recovered_at_depth_two():
    s = two_feature_schema()
    p_cells = [(i, j) for i in (0, 1) for j in (0, 1)]
    q_cells = [(i, j) for i in range(4) for j in range(4) if (i, j) not in p_cells]
    p = Dataset(s, with_a([c for c in p_cells for _ in range(8)]))
    q = Dataset(s, with_a([c for c in q_cells for _ in range(8)]))
    tree = train_tree(p, q, CFG, LN2)
    assert tree_depth(tree) == 2
    scores = tree.scores(s.x_subschema().all_cells())
    want = np.array([LN2 if (i, j) in p_cells else -LN2 for i in range(4) for j in range(4)])
    assert np.allclose(scores, want)


def test_min_leaf_blocks_tiny_splits():
    s = two_feature_schema(n1=2, n2=1)
    p = Dataset(s, with_a([[0, 0]] * 3))
    q = Dataset(s, with_a([[1, 0]] * 3))
    tree = train_tree(p, q, TreeConfig(min_leaf_count=5), LN2)
    assert tree_depth(tree) == 0
    assert np.all(cell_scores(tree, s) == 0.0)  # tie at the root abstains


def test_max_depth_one_caps_growth():
    s = two_feature_schema()
    p_cells = [(i, j) for i in (0, 1) for j in (0, 1)]
    q_cells = [(i, j) for i in range(4) for j in range(4) if (i, j) not in p_cells]
    p = Dataset(s, with_a([c for c in p_cells for _ in range(8)]))
    q = Dataset(s, with_a([c for c in q_cells for _ in range(8)]))
    tree = train_tree(p, q, TreeConfig(max_depth=1), LN2)
    assert tree_depth(tree) == 1
    scores = cell_scores(tree, s).reshape(4, 4)
    assert np.all(scores[2:, :] == -LN2)  # pure Q half
    assert np.all(scores[:2, :] == LN2)  # majority-P half votes P everywhere


def test_training_is_deterministic(rng):
    s = two_feature_schema()
    rows_p = with_a(rng.integers(0, 4, size=(60, 2)))
    rows_q = with_a(rng.integers(0, 4, size=(90, 2)))
    p, q = Dataset(s, rows_p), Dataset(s, rows_q)
    t1 = train_tree(p, q, CFG, LN2)
    t2 = train_tree(p, q, CFG, LN2)
    assert tree_nodes(t1) == tree_nodes(t2)


def test_ties_resolve_to_lowest_attribute_and_value():
    s = two_feature_schema(n1=3, n2=3)
    # f2 mirrors f1 exactly, and codes skip 1, so splits le-0 and le-1
    # tie on both features; the winner must be attr 0 at value 0
    p = Dataset(s, with_a([[0, 0]] * 10))
    q = Dataset(s, with_a([[2, 2]] * 10))
    tree = train_tree(p, q, CFG, LN2)
    assert tree.root.attr == 0
    assert tree.root.value == 0


def test_scores_are_saturated_votes(rng):
    s = two_feature_schema()
    p = Dataset(s, with_a(rng.integers(0, 4, size=(120, 2))))
    q = Dataset(s, with_a(rng.integers(0, 4, size=(180, 2))))
    tree = train_tree(p, q, CFG, LN2)
    scores = cell_scores(tree, s)
    for v in scores:
        assert min(abs(v - LN2), abs(v + LN2), abs(v)) < 1e-15


def test_deeper_partitions_never_raise_impurity(rng):
    s = two_feature_schema()
    rows_p = with_a(rng.integers(0, 4, size=(80, 2)))
    rows_q = with_a(np.minimum(rng.integers(0, 4, size=(80, 2)) + rng.integers(0, 2, size=(80, 2)), 3))
    p, q = Dataset(s, rows_p), Dataset(s, rows_q)

    X = np.vstack([p.x_rows(), q.x_rows()])
    is_p = np.zeros(len(X), dtype=bool)
    is_p[: len(p)] = True

    def partition_impurity(tree):
        leaves = {}
        for i, row in enumerate(X):
            leaves.setdefault(id(walk(tree.root, row)), []).append(i)
        total = 0.0
        for idx in leaves.values():
            wp = float(is_p[idx].sum())
            wq = float(len(idx) - wp)
            son = wp + wq
            total += son - (wp * wp + wq * wq) / son
        return total

    prev = None
    for depth in (1, 2, 3, 4):
        cur = partition_impurity(train_tree(p, q, TreeConfig(max_depth=depth), LN2))
        if prev is not None:
            assert cur <= prev + 1e-9
        prev = cur


def test_sensitive_attribute_never_splits(rng):
    s = two_feature_schema()
    # group membership perfectly separates the sides, features are noise
    rows_p = np.column_stack([rng.integers(0, 4, size=(60, 2)), np.zeros(60, dtype=np.int64)])
    rows_q = np.column_stack([rng.integers(0, 4, size=(60, 2)), np.ones(60, dtype=np.int64)])
    tree = train_tree(Dataset(s, rows_p), Dataset(s, rows_q), CFG, LN2)
    assert "a" not in split_names(tree, s)
    assert split_names(tree, s) <= {"f1", "f2"}


def row_level_tree(p, q, cfg, c_bound):
    """Oracle: the trainer the histogram search replaced, one pass over the
    node's rows per attribute, ties to the lowest attribute, then value."""
    x_schema = p.schema.x_subschema()
    X = np.vstack([p.x_rows(), q.x_rows()])
    is_p = np.arange(len(X)) < len(p)
    target = 0.5 * (len(p) + len(q))
    w = np.where(is_p, target / len(p), target / len(q))
    attrs = x_schema.attributes

    def leaf(idx):
        wp, wq = float(w[idx][is_p[idx]].sum()), float(w[idx][~is_p[idx]].sum())
        return Node(leaf=0.0 if abs(wp - wq) <= LEAF_SMOOTHING else (c_bound if wp > wq else -c_bound))

    def grow(idx, depth):
        if depth >= cfg.max_depth or len(idx) < 2 * cfg.min_leaf_count:
            return leaf(idx)
        best = None
        for f, a in enumerate(attrs):
            col, k = X[idx, f], a.cardinality
            wp = np.bincount(col, weights=w[idx] * is_p[idx], minlength=k)
            wq = np.bincount(col, weights=w[idx] * ~is_p[idx], minlength=k)
            n = np.bincount(col, minlength=k)
            parent = _gini_terms(np.array([wp.sum()]), np.array([wq.sum()]))[0]
            if a.is_ordinal:
                lp, lq, ln = np.cumsum(wp)[:-1], np.cumsum(wq)[:-1], np.cumsum(n)[:-1]
            else:
                lp, lq, ln = wp, wq, n
            gains = parent - (_gini_terms(lp, lq) + _gini_terms(wp.sum() - lp, wq.sum() - lq))
            for v in np.flatnonzero((k >= 2) & (ln >= cfg.min_leaf_count) & (len(idx) - ln >= cfg.min_leaf_count)):
                if best is None or gains[v] > best[0]:
                    best = (gains[v], f, int(v))
        if best is None or best[0] <= _GAIN_TOL:
            return leaf(idx)
        _, f, v = best
        op = "le" if attrs[f].is_ordinal else "eq"
        mask = X[idx, f] <= v if op == "le" else X[idx, f] == v
        node = Node(attr=f, op=op, value=v)
        node.left, node.right = grow(idx[mask], depth + 1), grow(idx[~mask], depth + 1)
        return node

    return DecisionTreeClassifier(root=grow(np.arange(len(X)), 0), c_bound=c_bound)


def random_tree_problem(rng):
    """P and Q rows on a random mixed schema, drawn from a few distinct cells.

    Two P rows per Q row, as the fit draws them, makes every class mass a
    multiple of 1/4, so the row-by-row sums of the oracle are exact.  Some
    attributes copy another's codes and some codes skip values, so gains
    tie across attributes and across split values.
    """
    n_x = int(rng.integers(1, 5))
    cards = rng.integers(1, 13, size=n_x)
    attrs = [
        Attribute(f"f{i}", int(k), bin_edges=tuple(map(float, range(k + 1))) if rng.random() < 0.5 else None)
        for i, k in enumerate(cards)
    ]
    sensitive = int(rng.integers(n_x + 1))
    schema = AttributeSchema(tuple(attrs[:sensitive] + [Attribute("a", 2)] + attrs[sensitive:]), sensitive)
    pool = rng.integers(0, cards, size=(int(rng.integers(1, 16)), n_x))
    if rng.random() < 0.5:
        pool = pool - pool % 2  # skipped codes: neighbouring thresholds tie
    for i in range(1, n_x):
        twins = np.flatnonzero(cards[:i] == cards[i])
        if len(twins) and rng.random() < 0.5:
            pool[:, i] = pool[:, twins[0]]  # a mirrored attribute ties with its twin

    def draw(n):
        x_rows = pool[rng.integers(len(pool), size=n)]
        return Dataset(schema, np.insert(x_rows, sensitive, rng.integers(2, size=n), axis=1))

    n_p = int(rng.integers(1, 60))
    return draw(n_p), draw(2 * n_p)


def test_histogram_tree_matches_row_level_oracle(rng):
    for _ in range(400):
        p, q = random_tree_problem(rng)
        cfg = TreeConfig(max_depth=int(rng.integers(1, 9)), min_leaf_count=int(rng.integers(1, 9)))
        assert tree_nodes(train_tree(p, q, cfg, LN2)) == tree_nodes(row_level_tree(p, q, cfg, LN2))


def wide_tree_problem(rng):
    """P and Q rows over a few hundred distinct cells of a mixed schema.

    Ordinal, categorical and cardinality-1 attributes in random order; P
    draws the pool's cells with skewed weights and Q evenly, so deep trees
    hold dozens of nodes on one level.  Two P rows per Q row keeps the
    oracle's sums exact, as in `random_tree_problem`.
    """
    specs = [(int(rng.integers(6, 13)), True), (int(rng.integers(4, 9)), False), (int(rng.integers(2, 9)), True)]
    specs += [(1, bool(rng.random() < 0.5)), (int(rng.integers(2, 6)), False)]
    attrs = [
        Attribute(f"f{i}", k, bin_edges=tuple(map(float, range(k + 1))) if ordinal else None)
        for i, (k, ordinal) in enumerate(specs[j] for j in rng.permutation(len(specs)))
    ]
    sensitive = int(rng.integers(len(attrs) + 1))
    schema = AttributeSchema(tuple(attrs[:sensitive] + [Attribute("a", 2)] + attrs[sensitive:]), sensitive)
    pool = np.unique(rng.integers(0, [a.cardinality for a in attrs], size=(400, len(attrs))), axis=0)
    skew = rng.random(len(pool)) ** 3

    def draw(n, weights):
        x_rows = pool[rng.choice(len(pool), size=n, p=weights / weights.sum())]
        return Dataset(schema, np.insert(x_rows, sensitive, rng.integers(2, size=n), axis=1))

    n_p = int(rng.integers(300, 600))
    return draw(n_p, skew), draw(2 * n_p, np.ones(len(pool)))


def widest_level(tree):
    """The most nodes, leaves included, that share one depth of the tree."""
    level, widest = [tree.root], 0
    while level:
        widest = max(widest, len(level))
        level = [child for node in level if not node.is_leaf for child in (node.left, node.right)]
    return widest


def test_level_wise_tree_matches_row_level_oracle_on_wide_levels(rng):
    widest = 0
    for depth in range(1, 9):
        for _ in range(3):
            p, q = wide_tree_problem(rng)
            cfg = TreeConfig(max_depth=depth, min_leaf_count=int(rng.integers(1, 5)))
            tree = train_tree(p, q, cfg, LN2)
            assert tree_nodes(tree) == tree_nodes(row_level_tree(p, q, cfg, LN2))
            widest = max(widest, widest_level(tree))
    # the check is not vacuous: some level held many nodes at once
    assert widest >= 32


@pytest.mark.parametrize("p_rows, splits", [(4, False), (5, True), (6, True)])
def test_min_leaf_counts_rows_not_cells(p_rows, splits):
    # P is p_rows copies of one cell, Q twice as many copies of another: the
    # only useful split leaves one distinct cell on each side, and it is
    # valid exactly when that side holds min_leaf_count = 5 rows
    s = two_feature_schema(n1=3, n2=1)
    p = Dataset(s, with_a([[0, 0]] * p_rows))
    q = Dataset(s, with_a([[2, 0]] * (2 * p_rows)))
    tree = train_tree(p, q, TreeConfig(min_leaf_count=5), LN2)
    assert tree_nodes(tree) == tree_nodes(row_level_tree(p, q, TreeConfig(min_leaf_count=5), LN2))
    if splits:
        assert (tree.root.attr, tree.root.op, tree.root.value) == (0, "le", 0)
        assert np.array_equal(cell_scores(tree, s), [LN2, -LN2, -LN2])
    else:
        assert tree_depth(tree) == 0

# -- config and input validation ---------------------------------------


def test_tree_config_validation():
    with pytest.raises(ValueError, match="max_depth must be >= 1"):
        TreeConfig(max_depth=0)
    with pytest.raises(ValueError, match="min_leaf_count must be >= 1"):
        TreeConfig(min_leaf_count=0)
    # the score bound C is the leveraging scheme's, passed to train_tree
    assert [f.name for f in dataclasses.fields(TreeConfig)] == ["max_depth", "min_leaf_count"]


def test_train_tree_input_validation():
    s = two_feature_schema()
    rows = with_a([[0, 0]] * 10)
    with pytest.raises(ValueError, match="empty sample side"):
        train_tree(Dataset(s, np.empty((0, 3))), Dataset(s, rows), CFG, LN2)
    other = two_feature_schema(n1=3)
    with pytest.raises(ValueError, match="schema mismatch"):
        train_tree(Dataset(s, rows), Dataset(other, with_a([[0, 0]] * 10)), CFG, LN2)


def random_tree(x_schema, rng, depth):
    """A tree of at most `depth` splits on random attributes, ops and values.

    Split values are drawn from the whole attribute range, so boxes below a
    split can be empty or left whole by a later split on the same axis.
    """
    leaves = np.array([LN2, -LN2, 0.0, -0.0])

    def grow(d):
        if d == 0 or (d < depth and rng.random() < 0.25):
            leaf = leaves[rng.integers(len(leaves))] if rng.random() < 0.7 else rng.uniform(-LN2, LN2)
            return Node(leaf=float(leaf))
        f = int(rng.integers(len(x_schema.attributes)))
        attr = x_schema.attributes[f]
        op = "le" if rng.random() < 0.5 else "eq"
        node = Node(attr=f, op=op, value=int(rng.integers(attr.cardinality)))
        node.left, node.right = grow(d - 1), grow(d - 1)
        return node

    return DecisionTreeClassifier(root=grow(depth), c_bound=LN2)


@pytest.mark.parametrize("sensitive_index", [0, 2, 4])
@pytest.mark.parametrize("depth", range(7))
def test_domain_scores_paint_every_cell_like_scores(rng, sensitive_index, depth):
    x_attrs = [
        Attribute("o1", 5, bin_edges=tuple(float(i) for i in range(6))),
        Attribute("c1", 3),
        Attribute("o2", 4, bin_edges=tuple(float(i) for i in range(5))),
        Attribute("c2", 2),
    ]
    attrs = x_attrs[:sensitive_index] + [Attribute("a", 2)] + x_attrs[sensitive_index:]
    x_schema = AttributeSchema(tuple(attrs), sensitive_index=sensitive_index).x_subschema()
    cells = x_schema.all_cells()
    for _ in range(20):
        tree = random_tree(x_schema, rng, depth)
        painted = tree.domain_scores(x_schema)
        assert painted.shape == (x_schema.n_cells,)
        # bit patterns, so a -0.0 leaf must paint -0.0
        assert np.array_equal(painted.view(np.uint64), tree.scores(cells).view(np.uint64))


# -- margin estimation --------------------------------------------------


def test_wla_perfect_separation():
    s = xa_schema(nx=2)
    clf = table_classifier(s, [LN2, -LN2])
    p = Dataset(s, [[0, 0]] * 5)
    q = Dataset(s, [[1, 0]] * 5)
    est = wla(clf, p, q)
    assert est.gamma_p == pytest.approx(1.0, abs=1e-12)
    assert est.gamma_q == pytest.approx(1.0, abs=1e-12)
    assert est.regime == HBS


def test_wla_zero_classifier_fails():
    s = xa_schema(nx=2)
    clf = table_classifier(s, [0.0, 0.0])
    p = Dataset(s, [[0, 0]] * 5)
    q = Dataset(s, [[1, 0]] * 5)
    assert wla(clf, p, q).regime == FAIL


def test_wla_low_regime_margin():
    s = xa_schema(nx=2)
    clf = table_classifier(s, [LN2, -LN2])
    p = Dataset(s, [[0, 0]] * 5)
    # model mass 0.6 on the -C cell, 0.4 on the +C cell: gamma_q = 0.2
    q = Dataset(s, [[0, 0]] * 2 + [[1, 0]] * 3)
    est = wla(clf, p, q)
    assert est.gamma_p == pytest.approx(1.0, abs=1e-12)
    assert est.gamma_q == pytest.approx(0.2, abs=1e-12)
    assert est.regime == LBS


def test_wla_regime_boundary_is_high():
    s = xa_schema(nx=2)
    clf = table_classifier(s, [1.0, -1.0], c_bound=1.0)
    p = Dataset(s, [[0, 0]] * 3)
    q = Dataset(s, [[0, 0], [1, 0], [1, 0]])  # gamma_q = 1/3
    est = wla(clf, p, q)
    assert est.gamma_q == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert est.regime == HBS


def test_wla_negative_p_margin_fails():
    s = xa_schema(nx=2)
    clf = table_classifier(s, [-LN2, LN2])
    p = Dataset(s, [[0, 0]] * 5)
    q = Dataset(s, [[1, 0]] * 5)
    assert wla(clf, p, q).regime == FAIL


@pytest.mark.parametrize("sensitive_index", [0, 2])
@pytest.mark.parametrize("depth", range(6))
def test_wla_margins_equal_row_walk_means(rng, sensitive_index, depth):
    x_attrs = [
        Attribute("o1", 6, bin_edges=tuple(float(i) for i in range(7))),
        Attribute("c1", 3),
        Attribute("o2", 4, bin_edges=tuple(float(i) for i in range(5))),
    ]
    attrs = x_attrs[:sensitive_index] + [Attribute("a", 2)] + x_attrs[sensitive_index:]
    schema = AttributeSchema(tuple(attrs), sensitive_index=sensitive_index)
    x_schema = schema.x_subschema()
    upper = np.array(schema.shape)

    def draw(n):
        return Dataset(schema, (rng.random((n, len(upper))) * upper).astype(np.int64))

    for _ in range(10):
        tree = random_tree(x_schema, rng, depth)
        n = int(rng.integers(1, 400))
        p, q = draw(n), draw(int(rng.integers(1, 2 * n + 1)))
        est = wla(tree, p, q)
        assert est.gamma_p == float(tree.scores(p.x_rows()).mean()) / LN2
        assert est.gamma_q == -float(tree.scores(q.x_rows()).mean()) / LN2


def test_wla_empty_side_rejected():
    s = xa_schema(nx=2)
    clf = table_classifier(s, [LN2, -LN2])
    p = Dataset(s, [[0, 0]] * 5)
    with pytest.raises(ValueError, match="empty sample side"):
        wla(clf, p, Dataset(s, np.empty((0, 2))))
