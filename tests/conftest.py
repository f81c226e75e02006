"""Shared builders for small discrete domains, random tables, and stacks."""

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from fairboost import (
    Attribute,
    AttributeSchema,
    BoostedDensity,
    Dataset,
    InitialDensity,
    TabularDensity,
    estimate_wla,
)
from fairboost.boosted import _checked_scores

LN2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class TableClassifier:
    """A bounded score tabulated over the feature cells: the direct form of
    the classifier protocol the boosted stack takes (``c_bound``, ``scores``
    over feature rows, ``domain_scores`` over every feature cell)."""

    x_schema: AttributeSchema
    values: np.ndarray
    c_bound: float

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64).reshape(-1)
        if vals.shape != (self.x_schema.n_cells,):
            raise ValueError("values must cover every feature cell")
        if not np.isfinite(vals).all():
            raise ValueError("classifier unbounded")
        if np.abs(vals).max(initial=0.0) > self.c_bound + 1e-12:
            raise ValueError("values exceed c_bound")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def scores(self, x_rows: np.ndarray) -> np.ndarray:
        return self.values[self.x_schema.encode(x_rows)]

    def domain_scores(self, x_schema: AttributeSchema) -> np.ndarray:
        return self.values.copy()  # a fresh buffer, as a round consumes its paint


def xa_schema(nx=2, na=2):
    """Feature x then sensitive a."""
    return AttributeSchema(
        attributes=(Attribute("x", nx), Attribute("a", na)),
        sensitive_index=1,
    )


def xya_schema(nx=2, ny=2, na=2):
    """Feature x, target y, sensitive a."""
    return AttributeSchema(
        attributes=(Attribute("x", nx), Attribute("y", ny), Attribute("a", na)),
        sensitive_index=2,
        target_index=1,
    )


def density(schema, mass):
    arr = np.asarray(mass, dtype=np.float64)
    return TabularDensity(schema, arr / arr.sum())


def random_density(schema, rng, floor=0.01):
    vals = rng.random(schema.n_cells) + floor
    return TabularDensity(schema, vals / vals.sum())


def random_initial(schema, rng, floor=0.05):
    """Anchor with random strictly positive per-group conditionals."""
    card = schema.sensitive.cardinality
    n_x = schema.x_subschema().n_cells
    cond = rng.random((card, n_x)) + floor
    cond /= cond.sum(axis=1, keepdims=True)
    return InitialDensity(schema, cond)


def uniform_initial(schema):
    card = schema.sensitive.cardinality
    n_x = schema.x_subschema().n_cells
    cond = np.full((card, n_x), 1.0 / n_x)
    return InitialDensity(schema, cond)


def table_classifier(schema, values, c_bound=LN2):
    return TableClassifier(
        x_schema=schema.x_subschema(),
        values=np.asarray(values, dtype=np.float64),
        c_bound=c_bound,
    )


def extend(bd, classifier, theta):
    """``bd.extended`` on the classifier's checked paint, as the fit's round step passes it."""
    return bd.extended(classifier, theta, _checked_scores(bd.q0.x_schema, classifier))


def wla(classifier, p, q):
    """``estimate_wla`` on the classifier's checked paint, as the fit's round step passes it."""
    return estimate_wla(classifier, p, q, _checked_scores(p.schema.x_subschema(), classifier))


def random_stack(schema, rng, rounds, c_bound=LN2, theta_scale=0.3, q0=None):
    """Anchor plus `rounds` random bounded-classifier tilts."""
    bd = BoostedDensity(q0 if q0 is not None else random_initial(schema, rng))
    n_x = schema.x_subschema().n_cells
    for _ in range(rounds):
        values = rng.uniform(-c_bound, c_bound, size=n_x)
        theta = float(rng.uniform(0.0, theta_scale))
        bd = extend(bd, table_classifier(schema, values, c_bound), theta)
    return bd


def group_matrix(schema, mass):
    """A flat cell vector as an (|A|, n_x_cells) matrix: row a is group a's
    slice in row-major feature-cell order (the layout of ``InitialDensity.cond``)."""
    cube = np.moveaxis(np.asarray(mass).reshape(schema.shape), schema.sensitive_index, 0)
    return cube.reshape(schema.sensitive.cardinality, -1)


def tree_nodes(tree):
    """A tree as plain values, for comparing two trees: its score bound and
    nested (attr, op, value, left, right) splits down to the leaf values."""

    def node(n):
        return n.leaf if n.is_leaf else (n.attr, n.op, n.value, node(n.left), node(n.right))

    return tree.c_bound, node(tree.root)


def read_json(path):
    """``json.load`` of the file at ``path``."""
    with open(path) as fh:
        return json.load(fh)


def dataset_from_rows(schema, rows):
    return Dataset(schema, np.asarray(rows, dtype=np.int64))


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
