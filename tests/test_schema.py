"""Schema, attribute, and dataset plumbing."""

import numpy as np
import pytest

from fairboost import Attribute, AttributeSchema, Dataset
from fairboost.schema import MAX_CELLS
from fairboost.pipeline import _equal_width_edges

from conftest import dataset_from_rows, group_matrix, xa_schema, xya_schema


def test_attribute_kinds():
    cat = Attribute("color", 3, categories=("r", "g", "b"))
    assert not cat.is_ordinal
    binned = Attribute("x", 4, bin_edges=(0.0, 1.0, 2.0, 3.0, 4.0))
    assert binned.is_ordinal


def test_attribute_validation():
    with pytest.raises(ValueError, match="cardinality"):
        Attribute("x", 0)
    with pytest.raises(ValueError, match="categories"):
        Attribute("x", 3, categories=("a", "b"))
    with pytest.raises(ValueError, match="bin edges"):
        Attribute("x", 3, bin_edges=(0.0, 1.0))
    with pytest.raises(ValueError, match="nonempty"):
        Attribute("", 2)


@pytest.mark.parametrize("edge", [float("nan"), float("inf"), 5.0, -1.0])
def test_attribute_bin_edges_finite_and_non_decreasing(edge):
    edges = [0.0, 1.0, 2.0, 3.0]
    edges[1] = edge
    with pytest.raises(ValueError, match="^attribute 'x': bin edges must be finite and non-decreasing$"):
        Attribute("x", 3, bin_edges=tuple(edges))


def test_attribute_takes_repeated_bin_edges():
    # 50 bins over a one-ulp range: linspace repeats edges, and such a fit must still load
    edges = _equal_width_edges(1.0, float(np.nextafter(1.0, 2.0)), 50)
    assert len(set(edges.tolist())) < len(edges)
    assert Attribute("x", 50, bin_edges=tuple(edges.tolist())).is_ordinal


def test_schema_shape_and_encoding():
    s = xya_schema(nx=3, ny=2, na=2)
    assert s.shape == (3, 2, 2)
    assert s.n_cells == 12
    cells = s.all_cells()
    codes = s.encode(cells)
    assert np.array_equal(s.decode(codes), cells)
    assert sorted(codes) == list(range(12))
    assert int(s.encode(cells[7:8])[0]) == 7
    with pytest.raises(ValueError, match=r"^coordinate rows must be an \(n, n_attributes\) matrix, got shape \(3,\)$"):
        s.encode(cells[7])


def test_schema_counts_cells_exactly_and_refuses_more_than_one_table_holds():
    # 60000^4 * 2 cells are past int64, where a product in int64 wraps to 7473255926290448384
    assert AttributeSchema((Attribute("x", MAX_CELLS),), sensitive_index=None).n_cells == MAX_CELLS == 2**60 - 1
    with pytest.raises(ValueError, match=rf"^the domain has {60_000**4 * 2} cells, .* table can index \({MAX_CELLS}\)$"):
        AttributeSchema((*(Attribute(f"f{j}", 60_000) for j in range(4)), Attribute("a", 2)), sensitive_index=4)


def test_schema_validation():
    with pytest.raises(ValueError, match="sensitive_index"):
        AttributeSchema(attributes=(Attribute("x", 2),), sensitive_index=5)
    with pytest.raises(ValueError, match="distinct"):
        AttributeSchema(
            attributes=(Attribute("x", 2), Attribute("x", 2)), sensitive_index=0
        )
    with pytest.raises(ValueError, match="differ"):
        AttributeSchema(
            attributes=(Attribute("x", 2), Attribute("a", 2)),
            sensitive_index=1,
            target_index=1,
        )


def test_x_subschema_excludes_sensitive():
    s = xya_schema()
    xs = s.x_subschema()
    assert [a.name for a in xs.attributes] == ["x", "y"]
    assert xs.sensitive_index is None and xs.target_index is None
    assert s.index_of("a") == 2


def test_split_and_join_rows():
    s = xya_schema(nx=3)
    rows = np.array([[0, 1, 0], [2, 0, 1], [1, 1, 1]])
    d = Dataset(s, rows)
    x_rows, a_codes = d.x_rows(), d.sensitive_codes()
    assert x_rows.shape == (3, 2)
    assert list(a_codes) == [0, 1, 1]
    assert np.array_equal(np.insert(x_rows, s.sensitive_index, a_codes, axis=1), rows)


def test_group_matrix_round_trip(rng):
    # row a holds group a's cells in the row-major order of the feature cells, so indexing it
    # by each cell's group and feature cell gives the flat vector back
    s = xya_schema(nx=3)
    mass = rng.random(s.n_cells)
    mat = group_matrix(s, mass)
    assert mat.shape == (2, 6)
    d = Dataset(s, s.all_cells())
    assert np.array_equal(mat[d.sensitive_codes(), s.x_subschema().encode(d.x_rows())], mass)


def test_dataset_basics():
    s = xa_schema()
    d = dataset_from_rows(s, [[0, 0], [1, 1], [1, 0]])
    assert len(d) == 3
    assert d.cells().tolist() == [0, 3, 2]  # x * 2 + a
    assert list(d.sensitive_codes()) == [0, 1, 0]
    assert d.x_rows().shape == (3, 1)
    assert not d.rows.flags.writeable


def test_dataset_subset():
    s = xa_schema()
    d = dataset_from_rows(s, [[0, 0], [1, 1], [1, 0], [1, 0]])
    sub = d.subset(np.array([2, 0, 3]))
    assert len(sub) == 3
    assert sub.rows.tolist() == [[1, 0], [0, 0], [1, 0]]
    assert list(sub.sensitive_codes()) == [0, 0, 0]


def test_dataset_validation():
    s = xa_schema()
    with pytest.raises(ValueError, match="out of range"):
        dataset_from_rows(s, [[0, 2]])
    with pytest.raises(ValueError, match="out of range"):
        dataset_from_rows(s, [[0, 0], [-1, 1]])
    with pytest.raises(ValueError, match="rows"):
        Dataset(s, np.zeros((2, 3), dtype=np.int64))
