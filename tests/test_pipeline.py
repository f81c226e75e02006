"""CSV ingestion, the synthetic mixture, fold splitting, anchor construction."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from fairboost import (
    BoostedDensity,
    CsvSpec,
    Dataset,
    fit_empirical,
    infer_csv_spec,
    load_csv,
    load_csv_with_schema,
)
from fairboost.pipeline import MixtureParams, build_initial, generate_mixture, kfold, write_mixture_csv

from conftest import xa_schema


def write(path, text):
    path.write_text(text)
    return str(path)


# -- deriving the schema -----------------------------------------------


def test_csv_spec_is_path_schema_and_dataset(tmp_path):
    path = write(tmp_path / "t.csv", "x,a\nred,0\nblue,1\n")
    spec = infer_csv_spec(path, sensitive="a")
    assert [f.name for f in dataclasses.fields(CsvSpec)] == ["path", "schema", "dataset"]
    assert spec == CsvSpec(path, spec.schema, spec.dataset)
    assert spec.dataset.schema == spec.schema
    assert spec.dataset.rows.tolist() == [[0, 0], [1, 1]]
    # load_csv hands back what inference coded, without reading the file again
    ds, schema = load_csv(spec)
    assert ds is spec.dataset and schema is spec.schema


def test_infer_csv_spec_codes_rows_as_load_csv_with_schema_does(tmp_path, rng):
    # categorical text, ordinal floats, a few integer levels (categorical), the
    # sensitive and target columns and an ignored one, in a shuffled header
    n = 500
    cols = {
        "color": rng.choice(["red", "blue", "green", "nan"], n).tolist(),
        "age": [repr(float(v)) for v in rng.normal(40.0, 12.0, n)],
        "name": [f"p{i}" for i in range(n)],
        "grade": [str(v) for v in rng.integers(1, 6, n)],
        "a": rng.choice(["f", "m", "x"], n).tolist(),
        "score": [repr(float(v)) for v in rng.uniform(-1e3, 1e3, n)],
        "y": [str(v) for v in rng.integers(0, 2, n)],
    }
    header = ["score", "a", "name", "color", "y", "age", "grade"]
    lines = [",".join(header)] + [",".join(cols[h][i] for h in header) for i in range(n)]
    path = write(tmp_path / "t.csv", "\n".join(lines) + "\n")
    for bins in (1, 7, 50):
        spec = infer_csv_spec(path, sensitive="a", target="y", bins=bins, ignore=("name",))
        kinds = {a.name: a.is_ordinal for a in spec.schema.attributes}
        assert kinds == {"score": True, "a": False, "color": False, "y": False, "age": True, "grade": False}
        assert np.array_equal(spec.dataset.rows, load_csv_with_schema(path, spec.schema).rows)


def test_infer_csv_spec_rejects_conflicting_roles(tmp_path):
    path = write(tmp_path / "t.csv", "x,a,y\n0.5,0,1\n1.5,1,0\n")
    with pytest.raises(ValueError, match="column 'a' cannot be both sensitive and target"):
        infer_csv_spec(path, sensitive="a", target="a")
    with pytest.raises(ValueError, match="column 'y' cannot be both target and ignored"):
        infer_csv_spec(path, sensitive="a", target="y", ignore=("y",))
    with pytest.raises(ValueError, match="column 'a' cannot be both sensitive and ignored"):
        infer_csv_spec(path, sensitive="a", ignore=("a",))
    for bins in (0, -1):
        with pytest.raises(ValueError, match="bins must be >= 1"):
            infer_csv_spec(path, sensitive="a", bins=bins)


# -- loading ------------------------------------------------------------


def test_load_csv_categorical_first_appearance(tmp_path):
    path = write(tmp_path / "t.csv", "color,a\nred,0\nblue,1\nred,0\ngreen,1\n")
    ds, schema = load_csv(infer_csv_spec(path, sensitive="a"))
    assert schema.attributes[0].categories == ("red", "blue", "green")
    assert schema.attributes[1].cardinality == 2
    assert np.array_equal(ds.rows[:, 0], [0, 1, 0, 2])
    assert schema.sensitive_index == 1


def test_load_csv_continuous_binning(tmp_path):
    path = write(tmp_path / "t.csv", "x,a\n0,0\n1,0\n2.5,1\n10,1\n")
    ds, schema = load_csv(infer_csv_spec(path, sensitive="a", bins=4))
    attr = schema.attributes[0]
    assert attr.is_ordinal
    assert attr.bin_edges == (0.0, 2.5, 5.0, 7.5, 10.0)
    # lower edge inclusive, top value folds into the last bin
    assert np.array_equal(ds.rows[:, 0], [0, 0, 1, 3])


def test_load_csv_schema_order_follows_header(tmp_path):
    path = write(tmp_path / "t.csv", "a,x\n0,red\n1,blue\n")
    ds, schema = load_csv(infer_csv_spec(path, sensitive="a"))
    assert schema.names == ("a", "x")
    assert schema.sensitive_index == 0
    assert np.array_equal(ds.rows, [[0, 0], [1, 1]])


def test_load_csv_errors(tmp_path):
    with pytest.raises(ValueError, match="empty file"):
        infer_csv_spec(write(tmp_path / "e.csv", ""), sensitive="a")
    with pytest.raises(ValueError, match="column 'a' not found"):
        infer_csv_spec(write(tmp_path / "h.csv", "x,b\n1,2\n"), sensitive="a")
    with pytest.raises(ValueError, match="missing value in column 'x' at row 1"):
        infer_csv_spec(write(tmp_path / "m.csv", "x,a\n1,0\n,0\n"), sensitive="a")
    # a column binned from one file must parse as numbers in every later one
    spec = infer_csv_spec(write(tmp_path / "ok.csv", "x,a\n1.5,0\n2.5,1\n"), sensitive="a", bins=3)
    bad = write(tmp_path / "n.csv", "x,a\n1,0\nfoo,0\n")
    with pytest.raises(ValueError, match="non-numeric value in column 'x' at row 1"):
        load_csv_with_schema(bad, spec.schema)
    # a NaN or infinity in a numeric column is an error, not a category
    with pytest.raises(ValueError, match="non-finite value 'nan' in column 'x' at row 2"):
        infer_csv_spec(write(tmp_path / "f.csv", "x,a\n1.5,0\n2.5,0\nnan,1\n"), sensitive="a")
    bad = write(tmp_path / "i.csv", "x,a\n1,0\n-inf,0\n")
    with pytest.raises(ValueError, match="non-finite value '-inf' in column 'x' at row 1"):
        load_csv_with_schema(bad, spec.schema)
    # a text column may hold the label "nan"
    _, schema = load_csv(infer_csv_spec(write(tmp_path / "t.csv", "x,a\nnan,0\nred,1\n"), sensitive="a"))
    assert schema.attributes[0].categories == ("nan", "red")


def test_rows_longer_than_the_header_are_errors(tmp_path):
    path = write(tmp_path / "t.csv", "x,a\n0.5,0\n1.5,1\n2.5,0,9\n3.5,1\n")
    with pytest.raises(ValueError, match="^row 2 has 3 fields, the header has 2$"):
        infer_csv_spec(path, sensitive="a")
    _, schema = load_csv(infer_csv_spec(write(tmp_path / "ok.csv", "x,a\n0.5,0\n1.5,1\n"), sensitive="a"))
    with pytest.raises(ValueError, match="^row 0 has 4 fields, the header has 2$"):
        load_csv_with_schema(write(tmp_path / "e.csv", "x,a\n0.5,0,,\n"), schema)
    # a short row is a missing value, named by its column
    with pytest.raises(ValueError, match="missing value in column 'a' at row 1"):
        load_csv_with_schema(write(tmp_path / "s.csv", "x,a\n0.5,0\n1.5\n"), schema)


def test_range_too_wide_to_bin_is_an_error(tmp_path):
    body = "x,a\n-1e308,0\n0.5,1\n1e308,0\n2.5,1\n3.5,0\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^column 'x': range \[-1e\+308, 1e\+308\] is too wide to bin$"):
            infer_csv_spec(write(tmp_path / "w.csv", body), sensitive="a", bins=4)
        # a range whose width is still a float bins without a warning
        ds, schema = load_csv(infer_csv_spec(write(tmp_path / "f.csv", body.replace("e308", "e307")), sensitive="a", bins=4))
    edges = schema.attributes[0].bin_edges
    assert (edges[0], edges[2], edges[-1]) == (-1e307, 0.0, 1e307)
    assert ds.rows[:, 0].tolist() == [0, 2, 3, 2, 2]


def test_load_with_schema_roundtrip_and_clamp(tmp_path):
    train = write(tmp_path / "train.csv", "x,a\n0,0\n5.5,0\n10,1\n")
    ds, schema = load_csv(infer_csv_spec(train, sensitive="a", bins=5))
    assert np.array_equal(ds.rows[:, 0], [0, 2, 4])
    again = load_csv_with_schema(train, schema)
    assert np.array_equal(again.rows, ds.rows)
    # out-of-range values clamp to the edge bins instead of erroring
    other = write(tmp_path / "eval.csv", "x,a\n-100,0\n100,1\n")
    clamped = load_csv_with_schema(other, schema)
    assert np.array_equal(clamped.rows[:, 0], [0, 4])


def test_load_with_schema_unseen_category(tmp_path):
    train = write(tmp_path / "train.csv", "x,a\nred,0\nblue,1\n")
    _, schema = load_csv(infer_csv_spec(train, sensitive="a"))
    bad = write(tmp_path / "eval.csv", "x,a\ngreen,0\n")
    with pytest.raises(ValueError, match="unseen category 'green' in column 'x' at row 0"):
        load_csv_with_schema(bad, schema)


def test_infer_csv_spec_roles_and_kinds(tmp_path):
    path = write(
        tmp_path / "t.csv",
        "age,grade,name,a,y\n23.5,1,alice,0,1\n31.0,2,bob,1,0\n28.25,3,carol,0,1\n",
    )
    schema = infer_csv_spec(path, sensitive="a", target="y", bins=10, ignore=("name",)).schema
    assert schema.names == ("age", "grade", "a", "y")
    by_name = dict(zip(schema.names, schema.attributes))
    assert by_name["age"].is_ordinal
    assert by_name["age"].cardinality == 10
    assert by_name["grade"].categories == ("1", "2", "3")  # few integral levels
    assert schema.sensitive_index == 2
    assert schema.target_index == 3
    with pytest.raises(ValueError, match="column 'z' not found"):
        infer_csv_spec(path, sensitive="z")


def test_infer_csv_spec_many_integer_levels_stay_continuous(tmp_path):
    rows = "\n".join(f"{i},{i % 2}" for i in range(30))
    path = write(tmp_path / "t.csv", "x,a\n" + rows + "\n")
    x = infer_csv_spec(path, sensitive="a", bins=8).schema.attributes[0]
    assert x.is_ordinal
    assert x.cardinality == 8


def test_binned_codes_monotone_in_value(tmp_path):
    vals = sorted([0.3, 7.1, 2.2, 9.9, 5.5, 1.1, 8.8, 4.4])
    body = "\n".join(f"{v},{i % 2}" for i, v in enumerate(vals))
    path = write(tmp_path / "t.csv", "x,a\n" + body + "\n")
    ds, schema = load_csv(infer_csv_spec(path, sensitive="a", bins=4))
    assert schema.attributes[0].is_ordinal
    codes = ds.rows[:, 0]
    assert np.all(np.diff(codes) >= 0)


# -- synthetic mixture --------------------------------------------------


def test_mixture_params_validation():
    with pytest.raises(ValueError, match="mu and sigma need one value per group"):
        MixtureParams(mu=(0.0,))
    with pytest.raises(ValueError, match="sigma must be > 0"):
        MixtureParams(sigma=(0.4, 0.0))
    with pytest.raises(ValueError, match="mu must be finite, got nan"):
        MixtureParams(mu=(float("nan"), 0.7))
    with pytest.raises(ValueError, match="sigma must be finite, got inf"):
        MixtureParams(sigma=(0.4, float("inf")))
    with pytest.raises(ValueError, match="s must be in \\[0, 1\\]"):
        MixtureParams(s=1.5)
    with pytest.raises(ValueError, match="n must be >= 1"):
        MixtureParams(n=0)


def test_mixture_deterministic():
    x1, a1 = generate_mixture(MixtureParams(n=2000, seed=7))
    x2, a2 = generate_mixture(MixtureParams(n=2000, seed=7))
    assert np.array_equal(x1, x2)
    assert np.array_equal(a1, a2)
    x3, _ = generate_mixture(MixtureParams(n=2000, seed=8))
    assert not np.array_equal(x1, x3)


def test_mixture_degenerate_group_shares():
    _, a = generate_mixture(MixtureParams(s=1.0, n=500))
    assert np.all(a == 1)
    _, a = generate_mixture(MixtureParams(s=0.0, n=500))
    assert np.all(a == 0)


def test_mixture_group_fraction():
    _, a = generate_mixture(MixtureParams(s=0.9, n=5000, seed=0))
    assert abs(a.mean() - 0.9) <= 3.0 * math.sqrt(0.9 * 0.1 / 5000)


def test_mixture_group_moments():
    params = MixtureParams(mu=(-0.5, 0.7), sigma=(0.4, 0.2), s=0.5, n=100_000, seed=3)
    x, a = generate_mixture(params)
    for g in (0, 1):
        sel = x[a == g]
        n_g = len(sel)
        assert abs(sel.mean() - params.mu[g]) <= 4.0 * params.sigma[g] / math.sqrt(n_g)
        assert abs(sel.std(ddof=1) - params.sigma[g]) <= 4.0 * params.sigma[g] / math.sqrt(2 * n_g)


def test_mixture_csv_roundtrip(tmp_path):
    x, a = generate_mixture(MixtureParams(n=300, seed=1))
    path = str(tmp_path / "synth.csv")
    write_mixture_csv(x, a, path)
    spec = infer_csv_spec(path, sensitive="a", bins=20)
    assert spec.schema.attributes[0].is_ordinal
    assert spec.schema.sensitive_index == 1
    ds, schema = load_csv(spec)
    assert np.array_equal(ds.rows, load_csv_with_schema(path, schema).rows)
    assert len(ds) == 300
    # categorical codes follow first appearance, so map through the stored labels
    labels = schema.attributes[1].categories
    decoded = np.asarray([int(labels[c]) for c in ds.rows[:, 1]])
    assert np.array_equal(decoded, a)


# -- folds --------------------------------------------------------------


def test_kfold_partitions(rng):
    s = xa_schema(nx=5, na=2)
    ds = Dataset(s, np.column_stack([rng.integers(0, 5, 1000), rng.integers(0, 2, 1000)]))
    splits = kfold(ds, 5, seed=11)
    assert len(splits) == 5
    all_test = []
    for train, test in splits:
        assert len(train) == 800
        assert len(test) == 200
        all_test.append(test.rows)
    stacked = np.vstack(all_test)
    assert stacked.shape == (1000, 2)
    # each row of the dataset appears exactly once across the test folds
    assert sorted(map(tuple, stacked)) == sorted(map(tuple, ds.rows))


def test_kfold_uneven_sizes(rng):
    s = xa_schema(nx=3, na=2)
    ds = Dataset(s, np.column_stack([rng.integers(0, 3, 10), rng.integers(0, 2, 10)]))
    splits = kfold(ds, 4, seed=0)
    assert [len(test) for _, test in splits] == [3, 3, 2, 2]
    for train, test in splits:
        assert len(train) + len(test) == 10


def test_kfold_deterministic(rng):
    s = xa_schema(nx=4, na=2)
    ds = Dataset(s, np.column_stack([rng.integers(0, 4, 60), rng.integers(0, 2, 60)]))
    a = kfold(ds, 3, seed=5)
    b = kfold(ds, 3, seed=5)
    for (ta, sa), (tb, sb) in zip(a, b):
        assert np.array_equal(ta.rows, tb.rows)
        assert np.array_equal(sa.rows, sb.rows)
    c = kfold(ds, 3, seed=6)
    assert any(
        not np.array_equal(sa.rows, sc.rows) for (_, sa), (_, sc) in zip(a, c)
    )


def test_kfold_validation(rng):
    s = xa_schema(nx=2, na=2)
    ds = Dataset(s, np.zeros((5, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="k must be >= 2"):
        kfold(ds, 1, seed=0)
    with pytest.raises(ValueError, match="k exceeds dataset size"):
        kfold(ds, 6, seed=0)
    with pytest.raises(ValueError, match=r"^fold \d: unrepresented sensitive value 1 in the fold's training part$"):
        kfold(Dataset(s, [[0, 0]] * 4 + [[0, 1]]), 2, seed=0)


# -- anchor construction ------------------------------------------------


def test_build_initial_rr_exactly_one(rng):
    s = xa_schema(nx=6, na=2)
    rows = np.column_stack([rng.integers(0, 6, 400), rng.integers(0, 2, 400)])
    q0 = build_initial(Dataset(s, rows), s, smoothing=1.0)
    assert BoostedDensity(q0).representation_rate() == 1.0
    assert np.array_equal(BoostedDensity(q0).sensitive_marginal(), [0.5, 0.5])


def test_build_initial_matches_smoothed_empirical(rng):
    s = xa_schema(nx=4, na=2)
    rows = np.column_stack([rng.integers(0, 4, 200), rng.integers(0, 2, 200)])
    ds = Dataset(s, rows)
    q0 = build_initial(ds, s, smoothing=1.0)
    x_schema = s.x_subschema()
    for a in (0, 1):
        mask = rows[:, 1] == a
        group = Dataset(x_schema, rows[mask, :1])
        want = fit_empirical(group, 1.0)
        assert np.allclose(q0.cond[a], want.mass, atol=1e-15)


def test_build_initial_smoothing_fills_empty_cells(rng):
    s = xa_schema(nx=5, na=2)
    # group 1 never visits cells 3 and 4
    rows = [[x, 0] for x in range(5)] * 4 + [[x, 1] for x in range(3)] * 4
    q0 = build_initial(Dataset(s, np.asarray(rows)), s, smoothing=1.0)
    assert (q0.cond > 0).all()
    q0_raw = build_initial(Dataset(s, np.asarray(rows)), s, smoothing=0.0)
    assert q0_raw.cond[1, 3] == 0.0


def test_build_initial_validation(rng):
    s = xa_schema(nx=3, na=2)
    rows = np.asarray([[0, 0], [1, 0], [2, 0]])
    with pytest.raises(ValueError, match="^unrepresented sensitive value 1$"):
        build_initial(Dataset(s, rows), s, smoothing=1.0)
    plain = s.x_subschema()
    with pytest.raises(ValueError, match="sensitive attribute"):
        build_initial(Dataset(plain, rows[:, :1]), plain, smoothing=1.0)
