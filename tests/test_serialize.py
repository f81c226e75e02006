"""Round-trips for model, trace, and manifest documents."""

import hashlib
import json
import math

import numpy as np
import pytest

from fairboost import (
    Attribute,
    AttributeSchema,
    BoostedDensity,
    Dataset,
    DecisionTreeClassifier,
    FitConfig,
    InitialDensity,
    LeveragingScheme,
    TreeConfig,
    fbde_fit,
    train_tree,
)
from fairboost.engine import TraceRow
from fairboost.pipeline import build_initial
from fairboost.serialize import (
    TRACE_HEADER,
    _CHUNK,
    dump_json,
    load_model,
    load_model_rounds,
    load_trace,
    manifest_id,
    save_model,
    save_trace,
    sha256_file,
)
from fairboost.tree import FAIL, HBS, LBS, Node

from conftest import extend, random_initial, read_json, tree_nodes, uniform_initial, xa_schema, xya_schema

LN2 = math.log(2.0)
_LAYOUT = "model field 'q0.conditionals' is not laid out as save_model writes it"


@pytest.fixture()
def fitted():
    s = xa_schema(nx=4, na=2)
    rows = np.repeat(
        np.asarray([[0, 0], [1, 0], [2, 1], [3, 1]]), [50, 40, 20, 10], axis=0
    )
    ds = Dataset(s, rows)
    q0 = build_initial(ds, s, smoothing=1.0)
    scheme = LeveragingScheme("exact", 0.8, LN2)
    stack, trace, _ = fbde_fit(ds, q0, FitConfig(rounds=4, scheme=scheme, seed=9))
    return stack, scheme, trace


# -- models -------------------------------------------------------------


def test_model_roundtrip_exact(tmp_path, fitted):
    stack, scheme, _ = fitted
    path = str(tmp_path / "model.json")
    save_model(stack, path, scheme=scheme, run_id="run-1")
    back, back_scheme, run_id = load_model(path)
    assert run_id == "run-1"
    assert back_scheme.kind == "exact" and back_scheme.tau == 0.8
    assert len(back.rounds) == len(stack.rounds)
    for r_old, r_new in zip(stack.rounds, back.rounds):
        # stored normalizers are authoritative: verbatim, not recomputed
        assert r_new.z == r_old.z
        assert np.array_equal(r_new.z_by_group, r_old.z_by_group)
        assert r_new.theta == r_old.theta
        cells = stack.q0.x_schema.all_cells()
        assert np.array_equal(r_new.classifier.scores(cells), r_old.classifier.scores(cells))
    assert back.table().mass.tobytes() == stack.table().mass.tobytes()
    assert back.representation_rate() == stack.representation_rate()


def test_model_resave_byte_identical(tmp_path, fitted):
    stack, scheme, _ = fitted
    p1, p2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
    save_model(stack, p1, scheme=scheme, run_id="run-1")
    back, back_scheme, _ = load_model(p1)
    save_model(back, p2, scheme=back_scheme, run_id="run-1")
    assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()


def test_model_rounds_read_without_the_stack(tmp_path, fitted):
    stack, scheme, trace = fitted
    path = str(tmp_path / "m.json")
    save_model(stack, path, scheme, run_id="run-2")
    got_scheme, run_id, stored = _model_rounds(path)
    assert got_scheme == scheme and run_id == "run-2"
    assert stored == [(r.theta, r.z, r.z_by_group.tolist(), tree_nodes(r.classifier)) for r in stack.rounds]
    assert [(theta, z) for theta, z, _, _ in stored] == [(r.theta, r.z) for r in trace[1:]]
    # the file is read as load_model reads it: rows that are not a list are refused here too
    doc = read_json(path)
    doc["q0"]["conditionals"] = 5
    dump_json(doc, path)
    for load in (load_model, load_model_rounds):
        with pytest.raises(ValueError, match="^model field 'q0.conditionals' has the wrong JSON type$"):
            load(path)


def _model_rounds(path):
    scheme, run_id, rounds = load_model_rounds(path)
    return scheme, run_id, [(r.theta, r.z, r.z_by_group.tolist(), tree_nodes(r.classifier)) for r in rounds]


@pytest.mark.parametrize(
    "schema",
    [
        AttributeSchema(
            (
                Attribute("x", 4, bin_edges=(0.0, 0.5, 1.0, 1.5, 2.0)),
                Attribute("c", 2, categories=("yes", "no")),
                Attribute("a", 2),
            ),
            sensitive_index=2,
            target_index=1,
        ),
        xya_schema(nx=5, ny=2, na=3),
    ],
    ids=["attributes", "xya"],
)
def test_model_schema_round_trip(tmp_path, schema):
    # bin edges, categories and both indices come back equal
    path = str(tmp_path / "m.json")
    save_model(BoostedDensity(uniform_initial(schema)), path, LeveragingScheme("exact", 0.8, LN2), run_id="run-1")
    assert load_model(path)[0].schema == schema


def _ordinal_schema():
    """Two ordinal features and the sensitive column."""
    edges = tuple(float(i) for i in range(5))
    return AttributeSchema(
        (Attribute("f1", 4, bin_edges=edges), Attribute("f2", 4, bin_edges=edges), Attribute("a", 2)),
        sensitive_index=2,
    )


def _with_a(x_rows):
    return np.column_stack([x_rows, np.zeros(len(x_rows), dtype=np.int64)])


def test_tree_round_trip(tmp_path, rng):
    s = _ordinal_schema()
    p = Dataset(s, _with_a(rng.integers(0, 4, size=(80, 2))))
    q = Dataset(s, _with_a(np.minimum(rng.integers(0, 4, size=(80, 2)) + 1, 3)))
    tree = train_tree(p, q, TreeConfig(), LN2)
    assert not tree.root.is_leaf
    path = str(tmp_path / "m.json")
    stack = extend(BoostedDensity(uniform_initial(s)), tree, 0.1)
    save_model(stack, path, LeveragingScheme("exact", 0.8, LN2), run_id="run-1")
    back = load_model(path)[0].rounds[0].classifier
    cells = s.x_subschema().all_cells()
    assert np.array_equal(back.scores(cells), tree.scores(cells))
    assert tree_nodes(back) == tree_nodes(tree)
    assert tree_nodes(load_model_rounds(path)[2][0].classifier) == tree_nodes(tree)


def test_model_rejects_malformed_trees(tmp_path):
    # both readers refuse every node a fit cannot write, naming the round
    good = {
        "type": "tree",
        "c_bound": LN2,
        "root": {
            "attr": "f1",
            "split": {"op": "le", "value": 1},
            "left": {"leaf": LN2},
            "right": {"leaf": -LN2},
        },
    }
    path = str(tmp_path / "m.json")
    save_model(BoostedDensity(uniform_initial(_ordinal_schema())), path, LeveragingScheme("exact", 0.8, LN2), "run-1")
    model = read_json(path)

    def with_tree(tree):
        doc = json.loads(json.dumps(model))
        doc["rounds"] = [{"theta": 0.1, "classifier": tree, "z": 1.0, "z_by_group": [1.0, 1.0]}]
        dump_json(doc, path)
        return path

    assert tree_nodes(load_model(with_tree(good))[0].rounds[0].classifier) == (LN2, (0, "le", 1, LN2, -LN2))

    def bad(message, c_bound=LN2, attr="f1", op="le", value=1, leaf=LN2):
        tree = dict(good, c_bound=c_bound)
        tree["root"] = dict(good["root"], attr=attr, split={"op": op, "value": value}, left={"leaf": leaf})
        with_tree(tree)
        for load in (load_model, load_model_rounds):
            with pytest.raises(ValueError, match=f"^round 1: {message}$"):
                load(path)

    bad("unknown attribute 'a'", attr="a")  # the sensitive column is no feature
    bad(r"tree split op must be 'le' or 'eq', got 'lt'", op="lt")
    bad(r"tree split value -3 on 'f1' is outside \[0, 4\)", value=-3)
    bad(r"tree split value 4 on 'f1' is outside \[0, 4\)", value=4)
    for leaf in (float("nan"), float("inf"), 5.0, -0.7):
        bad(r"tree leaf .* is not a finite value in \[-c_bound, c_bound\]", leaf=leaf)
    # the scheme's C is finite and > 0, so a tree bound that is not is not the scheme's
    for c_bound in (float("nan"), float("inf"), 0.0, -1.0):
        bad(f"tree c_bound {c_bound!r} differs from the scheme's c_bound {LN2!r}", c_bound=c_bound)


@pytest.mark.parametrize(
    "case, message",
    [
        ("nan", "conditional entries must be finite and >= 0"),
        ("inf", "conditional entries must be finite and >= 0"),
        ("negative", "conditional entries must be finite and >= 0"),
        ("row sum off by 1e-6", "each conditional must sum to 1 within 1e-12"),
        # rows that do not match the schema's shape are off save_model's layout
        ("missing row", _LAYOUT),
        ("extra row", _LAYOUT),
        ("short row", _LAYOUT),
    ],
    ids=["nan", "inf", "negative", "row-sum-off", "missing-row", "extra-row", "short-row"],
)
def test_model_rejects_bad_anchor(tmp_path, fitted, case, message):
    stack, scheme, _ = fitted
    path = str(tmp_path / "m.json")
    save_model(stack, path, scheme=scheme, run_id="run-1")
    doc = read_json(path)
    cond = doc["q0"]["conditionals"]
    if case == "nan":
        cond[0][1] = float("nan")
    elif case == "inf":
        cond[1][0] = float("inf")
    elif case == "negative":
        cond[1][2] = -cond[1][2]
    elif case == "row sum off by 1e-6":
        cond[0][0] += 1e-6
    elif case == "missing row":
        del cond[1]
    elif case == "extra row":
        cond.append(list(cond[0]))
    else:
        del cond[0][-1]
    dump_json(doc, path)
    with pytest.raises(ValueError, match=message):
        load_model(path)


@pytest.mark.parametrize(
    "field, value, message", [("z_by_group", [1.0, 1.0, 1.0], "round 1: z_by_group needs 2 entries")],
    ids=["z_by_group-three-entries"],
)
def test_model_rejects_bad_round_values(tmp_path, fitted, field, value, message):
    # both readers apply the one rule for stored round values
    stack, scheme, _ = fitted
    path = str(tmp_path / "m.json")
    save_model(stack, path, scheme=scheme, run_id="run-1")
    doc = read_json(path)
    doc["rounds"][0][field] = value
    dump_json(doc, path)
    for load in (load_model, load_model_rounds):
        with pytest.raises(ValueError, match=message):
            load(path)


def _stack_with_sensitive_at(position, groups, feature_cards, rng):
    """A two-round stack of trees on a random anchor: features of ``feature_cards``,
    with the sensitive column of ``groups`` values at ``position``."""
    attrs = [Attribute(f"x{j}", card) for j, card in enumerate(feature_cards)]
    attrs.insert(position, Attribute("a", groups))
    schema = AttributeSchema(tuple(attrs), sensitive_index=position)
    stack = BoostedDensity(random_initial(schema, rng))
    for value, leaf in [(0, 0.4), (feature_cards[-1] // 2, -0.3)]:
        split = Node(attr=len(feature_cards) - 1, op="le", value=value, left=Node(leaf=leaf), right=Node(leaf=-leaf))
        stack = extend(stack, DecisionTreeClassifier(root=split, c_bound=LN2), 0.2)
    return stack


def _rounds_bits(rounds):
    return [(r.theta, r.z, r.z_by_group.tobytes(), tree_nodes(r.classifier)) for r in rounds]


@pytest.mark.parametrize(
    "groups, position, feature_cards",
    [(2, 0, (3, 4)), (2, 1, (3, 4)), (2, 2, (3, 4)), (3, 0, (5, 2)), (3, 1, (5, 2)), (3, 2, (5, 2)), (2, 1, (1,))],
    ids=["2-first", "2-middle", "2-last", "3-first", "3-middle", "3-last", "one-entry-rows"],
)
def test_saved_models_stream_their_anchor_rows(tmp_path, rng, groups, position, feature_cards):
    # what save_model writes is read back to the same bits, wherever the sensitive column sits
    stack = _stack_with_sensitive_at(position, groups, feature_cards, rng)
    scheme, path = LeveragingScheme("exact", 0.8, LN2), str(tmp_path / "m.json")
    save_model(stack, path, scheme, run_id="run-1")
    back, back_scheme, run_id = load_model(path)
    assert (back_scheme, run_id) == (scheme, "run-1")
    assert back.q0.cond.shape == (groups, back.q0.x_schema.n_cells)
    assert back.q0.cond.tobytes() == stack.q0.cond.tobytes()
    assert back.table().mass.tobytes() == stack.table().mass.tobytes()
    assert _rounds_bits(back.rounds) == _rounds_bits(stack.rounds)
    rounds_scheme, rounds_id, rounds = load_model_rounds(path)
    assert (rounds_scheme, rounds_id, _rounds_bits(rounds)) == (scheme, "run-1", _rounds_bits(stack.rounds))


def _outcomes(path):
    """What ``load_model`` and ``load_model_rounds`` make of ``path``: bits, or the error."""
    out = []
    for load in (load_model, load_model_rounds):
        try:
            result = load(path)
        except Exception as exc:
            out.append((type(exc), str(exc)))
            continue
        if load is load_model:
            stack, scheme, run_id = result
            bits = stack.q0.cond.tobytes(), stack.table().mass.tobytes(), _rounds_bits(stack.rounds)
            out.append((*bits, scheme, run_id))
        else:
            out.append((result[0], result[1], _rounds_bits(result[2])))
    return out


def _rows_edit(edit):
    """A model text with the lines of its anchor rows replaced by ``edit(lines)``."""

    def apply(text):
        lines = text.split("\n")
        start = lines.index('    "conditionals": [') + 1
        stop = lines.index("    ]", start)
        return "\n".join(lines[:start] + edit(lines[start:stop]) + lines[stop:])

    return apply


_SUM, _FINITE = "each conditional must sum to 1 within 1e-12", "conditional entries must be finite and >= 0"
_REFUSED = (_LAYOUT, _LAYOUT)
# layout -> (the edit of the fitted model's text, what load_model and load_model_rounds each end
# in: None for the saved bits, else the message of their ValueError).  Its rows are 2 x 4: lines
# 0 and 6 open a row, 1-4 and 7-10 are entries, 5 and 11 close one.  An entry is decoded as JSON,
# so an integer or a NaN reaches the anchor's own checks, which load_model_rounds does not make
_REFUSED_LAYOUTS = {
    "crlf": (lambda text: text.replace("\n", "\r\n"), (None, None)),
    "cr": (lambda text: text.replace("\n", "\r"), (None, None)),
    "integer": (_rows_edit(lambda rows: rows[:1] + ["        1,"] + rows[2:]), (_SUM, None)),
    "nan": (_rows_edit(lambda rows: rows[:1] + ["        NaN,"] + rows[2:]), (_FINITE, None)),
    "reindented": (_rows_edit(lambda rows: ["  " + line for line in rows]), _REFUSED),
    "entry-reindented": (_rows_edit(lambda rows: rows[:2] + ["  " + rows[2]] + rows[3:]), _REFUSED),
    "entry-spaced": (_rows_edit(lambda rows: rows[:2] + [rows[2][:-1] + " ,"] + rows[3:]), _REFUSED),
    "trailing-comma": (_rows_edit(lambda rows: rows[:4] + [rows[4] + ","] + rows[5:]), _REFUSED),
    "missing-comma": (_rows_edit(lambda rows: rows[:2] + [rows[2][:-1]] + rows[3:]), _REFUSED),
    "row-short": (_rows_edit(lambda rows: rows[:3] + [rows[3][:-1]] + rows[5:]), _REFUSED),
    "row-long": (_rows_edit(lambda rows: rows[:4] + [rows[4] + ",", rows[4]] + rows[5:]), _REFUSED),
    "one-line": (_rows_edit(lambda rows: [" ".join(line.strip() for line in rows)]), _REFUSED),
    "rows-comma-missing": (_rows_edit(lambda rows: rows[:5] + ["      ]"] + rows[6:]), _REFUSED),
    "row-opened-by-brace": (_rows_edit(lambda rows: rows[:6] + ["      {"] + rows[7:]), _REFUSED),
    "rows-closed-by-brace": (lambda text: text.replace("      ]\n    ]\n", "      ]\n    }\n", 1), _REFUSED),
    # the constant in the rows' place is known from a NaN elsewhere, which reaches its own decoder
    "nan-elsewhere": (
        lambda text: text.replace('"z": ', '"z": NaN, "was": ', 1),
        ("round 1: theta and normalizers must be finite",) * 2,
    ),
    "key-in-scheme": (lambda text: text.replace(
        '"value": null\n  },', '"value": null,\n    "conditionals": [\n      [\n        0.5\n      ]\n    ]\n  },', 1
    ), _REFUSED),
    # json keeps the last of two keys: the rows read are not the document's
    "key-again": (lambda text: text.replace("\n    ]\n  },", '\n    ],\n    "conditionals": []\n  },', 1), _REFUSED),
    "cut-in-rows": (lambda text: text[: text.index('    "conditionals": [') + 60], _REFUSED),  # in row 0's 2nd entry
    # no rows line: parsed whole, then refused
    "indent-4": (lambda text: json.dumps(json.loads(text), indent=4), _REFUSED),
    "one-line-document": (lambda text: json.dumps(json.loads(text)), _REFUSED),
}


@pytest.mark.parametrize("layout", list(_REFUSED_LAYOUTS))
def test_model_text_off_the_layout_reads_as_the_whole_text(tmp_path, fitted, layout):
    # the text save_model writes is the model format: a text off it ends in one ValueError
    edit, want = _REFUSED_LAYOUTS[layout]
    stack, scheme, _ = fitted
    path = tmp_path / "m.json"
    save_model(stack, str(path), scheme=scheme, run_id="run-1")
    saved = _outcomes(str(path))
    text = edit(path.read_text())
    assert text != path.read_text()
    path.write_bytes(text.encode())
    assert _outcomes(str(path)) == [kept if error is None else (ValueError, error) for kept, error in zip(saved, want)]


# -- traces -------------------------------------------------------------


def test_trace_roundtrip(tmp_path, fitted):
    _, _, trace = fitted
    path = str(tmp_path / "trace.csv")
    save_trace(trace, path)
    back = load_trace(path)
    assert back == trace
    assert back[0].t == 0 and back[0].gamma_p is None and back[0].regime is None


def _fit_row(t):
    """A trace row shaped as fbde_fit writes it: the t=0 baseline has no
    margins or regime, every later row has both margins and their regime,
    and no row has a kl_test."""
    if t == 0:
        return TraceRow(0, 0.0, None, None, None, 1.0, 1.0, 0.5, None, 1.0)
    return TraceRow(t, 0.25 / t, 0.5, 0.4, HBS, 0.91, 0.9, 0.5 - 0.01 * t, None, 1.002)


def test_trace_optional_fields(tmp_path):
    # the margins of a low-regime or failed round are stored as they are
    rows = [
        _fit_row(0),
        _fit_row(1),
        TraceRow(2, 0.125, 0.2, 0.1, LBS, 0.91, 0.9, 0.36, None, 1.0),
        TraceRow(3, 0.0625, 0.1, -0.05, FAIL, 0.91, 0.9, 0.37, None, 0.999),
    ]
    path = str(tmp_path / "t.csv")
    save_trace(rows, path)
    assert load_trace(path) == rows


def test_trace_header_fixed(tmp_path, fitted):
    _, _, trace = fitted
    path = tmp_path / "t.csv"
    save_trace(trace, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == "t,theta,gamma_p,gamma_q,regime,rr,rr_bound,kl_train,kl_test,z"
    assert TRACE_HEADER == list(TraceRow.__dataclass_fields__)
    assert len(text.splitlines()) == len(trace) + 1


def test_trace_floats_roundtrip_exactly(tmp_path, fitted):
    _, _, trace = fitted
    path = str(tmp_path / "t.csv")
    save_trace(trace, path)
    back = load_trace(path)
    for a, b in zip(trace, back):
        assert b.theta == a.theta
        assert b.rr == a.rr
        assert b.z == a.z


def _edited_trace(tmp_path, t, column, text) -> str:
    """A two-row fit-shaped trace with one cell of row t replaced by text."""
    path = tmp_path / "t.csv"
    save_trace([_fit_row(0), _fit_row(1)], str(path))
    lines = path.read_text().splitlines()
    cells = lines[t + 1].split(",")
    cells[TRACE_HEADER.index(column)] = text
    lines[t + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "column, text",
    [("theta", "nan"), ("gamma_p", "inf"), ("rr", "-inf"), ("rr_bound", "nan"), ("kl_train", "inf"), ("z", "inf")],
)
def test_trace_rejects_non_finite_numbers(tmp_path, column, text):
    path = _edited_trace(tmp_path, 1, column, text)
    with pytest.raises(ValueError, match=f"trace row t=1: {column} must be finite, got '{text}'"):
        load_trace(path)


@pytest.mark.parametrize(
    "t, column, text, message",
    [
        (0, "kl_train", "", "trace row t=0: kl_train is empty"),
        (1, "kl_train", "", "trace row t=1: kl_train is empty"),
        (1, "gamma_p", "", "trace row t=1: gamma_p is empty"),
        (1, "gamma_q", "", "trace row t=1: gamma_q is empty"),
        (1, "regime", "", "trace row t=1: regime is empty"),
        (0, "gamma_q", "0.4", "trace row t=0: gamma_q must be empty on the baseline row, got '0.4'"),
        (0, "regime", "HBS", "trace row t=0: regime must be empty on the baseline row, got 'HBS'"),
        (1, "regime", "high", "trace row t=1: regime 'high' is not 'HBS', its margins' regime"),
        (1, "regime", "LBS", "trace row t=1: regime 'LBS' is not 'HBS', its margins' regime"),
        (1, "gamma_q", "-0.0266", "trace row t=1: regime 'HBS' is not 'FAIL', its margins' regime"),
        (0, "kl_test", "0.6", "trace row t=0: kl_test must be empty, got '0.6'"),
        (1, "kl_test", "0.41", "trace row t=1: kl_test must be empty, got '0.41'"),
        (1, "kl_test", "nan", "trace row t=1: kl_test must be empty, got 'nan'"),
        (1, "t", "x", "trace row 1: t must be an integer, got 'x'"),
        (1, "theta", "abc", "trace row t=1: theta must be a number, got 'abc'"),
    ],
    ids=[
        "kl_train-baseline",
        "kl_train",
        "gamma_p",
        "gamma_q",
        "regime",
        "baseline-gamma_q",
        "baseline-regime",
        "unknown-regime",
        "regime-not-margins",
        "margins-not-regime",
        "baseline-kl_test",
        "kl_test",
        "kl_test-nan",
        "t-not-integer",
        "theta-not-number",
    ],
)
def test_trace_rejects_rows_fit_never_writes(tmp_path, t, column, text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_trace(_edited_trace(tmp_path, t, column, text))


@pytest.mark.parametrize(
    "ts, message",
    [((1, 2), "trace row 0: expected round t=0, got t=1"), ((0, 2, 1), "trace row 1: expected round t=1, got t=2")],
    ids=["no-baseline", "swapped"],
)
def test_trace_rejects_rows_out_of_order(tmp_path, ts, message):
    path = str(tmp_path / "t.csv")
    save_trace([_fit_row(t) for t in ts], path)
    with pytest.raises(ValueError, match=message):
        load_trace(path)


def test_trace_rejects_other_files(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="not a trace file"):
        load_trace(str(path))


# -- manifests and helpers ---------------------------------------------


def test_manifest_id_stable_and_sensitive():
    cfg = {"rounds": 10, "tau": 0.7}
    digests = {"train.csv": "ab" * 32}
    i1 = manifest_id("fit", cfg, digests, "1.0")
    i2 = manifest_id("fit", {"tau": 0.7, "rounds": 10}, digests, "1.0")
    assert i1 == i2  # key order must not matter
    assert len(i1) == 16 and int(i1, 16) >= 0
    assert manifest_id("fit", dict(cfg, tau=0.8), digests, "1.0") != i1
    assert manifest_id("eval", cfg, digests, "1.0") != i1
    assert manifest_id("fit", cfg, digests, "1.1") != i1


def test_dump_json_deterministic(tmp_path):
    doc = {"b": 1.5, "a": [1, 2, 3], "c": {"x": None}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    dump_json(doc, str(p1))
    dump_json(doc, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")


def _json_dump_bytes(doc, path) -> bytes:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path.read_bytes()


def test_save_model_matches_json_dump(tmp_path, fitted, rng):
    # save_model writes json.dump(indent=2) of the document it stores, and load_model reads back its bits
    stack, scheme, _ = fitted
    anchors = [
        random_initial(xa_schema(nx=_CHUNK + 1000, na=2), rng),  # each row crosses a chunk boundary
        uniform_initial(xa_schema(nx=1, na=3)),  # one entry per row
        # entries json writes in exponent form, subnormals, and a -0.0, which the anchor takes as >= 0
        InitialDensity(
            xa_schema(nx=6, na=2),
            np.array(
                [
                    [-0.0, 5e-324, 1e-05, 0.0, 0.25, 0.75 - 1e-05],
                    [0.5, 2.2250738585072014e-308 / 3, -0.0, 1.5e-10, 0.5 - 1.5e-10, 0.0],
                ]
            ),
        ),
    ]
    path = tmp_path / "model.json"
    for saved in [stack, *map(BoostedDensity, anchors)]:
        save_model(saved, str(path), scheme=scheme, run_id="0123456789abcdef")
        doc = read_json(path)
        assert path.read_bytes() == _json_dump_bytes(doc, tmp_path / "plain.json")
        assert list(doc) == ["format", "version", "manifest", "scheme", "q0", "rounds"]
        assert doc["manifest"] == "0123456789abcdef"
        back = load_model(str(path))[0]
        assert back.q0.cond.tobytes() == saved.q0.cond.tobytes()
        assert _rounds_bits(back.rounds) == _rounds_bits(saved.rounds)


def _message_and_place(error: json.JSONDecodeError) -> tuple:
    return str(error), error.pos, error.lineno, error.colno


@pytest.mark.parametrize(
    "text",
    ['{"a": [1.0, 2.0,]}', '{"a": 1.5e}', "[0.5, 0.5", '{"a": 0.5} 0.5', "", '{"a": -}', "[1.0 2.0]"],
    ids=["trailing-comma", "bad-exponent", "unclosed", "extra-data", "empty", "bare-minus", "missing-comma"],
)
def test_load_json_errors_match_json_load(tmp_path, text):
    # a model file that is not JSON ends in json's own error: it has no anchor rows line, so it is parsed whole
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    for load in (load_model, load_model_rounds):
        with pytest.raises(json.JSONDecodeError) as got:
            load(str(path))
        assert _message_and_place(got.value) == _message_and_place(want.value)


def test_sha256_file(tmp_path):
    p = tmp_path / "blob.bin"
    p.write_bytes(b"fairboost" * 1000)
    assert sha256_file(str(p)) == hashlib.sha256(b"fairboost" * 1000).hexdigest()
