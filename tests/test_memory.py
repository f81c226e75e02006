"""Peak memory of the passes over the domain, pinned in domain-sized arrays.

Each bound is the ``tracemalloc`` peak of one call above the memory held when
the call starts, in units of one float64 table over the domain (``n_cells * 8``
bytes), or of the file's size for the readers.  numpy reports its array
buffers to ``tracemalloc``, so the peaks count every domain-sized array a call
holds at once.  The fixture has 432k cells and 2,000 rows, so p-hat's support
is under 0.5% of the domain.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import fairboost.cli as cli
from fairboost import (
    Attribute,
    AttributeSchema,
    BoostedDensity,
    Dataset,
    FitConfig,
    LeveragingScheme,
    fbde_fit,
    fit_empirical,
    kl_divergence,
)
from fairboost.boosted import _checked_scores
from fairboost.pipeline import build_initial, load_csv_with_schema
from fairboost.serialize import load_model, load_model_rounds, save_model
from fairboost.tree import TreeConfig, train_tree

from conftest import read_json, table_classifier

BINS, FEATURES, ROWS = 60, 3, 2000


@pytest.fixture(scope="module")
def wide_data():
    """Two groups, 9:1, over three 60-bin features: 60**3 * 2 = 432,000 cells."""
    attrs = tuple(Attribute(f"x{j}", BINS, bin_edges=tuple(map(float, range(BINS + 1)))) for j in range(FEATURES))
    schema = AttributeSchema(attrs + (Attribute("a", 2),), sensitive_index=FEATURES)
    rng = np.random.default_rng(0)
    a = (rng.random(ROWS) < 0.9).astype(np.int64)
    centre = np.where(a == 1, 0.65, 0.35)[:, None] * BINS
    x = np.rint(centre + rng.standard_normal((ROWS, FEATURES)) * BINS / 8)
    return Dataset(schema, np.column_stack([np.clip(x, 0, BINS - 1).astype(np.int64), a]))


def _peak(fn, unit):
    """fn's result, and its tracemalloc peak above the memory traced when it starts, in units of ``unit`` bytes."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, (peak - start) / unit


def test_build_initial_keeps_one_table(wide_data):
    # the anchor is cond alone: the build peaks at about 1.6, cond beside one group's
    # masses (half a table), and keeps only cond, one table, once it returns
    assert wide_data.schema.n_cells == 432_000
    table = 8 * wide_data.schema.n_cells
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        q0, tables = _peak(lambda: build_initial(wide_data, wide_data.schema, 1.0), table)
        kept = (tracemalloc.get_traced_memory()[0] - start) / table
    finally:
        tracemalloc.stop()
    assert q0.cond.shape == (2, BINS**FEATURES)
    assert tables <= 1.7
    assert kept <= 1.1


def test_fit_holds_under_two_tables(wide_data):
    # beyond the anchor, the fit holds one whole-table workspace (the joint, turned into its CDF
    # in place, then the parent's tilt and the normalizer row) beside the tilt, or beside the
    # tree's paint once the parent's tilt is in the workspace: about 1.75.  p-hat's dense build
    # is one table, before the first round
    q0 = build_initial(wide_data, wide_data.schema, 1.0)
    cfg = FitConfig(rounds=3, scheme=LeveragingScheme("exact", 0.7))
    (stack, _, _), tables = _peak(lambda: fbde_fit(wide_data, q0, cfg), 8 * wide_data.schema.n_cells)
    assert len(stack.rounds) == 3
    assert tables <= 1.9


def test_extended_holds_one_group_row(wide_data):
    # the caller supplies the row that a round's normalizer pass fills with one group's
    # terms at a time, so the pass adds only that row's mask of maxima: about 0.06
    q0 = build_initial(wide_data, wide_data.schema, 1.0)
    n_x = q0.x_schema.n_cells
    classifier = table_classifier(wide_data.schema, np.random.default_rng(1).uniform(-0.5, 0.5, n_x))
    stack, scores, row = BoostedDensity(q0), _checked_scores(q0.x_schema, classifier), np.empty(n_x)
    child, tables = _peak(lambda: stack.extended(classifier, 0.3, scores, row), 8 * wide_data.schema.n_cells)
    assert len(child.rounds) == 1 and np.shares_memory(child._tilt, scores)
    assert tables <= 0.1


def test_train_tree_holds_under_half_a_table(wide_data):
    # the tree runs beside the fit's workspace, so its level search keeps few histogram-sized
    # arrays: about 0.34 of this domain's tables on negatives drawn from the anchor
    q0 = build_initial(wide_data, wide_data.schema, 1.0)
    negatives = BoostedDensity(q0).table().sample(2 * ROWS, 0)
    classifier, tables = _peak(
        lambda: train_tree(wide_data, negatives, TreeConfig(), math.log(2.0)), 8 * wide_data.schema.n_cells
    )
    assert not classifier.root.is_leaf
    assert tables <= 0.45


def test_fit_empirical_builds_one_table(wide_data):
    # the counts are summed as float64 weights into the table itself: one table, about 1.13
    # with the rows' cell codes; integer counts beside it would make two
    p_hat, tables = _peak(lambda: fit_empirical(wide_data, 1.0), 8 * wide_data.schema.n_cells)
    assert p_hat.mass.min() > 0.0
    assert tables <= 1.2


def test_dense_kl_holds_no_table(wide_data):
    # KL over a full-support p: p's support mask (an eighth of a table) and a few blocks'
    # terms and masses, about 0.35; the terms are summed as they are made, never all held
    q0 = build_initial(wide_data, wide_data.schema, 1.0)
    pm, qm = fit_empirical(wide_data, 1.0).mass, BoostedDensity(q0).table().mass
    assert np.count_nonzero(pm) == len(pm)
    kl, tables = _peak(lambda: kl_divergence(pm, qm), 8 * wide_data.schema.n_cells)
    assert kl > 0.0
    assert tables <= 0.45


def test_save_model_writes_the_anchor_row_by_row(tmp_path, wide_data):
    # the peak, about 1.7, is one row's entry indices (half a table) beside one chunk of entry
    # lines, as text and as the bytes written; the whole model text, over 3.5 tables, is never held
    stack, path = BoostedDensity(build_initial(wide_data, wide_data.schema, 1.0)), str(tmp_path / "model.json")
    scheme = LeveragingScheme("exact", 0.8)
    _, tables = _peak(lambda: save_model(stack, path, scheme, run_id="run-1"), 8 * wide_data.schema.n_cells)
    assert load_model(path)[0].q0.cond.tobytes() == stack.q0.cond.tobytes()
    assert tables <= 1.9


def test_model_readers_stream_the_anchor_rows(tmp_path, wide_data):
    # a model of 432,000 anchor entries, about 31 bytes of text each: the round reader holds
    # one row of entries (8 bytes each, half the anchor), about 0.13 file sizes; the whole
    # text and its parsed lists, 1.33, are never held.  load_model adds the anchor's cond
    # it builds, about 0.26
    path = str(tmp_path / "model.json")
    q0 = build_initial(wide_data, wide_data.schema, 1.0)
    save_model(BoostedDensity(q0), path, LeveragingScheme("exact", 0.8), run_id="run-1")
    size = (tmp_path / "model.json").stat().st_size
    assert size >= 12 << 20
    (_, _, rounds), files = _peak(lambda: load_model_rounds(path), size)
    assert rounds == [] and files <= 0.2
    (stack, _, _), files = _peak(lambda: load_model(path), size)
    assert stack.q0.cond.shape == (2, BINS**FEATURES) and files <= 0.45
    # a file in another layout is read whole, once, and refused: its text and the parsed
    # document, one float object per distinct value, about 1.22 file sizes (with a float
    # object per entry it would be 1.83)
    doc = read_json(path)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=4)
    del doc
    size = (tmp_path / "model.json").stat().st_size
    for load in (load_model_rounds, load_model):
        refused, files = _peak(lambda: pytest.raises(ValueError, load, path), size)
        assert str(refused.value) == "model field 'q0.conditionals' is not laid out as save_model writes it"
        assert files <= 1.6


def test_eval_holds_the_stack_only_until_its_joint(tmp_path, wide_data):
    # the peak, about 2.7 tables, is the joint build beside the stack (the anchor's cond and
    # the tilt, 1.5); the stack goes before p-hat's one-table build and the KL, which add
    # to the joint less than the build does
    attrs = wide_data.schema.attributes[:FEATURES] + (Attribute("a", 2, categories=("0", "1")),)
    data = Dataset(dataclasses.replace(wide_data.schema, attributes=attrs), wide_data.rows)
    q0 = build_initial(data, data.schema, 1.0)
    scheme = LeveragingScheme("exact", 0.7)
    stack, _, _ = fbde_fit(data, q0, FitConfig(rounds=3, scheme=scheme))
    model, csv, out = (str(tmp_path / name) for name in ("model.json", "data.csv", "metrics.json"))
    save_model(stack, model, scheme, run_id="run-1")
    header = ",".join(a.name for a in attrs)
    np.savetxt(csv, data.rows, fmt="%d", delimiter=",", header=header, comments="")
    assert np.array_equal(load_csv_with_schema(csv, data.schema).rows, data.rows)
    argv = ["eval", "--model", model, "--data", csv, "--smoothing", "1", "--out", out]
    code, tables = _peak(lambda: cli.main(argv), 8 * data.schema.n_cells)
    assert code == 0 and read_json(out)["n_rows"] == ROWS
    assert tables <= 2.8
