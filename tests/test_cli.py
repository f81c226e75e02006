"""End-to-end command tests driven through main(argv)."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fairboost.cli as cli
import fairboost.pipeline as pipeline
from fairboost import (
    BoostedDensity,
    FitConfig,
    InitialDensity,
    LeveragingScheme,
    fbde_fit,
    fit_empirical,
    infer_csv_spec,
    kl_divergence,
    leverage,
    load_csv,
    statistical_rate,
)
from fairboost.cli import main
from fairboost.pipeline import build_initial, kfold, load_csv_with_schema
from fairboost.seeds import FOLDS, subseed
from fairboost.serialize import dump_json, load_model, load_model_rounds, load_trace

from conftest import read_json

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "synth.csv")
    assert main(["synth", "--n", "800", "--seed", "3", "--out", path]) == 0
    return path


@pytest.fixture(scope="module")
def fit_run(tmp_path_factory, synth_csv):
    d = tmp_path_factory.mktemp("fit")
    model = str(d / "model.json")
    trace = str(d / "trace.csv")
    code = main(
        [
            "fit",
            "--data", synth_csv,
            "--sensitive", "a",
            "--tau", "0.8",
            "--rounds", "5",
            "--bins", "16",
            "--seed", "1",
            "--out", model,
            "--trace", trace,
        ]
    )
    assert code == 0
    return model, trace


# -- synth --------------------------------------------------------------


def test_synth_output(synth_csv):
    with open(synth_csv) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "x,a"
    assert len(lines) == 801
    a = np.array([int(l.split(",")[1]) for l in lines[1:]])
    assert set(np.unique(a)) <= {0, 1}
    assert abs(a.mean() - 0.9) < 0.05


def test_synth_deterministic(tmp_path, synth_csv):
    again = str(tmp_path / "again.csv")
    assert main(["synth", "--n", "800", "--seed", "3", "--out", again]) == 0
    with open(synth_csv, "rb") as f1, open(again, "rb") as f2:
        assert f1.read() == f2.read()


def test_synth_degenerate_share(tmp_path):
    path = str(tmp_path / "one.csv")
    assert main(["synth", "--n", "60", "--s", "1.0", "--out", path]) == 0
    a = [line.split(",")[1] for line in Path(path).read_text().splitlines()[1:]]
    assert set(a) == {"1"}


# -- fit ----------------------------------------------------------------


def test_fit_outputs(fit_run, synth_csv, tmp_path):
    model_path, trace_path = fit_run
    bd, scheme, run_id = load_model(model_path)
    assert scheme.kind == "exact" and scheme.tau == 0.8
    assert len(bd.rounds) <= 5
    assert bd.representation_rate() >= 0.8 - 1e-9
    trace = load_trace(trace_path)
    assert trace[0].t == 0 and trace[-1].t == len(bd.rounds)
    manifest = read_json(model_path + ".manifest.json")
    assert manifest["format"] == "fairboost.manifest"
    assert manifest["id"] == run_id
    # one run id across the model, the manifest, the metrics and the report
    metrics, report = str(tmp_path / "metrics.json"), str(tmp_path / "report.json")
    assert main(["eval", "--model", model_path, "--data", synth_csv, "--out", metrics]) == 0
    assert main(["guarantees", "--model", model_path, "--trace", trace_path, "--out", report]) == 0
    assert read_json(metrics)["manifest"] == run_id
    assert read_json(report)["manifest"] == run_id
    assert isinstance(run_id, str) and len(run_id) == 16
    assert manifest["resolved_config"]["tau"] == 0.8
    assert list(manifest["resolved_config"]) == [
        "data", "sensitive", "target", "ignore", "tau", "scheme", "rounds", "bins", "max_depth",
        "min_leaf", "c_bound", "smoothing", "folds", "seed", "out", "trace",
    ]
    assert set(manifest["timings_seconds"]) >= {"load", "fit", "write"}


def test_fit_rerun_byte_identical(fit_run, synth_csv):
    model_path, trace_path = fit_run
    model_bytes = Path(model_path).read_bytes()
    trace_bytes = Path(trace_path).read_bytes()
    code = main(
        [
            "fit",
            "--data", synth_csv,
            "--sensitive", "a",
            "--tau", "0.8",
            "--rounds", "5",
            "--bins", "16",
            "--seed", "1",
            "--out", model_path,
            "--trace", trace_path,
        ]
    )
    assert code == 0
    assert Path(model_path).read_bytes() == model_bytes
    assert Path(trace_path).read_bytes() == trace_bytes


def test_fit_zero_rounds_is_anchor(tmp_path, synth_csv):
    model = str(tmp_path / "anchor.json")
    assert main(
        ["fit", "--data", synth_csv, "--sensitive", "a", "--rounds", "0", "--out", model]
    ) == 0
    bd, _, _ = load_model(model)
    assert len(bd.rounds) == 0
    assert bd.representation_rate() == 1.0


def test_fit_folds_manifest(tmp_path, synth_csv):
    model = str(tmp_path / "m.json")
    assert main(
        [
            "fit",
            "--data", synth_csv,
            "--sensitive", "a",
            "--rounds", "3",
            "--bins", "12",
            "--folds", "2",
            "--out", model,
        ]
    ) == 0
    manifest = read_json(model + ".manifest.json")
    assert [f["fold"] for f in manifest["fold_summaries"]] == [0, 1]
    # each fold's numbers are its anchor's and its final stack's, bit for bit, the training ones read from its trace
    dataset, schema = load_csv(infer_csv_spec(synth_csv, "a", None, 12, []))
    scheme = LeveragingScheme("exact", 0.9, LN2)
    folds = kfold(dataset, 2, subseed(0, FOLDS))
    for i, (f, (train, test)) in enumerate(zip(manifest["fold_summaries"], folds)):
        q0 = build_initial(train, schema, 1.0)
        stack, _, _ = fbde_fit(train, q0, FitConfig(rounds=3, scheme=scheme, seed=subseed(0, FOLDS, i)))
        train_hat, test_hat = fit_empirical(train, 0.0), fit_empirical(test, 0.0)
        anchor, final = BoostedDensity(q0).table(), stack.table()
        assert f == {
            "fold": i,
            "final_rr": stack.representation_rate(),
            "final_kl_train": kl_divergence(train_hat.mass, final.mass),
            "final_kl_test": kl_divergence(test_hat.mass, final.mass),
            "anchor_kl_train": kl_divergence(train_hat.mass, anchor.mass),
            "anchor_kl_test": kl_divergence(test_hat.mass, anchor.mass),
        }
        assert f["final_kl_test"] < f["anchor_kl_test"]
    agg = manifest["fold_aggregate"]
    assert set(agg) == {"final_rr", "final_kl_train", "final_kl_test", "anchor_kl_test"}
    got = [f["final_rr"] for f in manifest["fold_summaries"]]
    assert agg["final_rr"]["mean"] == pytest.approx(float(np.mean(got)), rel=1e-12)


def test_fit_zero_rounds_with_folds(tmp_path, synth_csv):
    # a zero-round fit is its anchor: its trace holds the t=0 row alone, and every fold number is the anchor's
    model, trace = str(tmp_path / "m.json"), str(tmp_path / "trace.csv")
    argv = ["fit", "--data", synth_csv, "--sensitive", "a", "--rounds", "0", "--folds", "2", "--out", model]
    assert main([*argv, "--trace", trace]) == 0
    assert [(row.t, row.rr, row.z) for row in load_trace(trace)] == [(0, 1.0, 1.0)]
    bd, _, _ = load_model(model)
    assert len(bd.rounds) == 0 and bd.representation_rate() == 1.0
    folds = read_json(model + ".manifest.json")["fold_summaries"]
    assert len(folds) == 2
    for f in folds:
        assert f["final_rr"] == 1.0
        assert f["final_kl_train"] == f["anchor_kl_train"]
        assert f["final_kl_test"] == f["anchor_kl_test"]


def test_fit_folds_without_smoothing_names_the_fold(tmp_path, synth_csv, capsys):
    # at 50 bins a held-out row of fold 0 lands in a cell no training row of the fold reaches
    model = tmp_path / "m.json"
    argv = ["fit", "--data", synth_csv, "--sensitive", "a", "--rounds", "1", "--bins", "50", "--folds", "5"]
    code = main(argv + ["--smoothing", "0", "--out", str(model)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: fold 0: a held-out row falls in a cell where the fold's unsmoothed anchor puts no mass; "
        "held-out KL needs --smoothing > 0\n"
    )
    assert not model.exists()
    assert main(argv + ["--smoothing", "1", "--out", str(model)]) == 0


@pytest.fixture(scope="module")
def unsmoothed_fit(tmp_path_factory):
    """A 2-round fit with --smoothing 0, its training file and a second synth file."""
    d = tmp_path_factory.mktemp("unsmoothed")
    train, other, model = (str(d / name) for name in ("train.csv", "other.csv", "model.json"))
    assert main(["synth", "--n", "300", "--seed", "1", "--out", train]) == 0
    assert main(["synth", "--n", "300", "--seed", "2", "--out", other]) == 0
    fit = ["fit", "--data", train, "--sensitive", "a", "--smoothing", "0", "--rounds", "2", "--out", model]
    assert main(fit) == 0
    return train, other, model


@pytest.mark.parametrize(
    "data, smoothing, cause",
    [
        ("other", "0", "a data row falls in a cell where the model puts no mass"),
        ("train", "0.5", "eval --smoothing spreads mass onto cells where the model puts none"),
    ],
    ids=["data-row", "smoothing"],
)
def test_eval_names_the_cells_the_model_gives_no_mass(tmp_path, unsmoothed_fit, capsys, data, smoothing, cause):
    # an unsmoothed anchor leaves cells empty: a row of another sample lands in one, or
    # eval's own smoothing gives them mass; either way the KL is infinite
    train, other, model = unsmoothed_fit
    out = tmp_path / "metrics.json"
    argv = ["eval", "--model", model, "--data", {"train": train, "other": other}[data], "--out", str(out)]
    assert main(argv + ["--smoothing", smoothing]) == 1
    assert capsys.readouterr().err == f"error: {cause}; the KL needs a model refit with --smoothing > 0\n"
    assert not out.exists()
    assert main(["eval", "--model", model, "--data", train, "--smoothing", "0", "--out", str(out)]) == 0


def test_fit_reads_its_csv_once(tmp_path, synth_csv, monkeypatch):
    reads = []
    read_rows = pipeline._read_rows
    monkeypatch.setattr(pipeline, "_read_rows", lambda path: reads.append(path) or read_rows(path))
    model = tmp_path / "m.json"
    assert main(["fit", "--data", synth_csv, "--sensitive", "a", "--rounds", "1", "--out", str(model)]) == 0
    assert reads == [synth_csv]


def test_fit_rejects_a_range_too_wide_to_bin(tmp_path):
    # a child process, so that any numpy warning would show on its stderr
    data = tmp_path / "wide.csv"
    data.write_text("x,a\n-1e308,0\n0.5,1\n1e308,0\n2.5,1\n3.5,0\n")
    model = tmp_path / "m.json"
    proc = subprocess.run(
        [sys.executable, "-m", "fairboost.cli", "fit", "--data", str(data), "--sensitive", "a", "--bins", "4", "--out", str(model)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: column 'x': range [-1e+308, 1e+308] is too wide to bin\n"
    assert not model.exists()


def _wide_csv(features: int, rows: int) -> list:
    """The lines of a file of ``rows`` rows: ``features`` random numeric columns and an alternating ``a``."""
    rng = np.random.default_rng(0)
    body = [",".join(map(repr, rng.random(features).tolist())) + f",{i % 2}" for i in range(rows)]
    return [",".join(f"f{j}" for j in range(features)) + ",a", *body]


def test_fit_bins_a_constant_column_around_its_value(tmp_path):
    # a numeric column of one value is binned over [value - 0.5, value + 0.5]
    data, model = tmp_path / "constant.csv", str(tmp_path / "m.json")
    data.write_text("x,a\n" + "".join(f"0.5,{i % 2}\n" for i in range(40)))
    assert main(["fit", "--data", str(data), "--sensitive", "a", "--bins", "4", "--rounds", "2", "--out", model]) == 0
    assert load_model(model)[0].schema.attributes[0].bin_edges == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert main(["eval", "--model", model, "--data", str(data), "--out", str(tmp_path / "metrics.json")]) == 0


def test_fit_domain_beyond_memory_is_an_error(tmp_path, capsys):
    # 8 numeric features at 150 bins make 150**8 feature cells: the anchor's (|A|, n_x)
    # buffer needs 3.56 EiB, more than a 64-bit address space, so the allocation fails at once
    data, model = tmp_path / "wide.csv", tmp_path / "m.json"
    data.write_text("\n".join(_wide_csv(8, 60)) + "\n")
    assert main(["fit", "--data", str(data), "--sensitive", "a", "--bins", "150", "--rounds", "1", "--out", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 3.56 EiB") and err.count("\n") == 1
    assert not model.exists()


def test_fit_at_the_last_positive_theta_loads(tmp_path, capsys):
    # at C = 1e300 round 26's theta is the last above 0.0 (a subnormal), and both readers take the model
    data, model, trace = (str(tmp_path / name) for name in ("s.csv", "m.json", "trace.csv"))
    assert main(["synth", "--n", "200", "--seed", "1", "--out", data]) == 0
    fit = ["fit", "--data", data, "--sensitive", "a", "--bins", "4", "--rounds", "26", "--c-bound", "1e300"]
    assert main([*fit, "--out", model, "--trace", trace]) == 0
    assert load_trace(trace)[-1].theta == leverage(LeveragingScheme("exact", 0.9, 1e300), 26) < 1e-308
    assert main(["eval", "--model", model, "--data", data]) == 0
    assert main(["guarantees", "--model", model, "--trace", trace]) == 0


# -- refusals -----------------------------------------------------------

#: the stage a refusal comes at; the table's test makes the step that ends it raise
_BEFORE_READ, _BEFORE_FIT, _IN_FIT = "before any file is read", "before any fit", "during the fit"
_FIT = ["fit", "--data", "{data}", "--sensitive", "a"]
_EVAL = ["eval", "--model", "{model}", "--data", "{data}"]


def _edited_row(i, edit):
    """The data lines with line i (row i - 1) edited."""
    return lambda lines: [*lines[:i], edit(lines[i]), *lines[i + 1 :]]


#: the data file of a refusal, from the synth file's lines; a row without one reads that file itself
_DATA = {
    "header-only": lambda lines: ["x,a"],
    "one-class": lambda lines: [lines[0] + ",y"] + [line + ",1" for line in lines[1:]],
    "one-group": lambda lines: ["x,a", "0.1,1", "0.5,1", "0.9,1"],
    "nan": _edited_row(4, lambda line: "nan," + line.split(",")[1]),
    "inf": _edited_row(4, lambda line: "inf," + line.split(",")[1]),
    "-inf": _edited_row(4, lambda line: "-inf," + line.split(",")[1]),
    "long-row": _edited_row(3, lambda line: line + ",9"),
    # the one a=0 row is held out of one fold's training part
    "rare-group": lambda lines: ["x,a", *(f"{i / 40!r},1" for i in range(40)), "0.5,0"],
    "wide": lambda lines: _wide_csv(4, 300),
    "no-x": lambda lines: ["a", *(line.split(",")[1] for line in lines[1:])],
}
_NON_FINITE_CSV = "non-finite value '{}' in column 'x' at row 3"
_THETA = "the {} scheme's theta_t at round {} is {} for tau 0.9 and C {}; it must be a positive finite float"
#: id -> (argv, data, the error line's message, stage): argv and message have "{data}" and "{model}" filled in
_REFUSALS = {
    "synth-mu-nan": (["synth", "--n", "50", "--mu", "nan", "0.7"], None, "mu must be finite, got nan", _BEFORE_READ),
    "synth-sigma-inf": (["synth", "--n", "50", "--sigma", "inf", "0.2"], None, "sigma must be finite, got inf",
                        _BEFORE_READ),
    # the uniforms are clipped to [1e-16, 1 - 1e-16], so the most extreme draw is z = ndtri(1e-16)
    "synth-draws-overflow": (["synth", "--n", "50", "--sigma", "1e308", "0.2"], None,
                             "group 0's draws overflow: mu -0.5 + sigma 1e+308 * -8.222082216130435 is not finite",
                             _BEFORE_READ),
    "scheme-boosted": ([*_FIT, "--scheme", "boosted"], None, "unknown scheme 'boosted'", _BEFORE_READ),
    "scheme-const": ([*_FIT, "--scheme", "const:0.3"], None, "unknown scheme 'const:0.3'", _BEFORE_READ),
    "tau-before-data": ([*_FIT, "--tau", "2"], "missing", "tau must be in (0, 1)", _BEFORE_READ),
    "folds-1": ([*_FIT, "--folds", "1"], None, "folds must be 0 or >= 2", _BEFORE_READ),
    "folds-negative": ([*_FIT, "--folds", "-1"], None, "folds must be 0 or >= 2", _BEFORE_READ),
    "seed-negative": ([*_FIT, "--seed", "-1"], None, "seed must be >= 0", _BEFORE_READ),
    "synth-seed-negative": (["synth", "--n", "50", "--seed", "-1"], None, "seed must be >= 0", _BEFORE_READ),
    "synth-n-past-one-array": (["synth", "--n", str(2**63 - 1)], None,
                               f"n must be at most {2**60 - 1}, the most values one float64 array can index, "
                               f"got {2**63 - 1}", _BEFORE_READ),
    # --bins past the cell limit: bins + 1 bin edges would overflow int64
    "bins-past-one-table": ([*_FIT, "--bins", str(2**63 - 1)], None,
                            f"bins must be at most {2**60 - 1}, the most cells one float64 table can index, "
                            f"got {2**63 - 1}", _BEFORE_READ),
    "c-bound-nan": ([*_FIT, "--c-bound", "nan"], None, "c_bound must be finite, got nan", _BEFORE_READ),
    "c-bound-inf": ([*_FIT, "--c-bound", "inf"], None, "c_bound must be finite, got inf", _BEFORE_READ),
    # theta_t is 0.0 once 2^(t+1) or C * 2^(t+1) overflows, or 2 C t does; it is inf when C is subnormal
    "exact-past-1022-rounds": ([*_FIT, "--rounds", "1023"], None,
                               _THETA.format("exact", 1023, 0.0, 0.6931471805599453), _BEFORE_READ),
    "exact-theta-underflows": ([*_FIT, "--rounds", "60", "--c-bound", "1e300"], None,
                               _THETA.format("exact", 60, 0.0, 1e300), _BEFORE_READ),
    "relative-theta-underflows": ([*_FIT, "--scheme", "relative", "--rounds", "2", "--c-bound", "1e308"], None,
                                  _THETA.format("relative", 1, 0.0, 1e308), _BEFORE_READ),
    "theta-overflows": ([*_FIT, "--c-bound", "1e-320"], None, _THETA.format("exact", 1, "inf", 1e-320), _BEFORE_READ),
    "sensitive-target": ([*_FIT, "--target", "a"], None, "column 'a' cannot be both sensitive and target",
                         _BEFORE_READ),
    "target-ignored": ([*_FIT, "--target", "x", "--ignore", "x"], None,
                       "column 'x' cannot be both target and ignored", _BEFORE_READ),
    "sensitive-ignored": ([*_FIT, "--ignore", "a"], None, "column 'a' cannot be both sensitive and ignored",
                          _BEFORE_READ),
    "fit-missing-file": (_FIT, "missing", "[Errno 2] No such file or directory: {data!r}", _BEFORE_FIT),
    "fit-header-only": (_FIT, "header-only", "{data!r} has a header and no data rows", _BEFORE_FIT),
    "eval-header-only": (_EVAL, "header-only", "{data!r} has a header and no data rows", _BEFORE_FIT),
    "fit-nan": (_FIT, "nan", _NON_FINITE_CSV.format("nan"), _BEFORE_FIT),
    "fit-inf": (_FIT, "inf", _NON_FINITE_CSV.format("inf"), _BEFORE_FIT),
    "fit-negative-inf": (_FIT, "-inf", _NON_FINITE_CSV.format("-inf"), _BEFORE_FIT),
    "eval-nan": (_EVAL, "nan", _NON_FINITE_CSV.format("nan"), _BEFORE_FIT),
    "eval-inf": (_EVAL, "inf", _NON_FINITE_CSV.format("inf"), _BEFORE_FIT),
    "eval-negative-inf": (_EVAL, "-inf", _NON_FINITE_CSV.format("-inf"), _BEFORE_FIT),
    "fit-long-row": (_FIT, "long-row", "row 2 has 3 fields, the header has 2", _BEFORE_FIT),
    "eval-long-row": (_EVAL, "long-row", "row 2 has 3 fields, the header has 2", _BEFORE_FIT),
    "eval-without-model-column": (_EVAL, "no-x", "column 'x' not found", _BEFORE_FIT),
    # a model of one class would fail every eval, and one group makes every fairness certificate vacuous
    "target-one-class": ([*_FIT, "--target", "y"], "one-class", "target column 'y' needs at least 2 classes, got 1",
                         _BEFORE_FIT),
    "sensitive-one-value": (_FIT, "one-group", "sensitive column 'a' needs at least 2 values, got 1", _BEFORE_FIT),
    # 4 numeric features at 60000 bins and two groups make 2.59e19 cells, past int64: the count is exact
    **{
        f"domain-past-one-table-{bins}": ([*_FIT, "--bins", str(bins)], "wide",
                                          f"the domain has {bins**4 * 2} cells, more than one float64 table can "
                                          f"index ({2**60 - 1})", _BEFORE_FIT)
        for bins in (60_000, 100_000)
    },
    "folds-past-rows": ([*_FIT, "--folds", "801"], None, "k exceeds dataset size", _BEFORE_FIT),
    "fold-lacks-group": ([*_FIT, "--folds", "3", "--bins", "5"], "rare-group",
                         "fold 1: unrepresented sensitive value '0' in the fold's training part", _BEFORE_FIT),
    "smoothing-nan": ([*_FIT, "--smoothing", "nan"], None, "smoothing must be finite, got nan", _BEFORE_READ),
    "eval-smoothing-nan": ([*_EVAL, "--smoothing", "nan"], None, "smoothing must be finite, got nan", _BEFORE_READ),
    # s / (N_a + s * cells) is 0.0 in an empty cell: fit's anchor row of 4 feature cells, eval's table of 32 cells
    "smoothing-underflows": ([*_FIT, "--bins", "4", "--smoothing", "5e-324"], None,
                             "smoothing 5e-324 over 4 cells gives an empty cell a mass that underflows to 0.0",
                             _BEFORE_FIT),
    "eval-smoothing-underflows": ([*_EVAL, "--smoothing", "5e-324"], None,
                                  "smoothing 5e-324 over 32 cells gives an empty cell a mass that underflows to 0.0",
                                  _BEFORE_FIT),
    # N + smoothing * n_cells overflows, so the table would sum to 0, not 1; fit's anchor is fitted
    # one group's row at a time, over the 16 feature cells, and eval's table covers all 32 cells
    "fit-smoothing-overflows": ([*_FIT, "--bins", "16", "--smoothing", "1e308"], None,
                                "smoothing 1e+308 over 16 cells gives a table total that overflows", _BEFORE_FIT),
    "eval-smoothing-overflows": ([*_EVAL, "--smoothing", "1e308"], None,
                                 "smoothing 1e+308 over 32 cells gives a table total that overflows", _BEFORE_FIT),
    # the sums behind a round's margins reach C times the 1600 negatives 800 rows draw
    "c-bound-overflows-margins": ([*_FIT, "--bins", "4", "--rounds", "2", "--c-bound", "1e306"], None,
                                  "c_bound 1e+306 times 1600 negatives overflows the round margins' sums", _IN_FIT),
}


@pytest.mark.parametrize("argv, data, message, stage", _REFUSALS.values(), ids=list(_REFUSALS))
def test_refusal(tmp_path, synth_csv, fit_run, capsys, monkeypatch, argv, data, message, stage):
    # exit 1 with one exact error: line, no output or manifest, and at the row's stage
    path = synth_csv if data is None else str(tmp_path / "data.csv")
    if data in _DATA:
        Path(path).write_text("\n".join(_DATA[data](Path(synth_csv).read_text().splitlines())) + "\n")
    fields, out, fits = {"data": path, "model": fit_run[0]}, tmp_path / "out.json", []

    def reached(*args, **kwargs):
        raise AssertionError(f"a refusal {stage} reached a step past it")

    if stage == _BEFORE_READ:
        for module, name in ((pipeline, "_read_rows"), (cli, "load_model"), (cli, "load_model_rounds")):
            monkeypatch.setattr(module, name, reached)
    monkeypatch.setattr(cli, "fbde_fit", reached if stage == _BEFORE_FIT else lambda *a: fits.append(a) or fbde_fit(*a))
    assert main([arg.format(**fields) for arg in argv] + ["--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(**fields)}\n")
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()
    assert bool(fits) == (stage == _IN_FIT)


#: the values each flag is walked over: every float flag takes _WALK_FLOATS, every integer flag _WALK_INTS
_WALK_FLOATS = ("nan", "inf", "-inf", "0.0", "-0.0", "-1", "5e-324", "1e-320", "1e-300", "0.5", "1", "2", "1e300",
                "1e308")
_WALK_INTS = ("0", "1", "-1", "2", str(2**63 - 1), str(2**63), str(-(2**63) - 1))
#: (command, flag) -> the values walked; fit's base run is 2 rounds at --bins 4 under the exact scheme
_WALK = {
    **{("fit", flag): _WALK_FLOATS for flag in ("--tau", "--c-bound", "--smoothing")},
    **{("fit", flag): _WALK_INTS for flag in ("--rounds", "--bins", "--max-depth", "--min-leaf", "--folds", "--seed")},
    ("eval", "--smoothing"): _WALK_FLOATS,
    **{("synth", flag): _WALK_INTS for flag in ("--n", "--seed")},
    # the largest n MixtureParams takes: numpy refuses its 8 EiB of draws at once, in one line
    ("synth", "--n"): (*_WALK_INTS, str(2**60 - 1)),
    **{("synth", flag): _WALK_FLOATS for flag in ("--s", "--mu", "--sigma")},
}
#: the walk's refusals that need the data, so come after it is read: a count of rows or cells decides them
_WALK_NEEDS_DATA = {
    ("fit", "--smoothing", "5e-324"),  # an empty cell's mass underflows among the row's cells
    ("fit", "--smoothing", "1e308"),  # the total over the row's cells overflows
    ("fit", "--folds", str(2**63 - 1)),  # k exceeds the rows
    ("fit", "--folds", str(2**63)),
    ("eval", "--smoothing", "5e-324"),
    ("eval", "--smoothing", "1e308"),
}


def _walk_argv(command, flag, value, d, data, model) -> list:
    if command == "fit":
        base = [*_FIT, "--bins", "4", "--rounds", "2", "--trace", str(d / "trace.csv")]
    elif command == "eval":
        base = _EVAL
    else:
        base = ["synth", "--n", "50"]
    # a pair flag takes the value first; the '=' form keeps argparse from reading '-inf' as an option
    tail = [flag, value, "0.7"] if flag in ("--mu", "--sigma") else [f"{flag}={value}"]
    return [arg.format(data=data, model=model) for arg in base] + ["--out", str(d / "out"), *tail]


def _walk_outputs_read(command, d, data, capsys) -> bool:
    """Whether the files a run wrote are read back: fit's model and trace by eval and guarantees, eval's
    metrics as JSON, and synth's rows as finite numbers."""
    out = str(d / "out")
    if command == "fit":
        readers = (["eval", "--model", out, "--data", data, "--out", str(d / "metrics.json")],
                   ["guarantees", "--model", out, "--trace", str(d / "trace.csv"), "--out", str(d / "report.json")])
        ok = all(main(argv) == 0 for argv in readers)
        return ok and capsys.readouterr() == ("", "")
    if command == "eval":
        return read_json(out)["format"] == "fairboost.metrics"
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    return rows.shape[1] == 2 and bool(np.isfinite(rows).all())


@pytest.mark.parametrize("command, flag", list(_WALK), ids=[f"{c}{f}" for c, f in _WALK])
def test_flag_walk(tmp_path, synth_csv, fit_run, capsys, monkeypatch, command, flag):
    # each value is refused with one error: line (or by argparse) and no file, before any file is read
    # unless _WALK_NEEDS_DATA names it, or it writes files that their readers take
    reads = []
    for module, name in ((pipeline, "_read_rows"), (cli, "load_model"), (cli, "load_model_rounds")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real: reads.append(a) or real(*a))
    broken = []
    for i, value in enumerate(_WALK[command, flag]):
        d = tmp_path / str(i)
        d.mkdir()
        reads.clear()
        try:
            code = main(_walk_argv(command, flag, value, d, synth_csv, fit_run[0]))
        except SystemExit as exc:  # argparse's refusal: usage, then its own error line
            code = exc.code
        out, err = capsys.readouterr()
        key = (command, flag, value)
        if code == 0:
            ok = out == err == "" and _walk_outputs_read(command, d, synth_csv, capsys)
        elif code == 2:
            ok = out == "" and err.splitlines()[-1].startswith(f"fairboost {command}: error:")
            ok = ok and not any(d.iterdir())
        else:
            ok = code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1
            ok = ok and not any(d.iterdir()) and bool(reads) == (key in _WALK_NEEDS_DATA)
        if not ok:
            broken.append((value, code, err.strip(), len(reads)))
    assert broken == []


# -- eval ---------------------------------------------------------------


def test_eval_stdout_metrics(fit_run, synth_csv, capsys):
    model_path, _ = fit_run
    assert main(["eval", "--model", model_path, "--data", synth_csv, "--smoothing", "1"]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["format"] == "fairboost.metrics"
    assert metrics["n_rows"] == 800
    assert metrics["units"] == "nats"
    assert metrics["rr_difference"] <= 1e-10
    assert metrics["sr"] is None

    bd, _, _ = load_model(model_path)
    data = load_csv_with_schema(synth_csv, bd.schema)
    want = kl_divergence(fit_empirical(data, 1.0).mass, bd.table().mass)
    assert metrics["kl"] == want


def test_eval_writes_file(fit_run, synth_csv, tmp_path, capsys):
    model_path, _ = fit_run
    out = str(tmp_path / "metrics.json")
    assert main(["eval", "--model", model_path, "--data", synth_csv, "--out", out]) == 0
    assert capsys.readouterr().out == ""
    doc = read_json(out)
    assert doc["rr_table"] == pytest.approx(doc["rr_normalizers"], abs=1e-10)


def test_eval_statistical_rate_with_target(tmp_path, capsys):
    path = tmp_path / "labeled.csv"
    rows = ["x,a,y"]
    rng = np.random.default_rng(5)
    for _ in range(400):
        x = rng.integers(0, 3)
        a = rng.integers(0, 2)
        y = int(rng.random() < (0.7 if a == 1 else 0.4))
        rows.append(f"{x},{a},{y}")
    # force code order 0,1 for both label columns
    rows[1] = "0,0,0"
    path.write_text("\n".join(rows) + "\n")
    model = str(tmp_path / "m.json")
    assert main(
        [
            "fit",
            "--data", str(path),
            "--sensitive", "a",
            "--target", "y",
            "--rounds", "2",
            "--out", model,
        ]
    ) == 0
    assert main(["eval", "--model", model, "--data", str(path)]) == 0
    metrics = json.loads(capsys.readouterr().out)
    bd, _, _ = load_model(model)
    assert metrics["sr"] == statistical_rate(bd.table(), 1)
    assert 0.0 <= metrics["sr"] <= 1.0


def test_eval_self_check_fails_on_inconsistent_normalizers(fit_run, synth_csv, tmp_path, capsys):
    model_path, _ = fit_run
    doc = read_json(model_path)
    doc["rounds"][0]["z_by_group"][0] *= 1.5
    bad = str(tmp_path / "bad.json")
    dump_json(doc, bad)
    out = str(tmp_path / "metrics.json")
    assert main(["eval", "--model", bad, "--data", synth_csv, "--out", out]) == 1
    assert "error: self-check failed: rr_difference" in capsys.readouterr().err
    # the metrics are still written, unchanged in form
    metrics = read_json(out)
    assert metrics["rr_difference"] > 1e-9
    assert metrics["rr_difference"] == abs(metrics["rr_table"] - metrics["rr_normalizers"])


# -- guarantees ---------------------------------------------------------


def test_guarantees_report(fit_run, capsys):
    model_path, trace_path = fit_run
    assert main(["guarantees", "--model", model_path, "--trace", trace_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["format"] == "fairboost.report"
    assert report["scheme"] == "exact"
    assert report["all_fairness_hold"] is True
    assert report["rounds"] == len(report["fairness_rounds"])
    implied = report["implied"]
    assert implied["sr_floor"] == pytest.approx(implied["final_rr"] ** 2, rel=1e-12)
    assert implied["dc_ceiling"] >= 0.0


def test_guarantees_out_file(fit_run, tmp_path):
    model_path, trace_path = fit_run
    out = str(tmp_path / "report.json")
    assert main(["guarantees", "--model", model_path, "--trace", trace_path, "--out", out]) == 0
    assert read_json(out)["format"] == "fairboost.report"


def test_guarantees_builds_no_stack(fit_run, tmp_path, monkeypatch):
    model_path, trace_path = fit_run
    want, got = tmp_path / "want.json", tmp_path / "got.json"
    assert main(["guarantees", "--model", model_path, "--trace", trace_path, "--out", str(want)]) == 0

    def boom(*args, **kwargs):
        raise AssertionError("guarantees decodes the model's rounds but builds no anchor or stack")

    monkeypatch.setattr(cli, "load_model", boom)
    monkeypatch.setattr(InitialDensity, "__init__", boom)
    monkeypatch.setattr(BoostedDensity, "__init__", boom)
    assert main(["guarantees", "--model", model_path, "--trace", trace_path, "--out", str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()


def _guarantees_error(model_path, trace_path, tmp_path, capsys) -> str:
    out = tmp_path / "report.json"
    assert main(["guarantees", "--model", model_path, "--trace", trace_path, "--out", str(out)]) == 1
    assert not out.exists()
    return capsys.readouterr().err


def _edit_round(trace_path, t, **cells) -> list:
    """The trace's lines with the named cells of round t replaced."""
    return _edit_lines(Path(trace_path).read_text().splitlines(), t, **cells)


def _edit_lines(lines, t, **cells) -> list:
    header = lines[0].split(",")
    row = lines[t + 1].split(",")
    for column, text in cells.items():
        row[header.index(column)] = text
    return lines[: t + 1] + [",".join(row)] + lines[t + 2 :]


def _differs(t, column, row, value) -> str:
    return (
        f"trace round {t}: {column} {getattr(row, column)!r} differs from the model's {value!r}; "
        "the trace is not this model's"
    )


def _fit_trace(run, data, *flags) -> list:
    """The lines of the trace of a 5-round fit of ``data`` at ``flags``, made in the run's directory."""
    trace = run.dir / "trace.csv"
    code = main(["fit", "--data", data, "--sensitive", "a", "--rounds", "5", *flags, "--out", str(run.dir / "m.json"),
                 "--trace", str(trace)])
    assert code == 0
    return trace.read_text().splitlines()


def _another_model(run):
    # a relative run at C = 1.5 on 4 features, also 5 rounds: theta differs from round 1
    rng = np.random.default_rng(4)
    rows = ["f0,f1,f2,f3,a"] + [",".join(repr(float(v)) for v in rng.random(4)) + f",{i % 3 % 2}" for i in range(300)]
    data = run.dir / "features.csv"
    data.write_text("\n".join(rows) + "\n")
    lines = _fit_trace(run, str(data), "--scheme", "relative", "--c-bound", "1.5", "--bins", "6")
    row, first = load_trace(run.dir / "trace.csv")[1], load_model_rounds(run.model)[2][0]
    assert row.theta != first.theta
    return run.model, lines, _differs(1, "theta", row, first.theta)


def _another_seed(run):
    # the same data and flags at another seed: other trees, so at some round another theta_t or Z_t
    lines = _fit_trace(run, run.data, "--tau", "0.8", "--bins", "16", "--seed", "2")
    rounds = load_model_rounds(run.model)[2]
    rows = load_trace(run.dir / "trace.csv")[1:]
    assert len(rows) == len(rounds)
    differ = [(row, rnd) for row, rnd in zip(rows, rounds) if (row.theta, row.z) != (rnd.theta, rnd.z)]
    assert differ, "the two seeds fit the same rounds"
    row, rnd = differ[0]
    column, value = ("theta", rnd.theta) if row.theta != rnd.theta else ("z", rnd.z)
    return run.model, lines, _differs(row.t, column, row, value)


def _header_only(run):
    # a zero-round fit's trace is its t=0 anchor row; a header alone is no fit's
    model = str(run.dir / "m0.json")
    assert main(["fit", "--data", run.data, "--sensitive", "a", "--rounds", "0", "--out", model]) == 0
    return model, run.lines[:1], "the trace does not open with its t=0 anchor row; the trace is not this model's"


def _mislabelled_regime(run):
    row = load_trace(run.trace)[1]
    label = "LBS" if row.regime == "HBS" else "HBS"
    message = f"trace row t=1: regime {label!r} is not {row.regime!r}, its margins' regime"
    return run.model, _edit_lines(run.lines, 1, regime=label), message


def _models_rate(run, **cells):
    # the rr and floor a report certifies are the model's, not the trace's copies; rr is compared first
    row = load_trace(run.trace)[1]
    column = "rr" if "rr" in cells else "rr_bound"
    edited = dataclasses.replace(row, **{c: float(text) for c, text in cells.items()})
    return run.model, _edit_lines(run.lines, 1, **cells), _differs(1, column, edited, getattr(row, column))


#: id -> a function of the run (the fit_run model, its trace's path and lines, the synth data and a
#: directory) giving the model, the trace's lines and the message of guarantees' one error: line
_TRACE_REFUSALS = {
    "non-finite": lambda run: (run.model, _edit_lines(run.lines, 1, theta="nan"),
                               "trace row t=1: theta must be finite, got nan"),
    "short-row": lambda run: (run.model, [run.lines[0], "0,0.0"], "trace row 0: expected 10 fields, got 2"),
    "header-only": _header_only,
    "swapped": lambda run: (run.model, run.lines[:2] + [run.lines[3], run.lines[2]] + run.lines[4:],
                            "trace row 1: expected round t=1, got t=2"),
    "truncated": lambda run: (run.model, run.lines[:-1],
                              "trace ends at round 4, the model at round 5; the trace is not this model's"),
    "rr": lambda run: _models_rate(run, rr="0.99", rr_bound="0.95"),
    "rr_bound": lambda run: _models_rate(run, rr_bound="0.7"),
    "mislabelled-regime": _mislabelled_regime,
    "another-model": _another_model,
    "another-seed": _another_seed,
}


@pytest.mark.parametrize("make", _TRACE_REFUSALS.values(), ids=list(_TRACE_REFUSALS))
def test_guarantees_trace_refusal(tmp_path, fit_run, synth_csv, capsys, make):
    # exit 1 with one exact error: line, and no report
    model, trace = fit_run
    run = SimpleNamespace(model=model, trace=trace, lines=Path(trace).read_text().splitlines(), data=synth_csv,
                          dir=tmp_path)
    model, lines, message = make(run)
    edited, out = tmp_path / "edited.csv", tmp_path / "report.json"
    edited.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["guarantees", "--model", model, "--trace", str(edited), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_guarantees_fails_on_a_false_bound(fit_run, tmp_path, capsys):
    # the report is written first; then the false progress upper bound fails the command
    model_path, trace_path = fit_run
    last = len(load_trace(trace_path)) - 1
    bad = tmp_path / "trace.csv"
    bad.write_text("\n".join(_edit_round(trace_path, last, kl_train="0.0")) + "\n")
    out = tmp_path / "report.json"
    assert main(["guarantees", "--model", model_path, "--trace", str(bad), "--out", str(out)]) == 1
    delta = read_json(out)["delta"]
    assert delta["upper_holds"] is False
    assert capsys.readouterr().err == (
        f"error: round {last}: KL progress {delta['measured']!r} exceeds its upper bound {delta['upper']!r}\n"
    )


def test_guarantees_fails_on_a_false_rate_floor(fit_run, tmp_path, capsys):
    # a model whose scheme asks a floor its rounds missed, each theta that scheme's, and a trace that agrees with it
    model_path, trace_path = fit_run
    scheme = LeveragingScheme("exact", 0.9999)

    def forge(doc):
        doc["scheme"].update(tau=scheme.tau)
        for t, r in enumerate(doc["rounds"], start=1):
            r["theta"] = leverage(scheme, t)

    model = _broken_model(tmp_path, model_path, forge)
    lines = Path(trace_path).read_text().splitlines()
    for t in range(1, len(lines) - 1):
        lines = _edit_lines(lines, t, theta=repr(leverage(scheme, t)), rr_bound="0.9999")
    bad = tmp_path / "trace.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report.json"
    assert main(["guarantees", "--model", model, "--trace", str(bad), "--out", str(out)]) == 1
    first = next(f for f in read_json(out)["fairness_rounds"] if not f["holds"])
    assert capsys.readouterr().err == f"error: round {first['t']}: rr {first['rr']!r} is below its floor 0.9999\n"


def _broken_model(tmp_path, model_path, breaker):
    doc = read_json(model_path)
    breaker(doc)
    path = str(tmp_path / "broken.json")
    dump_json(doc, path)
    return path


def _first_leaf(node) -> dict:
    while "leaf" not in node:
        node = node["left"]
    return node


_THETA_1 = leverage(LeveragingScheme("exact", 0.8), 1)  # fit_run's round-1 theta


@pytest.mark.parametrize(
    "breaker, message",
    [
        (lambda r: _first_leaf(r["classifier"]["root"]).update(leaf=5.0),
         f"round 1: tree leaf 5.0 is not a vote 0.0, {LN2!r} or {-LN2!r}"),
        (lambda r: _first_leaf(r["classifier"]["root"]).update(leaf=math.nextafter(LN2, math.inf)),
         f"round 1: tree leaf {math.nextafter(LN2, math.inf)!r} is not a vote 0.0, {LN2!r} or {-LN2!r}"),
        (lambda r: r.update(theta=2 * r["theta"]),
         f"round 1: theta {2 * _THETA_1!r} is not the exact scheme's theta_t {_THETA_1!r}"),
    ],
    ids=["leaf", "leaf-past-C", "theta-doubled"],
)
def test_tree_no_fit_writes_rejected_by_both_readers(tmp_path, fit_run, synth_csv, capsys, breaker, message):
    # every certificate assumes theta_t is the scheme's and c_t votes 0 or +-C, so guarantees checks
    # them as eval does, on a trace whose round-1 theta agrees with the model's
    model_path, trace_path = fit_run
    assert "split" in read_json(model_path)["rounds"][0]["classifier"]["root"]
    bad = _broken_model(tmp_path, model_path, lambda doc: breaker(doc["rounds"][0]))
    assert main(["eval", "--model", bad, "--data", synth_csv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(_edit_round(trace_path, 1, theta=repr(read_json(bad)["rounds"][0]["theta"]))) + "\n")
    assert _guarantees_error(bad, str(trace), tmp_path, capsys) == f"error: {message}\n"


@pytest.mark.parametrize(
    "scheme, message",
    [
        # a version-1 model with the constant scheme, which no fit writes any more
        ({"kind": "constant", "tau": None, "c_bound": LN2, "value": 0.05}, "unknown scheme 'constant'"),
    ],
    ids=["constant"],
)
def test_scheme_no_fit_writes_rejected_by_both_readers(tmp_path, fit_run, synth_csv, capsys, scheme, message):
    model_path, trace_path = fit_run
    bad = _broken_model(tmp_path, model_path, lambda doc: doc.update(scheme=scheme))
    for argv in (["guarantees", "--trace", trace_path], ["eval", "--data", synth_csv]):
        assert main([*argv, "--model", bad]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_feature_free_data_rejected(tmp_path, fit_run, synth_csv, capsys):
    # a CSV holding only the sensitive column leaves nothing to model
    only_a = tmp_path / "only_a.csv"
    only_a.write_text("a\n0\n1\n0\n1\n1\n0\n")
    message = "error: schema must have at least one attribute besides the sensitive one"
    assert main(["fit", "--data", str(only_a), "--sensitive", "a", "--out", str(tmp_path / "m.json")]) == 1
    assert capsys.readouterr().err.startswith(message)

    model_path, _ = fit_run

    def breaker(doc):
        schema = doc["q0"]["schema"]
        schema["attributes"] = [a for a in schema["attributes"] if a["name"] == "a"]
        schema["sensitive_index"] = 0
        doc["q0"]["conditionals"] = [[1.0], [1.0]]
        doc["rounds"] = []

    bad = _broken_model(tmp_path, model_path, breaker)
    assert main(["eval", "--model", bad, "--data", str(only_a)]) == 1
    assert capsys.readouterr().err.startswith(message)


def _anchor_rows(doc, entry):
    doc["q0"]["conditionals"] = [[entry(v) for v in row] for row in doc["q0"]["conditionals"]]


def _boolean_anchor_row(doc):
    # true then falses: converted, the row is the distribution [1, 0, ..., 0], and a model
    # without rounds would pass every other check
    rows = doc["q0"]["conditionals"]
    rows[0] = [True] + [False] * (len(rows[0]) - 1)
    doc["rounds"] = []


@pytest.mark.parametrize(
    "breaker",
    [
        # each entry its own value as a JSON string: converting them would pass every check
        lambda doc: _anchor_rows(doc, repr),
        _boolean_anchor_row,
    ],
    ids=["conditionals-strings", "conditionals-bool"],
)
def test_eval_rejects_model_value_of_wrong_type(tmp_path, fit_run, synth_csv, capsys, breaker):
    model_path, _ = fit_run
    bad = _broken_model(tmp_path, model_path, breaker)
    assert main(["eval", "--model", bad, "--data", synth_csv]) == 1
    assert capsys.readouterr().err.startswith("error: model field 'q0.conditionals' has the wrong JSON type")


def test_load_model_reads_integer_anchor_entries(tmp_path, fit_run):
    # a JSON integer is a number too: rows of 1s and 0s load as float64
    model_path, _ = fit_run

    def breaker(doc):
        rows = doc["q0"]["conditionals"]
        doc["q0"]["conditionals"] = [[1] + [0] * (len(rows[0]) - 1) for _ in rows]
        doc["rounds"] = []

    bd, _, _ = load_model(_broken_model(tmp_path, model_path, breaker))
    assert bd.q0.cond.dtype == np.float64 and bd.q0.cond[:, 0].tolist() == [1.0, 1.0]


def _tree_leaves_and_depth(node) -> tuple:
    if "leaf" in node:
        return 1, 0
    (ll, ld), (rl, rd) = _tree_leaves_and_depth(node["left"]), _tree_leaves_and_depth(node["right"])
    return ll + rl, 1 + max(ld, rd)


def test_fit_manifest_records_each_round(fit_run):
    # per-round seconds and tree sizes go to the manifest, which no digest pins
    model_path, _ = fit_run
    manifest = read_json(model_path + ".manifest.json")
    rounds = read_json(model_path)["rounds"]
    assert list(manifest)[-1] == "rounds"
    assert [r["t"] for r in manifest["rounds"]] == list(range(1, len(rounds) + 1))
    for rec, stored in zip(manifest["rounds"], rounds):
        assert list(rec) == ["t", "sample_s", "tree_s", "extended_s", "joint_kl_s", "leaves", "depth"]
        assert all(type(rec[k]) is float and rec[k] >= 0.0 for k in ("sample_s", "tree_s", "extended_s", "joint_kl_s"))
        assert (rec["leaves"], rec["depth"]) == _tree_leaves_and_depth(stored["classifier"]["root"])


# -- entry points -------------------------------------------------------


def _child_env() -> dict:
    """The environment for a child interpreter, with the package's source on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_console_script(tmp_path):
    # pip writes the `fairboost` wrapper only at install time, so this checks what the
    # repo declares: the [project.scripts] target, called as the wrapper calls it
    # (no arguments, return value is the exit code). Python 3.10 needs `tomli`.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["fairboost"]
    module, attr = target.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"

    def synth(out):
        return subprocess.run(
            [sys.executable, "-c", wrapper, "synth", "--n", "40", "--out", out],
            capture_output=True,
            text=True,
            env=_child_env(),
        )

    out = str(tmp_path / "s.csv")
    proc = synth(out)
    assert proc.returncode == 0, proc.stderr
    assert Path(out).read_text().splitlines()[0] == "x,a"
    # sys.exit(None) also exits 0, so only a failing run shows that main returns its code
    proc = synth(str(tmp_path / "missing" / "s.csv"))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:")


def test_module_entry(tmp_path):
    out = str(tmp_path / "s.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "fairboost.cli", "synth", "--n", "40", "--out", out],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
