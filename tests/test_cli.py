"""End-to-end command tests driven through main(argv)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
    a = [line.split(",")[1] for line in open(path).read().splitlines()[1:]]
    assert set(a) == {"1"}


@pytest.mark.parametrize(
    "flags, message",
    [(["--mu", "nan", "0.7"], "mu must be finite, got nan"), (["--sigma", "inf", "0.2"], "sigma must be finite, got inf")],
    ids=["mu-nan", "sigma-inf"],
)
def test_synth_rejects_non_finite_parameters(tmp_path, capsys, flags, message):
    out = tmp_path / "s.csv"
    assert main(["synth", "--n", "50", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# -- fit ----------------------------------------------------------------


def test_fit_outputs(fit_run, synth_csv, tmp_path):
    model_path, trace_path = fit_run
    bd, scheme, run_id = load_model(model_path)
    assert scheme.kind == "exact" and scheme.tau == 0.8
    assert len(bd.rounds) <= 5
    assert bd.representation_rate() >= 0.8 - 1e-9
    trace = load_trace(trace_path)
    assert trace[0].t == 0 and trace[-1].t == len(bd.rounds)
    manifest = json.load(open(model_path + ".manifest.json"))
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
    model_bytes = open(model_path, "rb").read()
    trace_bytes = open(trace_path, "rb").read()
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
    assert open(model_path, "rb").read() == model_bytes
    assert open(trace_path, "rb").read() == trace_bytes


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
    manifest = json.load(open(model + ".manifest.json"))
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
    folds = json.load(open(model + ".manifest.json"))["fold_summaries"]
    assert len(folds) == 2
    for f in folds:
        assert f["final_rr"] == 1.0
        assert f["final_kl_train"] == f["anchor_kl_train"]
        assert f["final_kl_test"] == f["anchor_kl_test"]


def test_fit_missing_file(tmp_path, capsys):
    code = main(
        ["fit", "--data", str(tmp_path / "nope.csv"), "--sensitive", "a", "--out", str(tmp_path / "m.json")]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def _header_only_csv(tmp_path) -> tuple[str, str]:
    data = tmp_path / "empty.csv"
    data.write_text("x,a\n")
    return str(data), f"error: {str(data)!r} has a header and no data rows\n"


def test_fit_rejects_header_only_csv(tmp_path, capsys):
    data, message = _header_only_csv(tmp_path)
    model = tmp_path / "m.json"
    assert main(["fit", "--data", data, "--sensitive", "a", "--out", str(model)]) == 1
    assert capsys.readouterr().err == message
    assert not model.exists()


def test_eval_rejects_header_only_csv(tmp_path, fit_run, capsys):
    data, message = _header_only_csv(tmp_path)
    out = tmp_path / "metrics.json"
    assert main(["eval", "--model", fit_run[0], "--data", data, "--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_fit_unknown_scheme(tmp_path, synth_csv, capsys):
    # exact and relative are the only schemes; const:<v> is unknown text too
    for text in ("boosted", "const:0.3"):
        code = main(
            [
                "fit",
                "--data", synth_csv,
                "--sensitive", "a",
                "--scheme", text,
                "--out", str(tmp_path / "m.json"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: unknown scheme {text!r}\n"
        assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("folds", ["1", "-1"])
def test_fit_rejects_invalid_folds(tmp_path, synth_csv, capsys, folds):
    model = str(tmp_path / "m.json")
    code = main(["fit", "--data", synth_csv, "--sensitive", "a", "--folds", folds, "--out", model])
    assert code == 1
    assert "error: folds must be 0 or >= 2" in capsys.readouterr().err


def test_fit_checks_folds_before_fitting(tmp_path, synth_csv, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a --folds kfold refuses fails before any fit")

    monkeypatch.setattr(cli, "fbde_fit", boom)
    model = tmp_path / "m.json"
    code = main(["fit", "--data", synth_csv, "--sensitive", "a", "--folds", "801", "--out", str(model)])
    assert code == 1
    assert capsys.readouterr().err == "error: k exceeds dataset size\n"
    assert not model.exists()


def test_fit_rejects_single_class_target(tmp_path, synth_csv, capsys):
    # a model of one class would fail every eval; fit refuses it instead
    lines = open(synth_csv).read().splitlines()
    data = tmp_path / "one-class.csv"
    data.write_text("\n".join([lines[0] + ",y"] + [line + ",1" for line in lines[1:]]) + "\n")
    model = tmp_path / "m.json"
    code = main(["fit", "--data", str(data), "--sensitive", "a", "--target", "y", "--rounds", "1", "--out", str(model)])
    assert code == 1
    assert capsys.readouterr().err == "error: target column 'y' needs at least 2 classes, got 1\n"
    assert not model.exists()


def test_fit_rejects_single_valued_sensitive(tmp_path, capsys, monkeypatch):
    # one group makes every fairness certificate vacuous; fit refuses it before any fit
    def boom(*args, **kwargs):
        raise AssertionError("a one-valued sensitive column fails before any fit")

    monkeypatch.setattr(cli, "fbde_fit", boom)
    data = tmp_path / "one-group.csv"
    data.write_text("x,a\n0.1,1\n0.5,1\n0.9,1\n")
    model = tmp_path / "m.json"
    code = main(["fit", "--data", str(data), "--sensitive", "a", "--rounds", "2", "--out", str(model)])
    assert code == 1
    assert capsys.readouterr().err == "error: sensitive column 'a' needs at least 2 values, got 1\n"
    assert not model.exists()


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


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--sensitive", "a", "--target", "a"], "column 'a' cannot be both sensitive and target"),
        (["--sensitive", "a", "--target", "x", "--ignore", "x"], "column 'x' cannot be both target and ignored"),
        (["--sensitive", "a", "--ignore", "a"], "column 'a' cannot be both sensitive and ignored"),
    ],
    ids=["sensitive-target", "target-ignored", "sensitive-ignored"],
)
def test_fit_rejects_conflicting_column_flags(tmp_path, synth_csv, capsys, flags, message):
    model = tmp_path / "m.json"
    code = main(["fit", "--data", synth_csv, *flags, "--rounds", "1", "--out", str(model)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not model.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--c-bound", "nan"], "c_bound must be finite, got nan"),
        (["--c-bound", "inf"], "c_bound must be finite, got inf"),
        (["--smoothing", "nan"], "smoothing must be finite, got nan"),
    ],
    ids=["c-bound-nan", "c-bound-inf", "smoothing-nan"],
)
def test_fit_rejects_non_finite_numbers(tmp_path, synth_csv, capsys, flags, message):
    model = tmp_path / "m.json"
    code = main(["fit", "--data", synth_csv, "--sensitive", "a", "--rounds", "2", *flags, "--out", str(model)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not model.exists()


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_fit_and_eval_reject_non_finite_csv_values(tmp_path, synth_csv, fit_run, capsys, text):
    # a numeric column with a NaN or infinity is neither binned nor read as labels
    lines = open(synth_csv).read().splitlines()
    lines[4] = text + "," + lines[4].split(",")[1]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    message = f"error: non-finite value '{text}' in column 'x' at row 3\n"
    model = tmp_path / "m.json"
    assert main(["fit", "--data", str(bad), "--sensitive", "a", "--rounds", "1", "--out", str(model)]) == 1
    assert capsys.readouterr().err == message
    assert not model.exists()
    model_path, _ = fit_run
    assert main(["eval", "--model", model_path, "--data", str(bad)]) == 1
    assert capsys.readouterr().err == message


def test_fit_reads_its_csv_once(tmp_path, synth_csv, monkeypatch):
    reads = []
    read_rows = pipeline._read_rows
    monkeypatch.setattr(pipeline, "_read_rows", lambda path: reads.append(path) or read_rows(path))
    model = tmp_path / "m.json"
    assert main(["fit", "--data", synth_csv, "--sensitive", "a", "--rounds", "1", "--out", str(model)]) == 0
    assert reads == [synth_csv]


def test_fit_and_eval_reject_rows_longer_than_the_header(tmp_path, synth_csv, fit_run, capsys):
    lines = open(synth_csv).read().splitlines()
    lines[3] += ",9"
    bad = tmp_path / "long.csv"
    bad.write_text("\n".join(lines) + "\n")
    message = "error: row 2 has 3 fields, the header has 2\n"
    model = tmp_path / "m.json"
    assert main(["fit", "--data", str(bad), "--sensitive", "a", "--rounds", "1", "--out", str(model)]) == 1
    assert capsys.readouterr().err == message
    assert not model.exists()
    out = tmp_path / "metrics.json"
    assert main(["eval", "--model", fit_run[0], "--data", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


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


def _refused_wide_fit(tmp_path, capsys, features, rows, bins) -> str:
    """stderr of a fit, which must fail and write no model, on ``rows`` rows of
    ``features`` random numeric columns and an alternating ``a``."""
    rng = np.random.default_rng(0)
    data, model = tmp_path / "wide.csv", tmp_path / "m.json"
    lines = [",".join(map(repr, rng.random(features).tolist())) + f",{i % 2}\n" for i in range(rows)]
    data.write_text(",".join(f"f{j}" for j in range(features)) + ",a\n" + "".join(lines))
    assert main(["fit", "--data", str(data), "--sensitive", "a", "--bins", str(bins), "--rounds", "1", "--out", str(model)]) == 1
    assert not model.exists()
    return capsys.readouterr().err


def test_fit_domain_beyond_memory_is_an_error(tmp_path, capsys):
    # 8 numeric features at 150 bins make 150**8 feature cells: the anchor's (|A|, n_x)
    # buffer needs 3.56 EiB, more than a 64-bit address space, so the allocation fails at once
    err = _refused_wide_fit(tmp_path, capsys, 8, 60, 150)
    assert err.startswith("error: Unable to allocate 3.56 EiB") and err.count("\n") == 1


@pytest.mark.parametrize("bins", [60_000, 100_000])
def test_fit_domain_beyond_one_table_is_refused_by_its_count(tmp_path, capsys, bins):
    # 4 numeric features at 60000 bins and two groups make 2.59e19 cells, past int64: the count is exact
    assert _refused_wide_fit(tmp_path, capsys, 4, 300, bins) == (
        f"error: the domain has {bins**4 * 2} cells, more than one float64 table can index ({2**60 - 1})\n"
    )


def test_fit_refuses_rounds_past_the_exact_scheme(tmp_path, synth_csv, capsys):
    # round 1023's theta needs 2.0 ** 1024: the count is refused before any round runs
    model = tmp_path / "m.json"
    argv = ["fit", "--data", synth_csv, "--sensitive", "a", "--bins", "4", "--rounds", "1023", "--out", str(model)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: the exact scheme takes at most 1022 rounds, got round 1023: "
        "its theta_t needs 2^(t+1), which overflows a float past them\n"
    )
    assert not model.exists()


def test_fit_refuses_a_fold_whose_training_part_lacks_a_group(tmp_path, capsys):
    # the one a=0 row is held out of one fold's training part: refused when the folds are split
    data, model = tmp_path / "rare.csv", tmp_path / "m.json"
    data.write_text("x,a\n" + "".join(f"{i / 40!r},1\n" for i in range(40)) + "0.5,0\n")
    argv = ["fit", "--data", str(data), "--sensitive", "a", "--folds", "3", "--rounds", "2", "--bins", "5"]
    assert main([*argv, "--out", str(model)]) == 1
    assert capsys.readouterr().err == "error: fold 1: unrepresented sensitive value '0' in the fold's training part\n"
    assert not model.exists() and not Path(f"{model}.manifest.json").exists()


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
    doc = json.load(open(out))
    assert doc["rr_table"] == pytest.approx(doc["rr_normalizers"], abs=1e-10)


def test_eval_rejects_non_finite_smoothing(fit_run, synth_csv, tmp_path, capsys):
    model_path, _ = fit_run
    out = tmp_path / "metrics.json"
    code = main(["eval", "--model", model_path, "--data", synth_csv, "--smoothing", "nan", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: smoothing must be finite, got nan\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "eval"])
def test_smoothing_that_overflows_the_table_total_is_refused(fit_run, synth_csv, tmp_path, capsys, command):
    # N + smoothing * n_cells overflows to inf; the table would sum to 0, not 1
    model_path, _ = fit_run
    q0 = load_model(model_path)[0].q0
    if command == "fit":  # the anchor is fitted one group's row at a time
        argv, cells = ["fit", "--data", synth_csv, "--sensitive", "a", "--bins", "16"], q0.x_schema.n_cells
    else:
        argv, cells = ["eval", "--model", model_path, "--data", synth_csv], q0.schema.n_cells
    out = tmp_path / "out.json"
    assert main(argv + ["--smoothing", "1e308", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: smoothing 1e+308 over {cells} cells gives a table total that overflows\n"
    assert not out.exists()


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
    doc = json.load(open(model_path))
    doc["rounds"][0]["z_by_group"][0] *= 1.5
    bad = str(tmp_path / "bad.json")
    dump_json(doc, bad)
    out = str(tmp_path / "metrics.json")
    assert main(["eval", "--model", bad, "--data", synth_csv, "--out", out]) == 1
    assert "error: self-check failed: rr_difference" in capsys.readouterr().err
    # the metrics are still written, unchanged in form
    metrics = json.load(open(out))
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
    assert json.load(open(out))["format"] == "fairboost.report"


def test_guarantees_rejects_non_finite_trace(tmp_path, fit_run, capsys):
    model_path, trace_path = fit_run
    lines = open(trace_path).read().splitlines()
    cells = lines[2].split(",")
    cells[1] = "nan"  # theta of round t=1
    lines[2] = ",".join(cells)
    bad = tmp_path / "trace.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report.json"
    assert main(["guarantees", "--model", model_path, "--trace", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: trace row t=1: theta must be finite")
    assert not out.exists()


def test_guarantees_rejects_short_trace_row(tmp_path, fit_run, capsys):
    model_path, _ = fit_run
    bad = tmp_path / "trace.csv"
    bad.write_text("t,theta,gamma_p,gamma_q,regime,rr,rr_bound,kl_train,kl_test,z\n0,0.0\n")
    assert main(["guarantees", "--model", model_path, "--trace", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: trace row 0: expected 10 fields, got 2")


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


def _fit_trace(d, data, *flags):
    trace = str(d / "trace.csv")
    code = main(["fit", "--data", data, "--sensitive", "a", "--rounds", "5", *flags, "--out", str(d / "m.json"),
                 "--trace", trace])
    assert code == 0
    return trace


def _guarantees_error(model_path, trace_path, tmp_path, capsys) -> str:
    out = tmp_path / "report.json"
    assert main(["guarantees", "--model", model_path, "--trace", trace_path, "--out", str(out)]) == 1
    assert not out.exists()
    return capsys.readouterr().err


def _mismatch(t, row, theta, z):
    return (
        f"error: trace round {t}: theta {row.theta!r} and z {row.z!r} differ from the model's {theta!r} and "
        f"{z!r}; the trace is not this model's\n"
    )


def test_guarantees_rejects_trace_of_another_model(fit_run, tmp_path, capsys):
    # a relative run at C = 1.5 on 4 features, also 5 rounds: theta differs from round 1
    rng = np.random.default_rng(4)
    rows = ["f0,f1,f2,f3,a"] + [",".join(repr(float(v)) for v in rng.random(4)) + f",{i % 3 % 2}" for i in range(300)]
    data = tmp_path / "features.csv"
    data.write_text("\n".join(rows) + "\n")
    trace = _fit_trace(tmp_path, str(data), "--scheme", "relative", "--c-bound", "1.5", "--bins", "6")
    model_path, _ = fit_run
    first = load_model_rounds(model_path)[2][0]
    row = load_trace(trace)[1]
    assert row.theta != first.theta
    assert _guarantees_error(model_path, trace, tmp_path, capsys) == _mismatch(1, row, first.theta, first.z)


def test_guarantees_rejects_trace_of_another_seed(fit_run, synth_csv, tmp_path, capsys):
    # the same data and flags at another seed: other trees, so at some round another theta_t or Z_t
    trace = _fit_trace(tmp_path, synth_csv, "--tau", "0.8", "--bins", "16", "--seed", "2")
    model_path, _ = fit_run
    rounds = load_model_rounds(model_path)[2]
    rows = load_trace(trace)[1:]
    assert len(rows) == len(rounds)
    differ = [(row, rnd) for row, rnd in zip(rows, rounds) if (row.theta, row.z) != (rnd.theta, rnd.z)]
    assert differ, "the two seeds fit the same rounds"
    row, rnd = differ[0]
    assert _guarantees_error(model_path, trace, tmp_path, capsys) == _mismatch(row.t, row, rnd.theta, rnd.z)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:], "error: trace row 1: expected round t=1, got t=2\n"),
        (lambda lines: lines[:-1], "error: trace ends at round 4, the model at round 5; the trace is not this model's\n"),
    ],
    ids=["swapped", "truncated"],
)
def test_guarantees_rejects_edited_trace(fit_run, tmp_path, capsys, edit, message):
    model_path, trace_path = fit_run
    bad = tmp_path / "trace.csv"
    bad.write_text("\n".join(edit(open(trace_path).read().splitlines())) + "\n")
    assert _guarantees_error(model_path, str(bad), tmp_path, capsys) == message


def _edit_round(trace_path, t, **cells) -> list:
    """The trace's lines with the named cells of round t replaced."""
    return _edit_lines(open(trace_path).read().splitlines(), t, **cells)


def _edit_lines(lines, t, **cells) -> list:
    header = lines[0].split(",")
    row = lines[t + 1].split(",")
    for column, text in cells.items():
        row[header.index(column)] = text
    return lines[: t + 1] + [",".join(row)] + lines[t + 2 :]


@pytest.mark.parametrize(
    "cells, message",
    [
        ({"rr": "0.99", "rr_bound": "0.95"}, "error: trace round 1: rr 0.99 differs from the model's "),
        ({"rr_bound": "0.7"}, "error: trace round 1: rr_bound 0.7 differs from the scheme's 0.8\n"),
    ],
    ids=["rr", "rr_bound"],
)
def test_guarantees_certifies_the_models_rates(fit_run, tmp_path, capsys, cells, message):
    # the rr and floor a report certifies are the model's, not the trace's copies
    model_path, trace_path = fit_run
    bad = tmp_path / "trace.csv"
    bad.write_text("\n".join(_edit_round(trace_path, 1, **cells)) + "\n")
    assert _guarantees_error(model_path, str(bad), tmp_path, capsys).startswith(message)


def test_guarantees_fails_on_a_false_bound(fit_run, tmp_path, capsys):
    # the report is written first; then the false progress upper bound fails the command
    model_path, trace_path = fit_run
    last = len(load_trace(trace_path)) - 1
    bad = tmp_path / "trace.csv"
    bad.write_text("\n".join(_edit_round(trace_path, last, kl_train="0.0")) + "\n")
    out = tmp_path / "report.json"
    assert main(["guarantees", "--model", model_path, "--trace", str(bad), "--out", str(out)]) == 1
    delta = json.load(open(out))["delta"]
    assert delta["upper_holds"] is False
    assert capsys.readouterr().err == (
        f"error: round {last}: KL progress {delta['measured']!r} exceeds its upper bound {delta['upper']!r}\n"
    )


def test_guarantees_fails_on_a_false_rate_floor(fit_run, tmp_path, capsys):
    # a model whose scheme asks a floor its rounds missed, and a trace that agrees with it
    model_path, trace_path = fit_run
    model = _broken_model(tmp_path, model_path, lambda doc: doc["scheme"].update(tau=0.9999))
    lines = open(trace_path).read().splitlines()
    for t in range(1, len(lines) - 1):
        lines = _edit_lines(lines, t, rr_bound="0.9999")
    bad = tmp_path / "trace.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report.json"
    assert main(["guarantees", "--model", model, "--trace", str(bad), "--out", str(out)]) == 1
    first = next(f for f in json.load(open(out))["fairness_rounds"] if not f["holds"])
    assert capsys.readouterr().err == f"error: round {first['t']}: rr {first['rr']!r} is below its floor 0.9999\n"


def test_guarantees_rejects_mislabelled_regime(fit_run, tmp_path, capsys):
    model_path, trace_path = fit_run
    row = load_trace(trace_path)[1]
    label = "LBS" if row.regime == "HBS" else "HBS"
    bad = tmp_path / "trace.csv"
    bad.write_text("\n".join(_edit_round(trace_path, 1, regime=label)) + "\n")
    assert _guarantees_error(model_path, str(bad), tmp_path, capsys) == (
        f"error: trace row t=1: regime {label!r} is not {row.regime!r}, its margins' regime\n"
    )


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


@pytest.mark.parametrize(
    "breaker, message",
    [
        (lambda tree: _first_leaf(tree["root"]).update(leaf=5.0),
         "round 1: tree leaf 5.0 is not a finite value in [-c_bound, c_bound]"),
    ],
    ids=["leaf"],
)
def test_tree_no_fit_writes_rejected_by_both_readers(tmp_path, fit_run, synth_csv, capsys, breaker, message):
    # every certificate assumes |c_t| <= C, so guarantees checks the trees as eval does
    model_path, trace_path = fit_run
    assert "split" in read_json(model_path)["rounds"][0]["classifier"]["root"]
    bad = _broken_model(tmp_path, model_path, lambda doc: breaker(doc["rounds"][0]["classifier"]))
    assert main(["eval", "--model", bad, "--data", synth_csv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert _guarantees_error(bad, trace_path, tmp_path, capsys) == f"error: {message}\n"


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
    assert open(out).readline().strip() == "x,a"
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
