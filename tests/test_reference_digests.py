"""The benchmark's pinned output bytes, reproduced in process.

perfbench/run.py runs synth/fit/eval/guarantees as cold CLI processes and
checks the SHA-256 of the five files they write against
perfbench/reference_digests.json.  This test runs the same argv through
``fairboost.cli.main`` in a temporary working directory, under the same
relative file names (the run id in the model hashes the resolved config),
so a change to the bytes fails here and not only in the benchmark.  The
reference file is only read.

Every benchmark workload puts the sensitive column last.  A small run on a
file whose sensitive column comes first, and one where it sits between the
features, pins the bytes that the other cell layouts give.  Every benchmark
run also fits at the default C = ln 2; a small relative-scheme run at C = 1.5
pins the report that marks the drop floors and the Delta lower bound not
applicable.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from fairboost.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference_digests.json"
OUTPUTS = ("data.csv", "model.json", "trace.csv", "metrics.json", "report.json")

# (bins, folds, synth rows, generated rows and features) as perfbench/run.py's WORKLOADS
WORKLOADS = {
    "mixture-readme": (50, 5, 5000, None),
    "features-4d": (20, 0, None, (20000, 4)),
}


def cycle(workload, seed):
    """The commands of one benchmark cycle, as perfbench/run.py's cycle_commands."""
    bins, folds, synth_n, _ = WORKLOADS[workload]
    steps = [] if synth_n is None else [["synth", "--n", str(synth_n), "--seed", str(seed), "--out", "data.csv"]]
    fit = ["fit", "--data", "data.csv", "--sensitive", "a", "--tau", "0.7", "--scheme", "exact"]
    fit += ["--rounds", "10", "--bins", str(bins), "--max-depth", "8"]
    fit += ["--folds", str(folds)] if folds else []
    fit += ["--seed", "0", "--out", "model.json", "--trace", "trace.csv"]
    steps.append(fit)
    steps.append(["eval", "--model", "model.json", "--data", "data.csv", "--smoothing", "1", "--out", "metrics.json"])
    steps.append(["guarantees", "--model", "model.json", "--trace", "trace.csv", "--out", "report.json"])
    return steps


@pytest.mark.parametrize("workload, seed", [("mixture-readme", 0), ("features-4d", 0)])
def test_cli_reproduces_reference_digests(tmp_path, monkeypatch, workload, seed):
    monkeypatch.chdir(tmp_path)
    generated = WORKLOADS[workload][3]
    if generated is not None:
        spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        gen.write_csv(*gen.generate(*generated, seed), "data.csv")
    for argv in cycle(workload, seed):
        assert main(argv) == 0, argv
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in OUTPUTS}
    assert digests == json.loads(REFERENCE.read_text())[workload][str(seed)]


# SHA-256 of each file of the run below, recorded before the joint table was
# written in place through its group-major view
SENSITIVE_NOT_LAST = {
    ("a", "x0", "x1"): {
        "data.csv": "755d731d3c158565e19a7ca28faca31b2c655cd1c0b71ae3ba0103d541bca877",
        "model.json": "552caa3b396a360e8cdb6d15f3e2c5c648877d344530cee8f95e368ee0fab25f",
        "trace.csv": "757a65734d91f9b45ba4683bae8a016fad34e9b354b7445640e0c84b12eeac33",
        "metrics.json": "0e492d287dd90bd284859e72f324fde8287552b78fe73c9b77ce7cfe97409d60",
        "report.json": "19fa1103a01e25f07dcdbb3ca591c48a2653160fb28ce09d183ff7bca615a269",
    },
    ("x0", "a", "x1"): {
        "data.csv": "86ab0b000cc135a89492f5fa47d0c56c9fedbbe3462a988c428157bfbc313b9f",
        "model.json": "ce17939aa60562ea3020d0bdd0b2c10f46294e334d851fe578f54d0ee0499ab4",
        "trace.csv": "58380b4139a55243889583b48090209dc49be1dbef4cabf81a30608d288dcf51",
        "metrics.json": "934310db347012dbf362614b60620e4e37b40e0b1671ee5f2c17f260f66e12db",
        "report.json": "94b08c466b04130e92965801cff99f8e6b62fdf0d6140747474067f749af8e27",
    },
}


def write_two_feature_csv(columns, path):
    """1,500 rows of a group code a (1 with probability 0.8) and two Gaussian
    features, written shortest-repr in the given column order."""
    rng = np.random.default_rng(19)
    n = 1500
    a = (rng.random(n) < 0.8).astype(np.int64)
    z = rng.standard_normal((n, 2))
    x = np.where(a[:, None] == 1, 0.6 - 0.3 * z, -0.4 + 0.5 * z)
    cells = {"a": [str(v) for v in a.tolist()]}
    cells.update({f"x{j}": [repr(v) for v in x[:, j].tolist()] for j in range(2)})
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for i in range(n):
            fh.write(",".join(cells[c][i] for c in columns) + "\n")


@pytest.mark.parametrize("columns", list(SENSITIVE_NOT_LAST), ids=["a-first", "a-middle"])
def test_cli_bytes_with_sensitive_column_not_last(tmp_path, monkeypatch, columns):
    monkeypatch.chdir(tmp_path)
    write_two_feature_csv(columns, "data.csv")
    fit = ["fit", "--data", "data.csv", "--sensitive", "a", "--tau", "0.8", "--rounds", "6", "--bins", "12"]
    assert main(fit + ["--seed", "2", "--out", "model.json", "--trace", "trace.csv"]) == 0
    assert main(["eval", "--model", "model.json", "--data", "data.csv", "--out", "metrics.json"]) == 0
    assert main(["guarantees", "--model", "model.json", "--trace", "trace.csv", "--out", "report.json"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in OUTPUTS}
    assert digests == SENSITIVE_NOT_LAST[columns]


# SHA-256 of each file of the run below, recorded before build_report took the
# model's rounds
C_NOT_LN2 = {
    "data.csv": "5acce14f6bda91470dfa1d94b318fb5b002d359c1d116a87034957d7cf4f0b47",
    "model.json": "fe05b758b4ae4e5a9711edc589f198d3d68b2354caf3ea112b3634b265dfaf2b",
    "trace.csv": "6a2a9ac2eb7b72437542b4404c055dec1bb2ad893f6c02391d169c34b918d3d7",
    "metrics.json": "1b82a5c3f18c99ec7e05fd338215f9246688141cea655483cfe391c9570b0565",
    "report.json": "831a5b9310ad2c339ee75aacbae4b1adb7b3340ac1bcae5f800e75c5109a27ad",
}


def test_cli_bytes_with_c_bound_not_ln2(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_two_feature_csv(("x0", "x1", "a"), "data.csv")
    fit = ["fit", "--data", "data.csv", "--sensitive", "a", "--tau", "0.8", "--scheme", "relative"]
    fit += ["--c-bound", "1.5", "--rounds", "6", "--bins", "12", "--seed", "2"]
    assert main(fit + ["--out", "model.json", "--trace", "trace.csv"]) == 0
    assert main(["eval", "--model", "model.json", "--data", "data.csv", "--out", "metrics.json"]) == 0
    assert main(["guarantees", "--model", "model.json", "--trace", "trace.csv", "--out", "report.json"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in OUTPUTS}
    assert digests == C_NOT_LN2
