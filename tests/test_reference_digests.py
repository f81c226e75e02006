"""The benchmark's pinned output bytes, reproduced in process.

perfbench/run.py runs synth/fit/eval/guarantees as cold CLI processes and
checks the SHA-256 of the five files they write against
perfbench/reference_digests.json.  This test runs the same argv through
``fairboost.cli.main`` in a temporary working directory, under the same
relative file names (the run id in the model hashes the resolved config),
so a change to the bytes fails here and not only in the benchmark.  The
reference file is only read.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

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
