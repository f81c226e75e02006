"""Smoke test of the benchmark's traced CLI (perfbench/traced_cli.py).

The benchmark's per-layer run wraps library functions by the names their
callers resolve; a rename that breaks a wrapped name fails here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"

STEPS = [
    ["synth", "--n", "500", "--seed", "0", "--out", "data.csv"],
    [
        "fit", "--data", "data.csv", "--sensitive", "a", "--rounds", "2", "--folds", "2",
        "--out", "model.json", "--trace", "trace.csv",
    ],
    ["eval", "--model", "model.json", "--data", "data.csv", "--smoothing", "1", "--out", "metrics.json"],
    ["guarantees", "--model", "model.json", "--trace", "trace.csv", "--out", "report.json"],
]


def test_traced_cli_runs_the_pipeline(tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    names = {}
    for i, argv in enumerate(STEPS):
        spans = tmp_path / f"spans{i}.json"
        proc = subprocess.run(
            [sys.executable, str(TRACED_CLI), str(spans), "on", *argv],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, f"{argv[0]}: {proc.stderr}"
        names[argv[0]] = {span[0] for span in json.loads(spans.read_text())["spans"]}
    # each span wraps the name its caller resolves (tree.train_tree and tree.estimate_wla
    # wrap engine's names): a fit whose round reaches one by another name has no span
    assert {"engine.fbde_fit", "boosted.extended", "boosted.joint", "tree.train_tree", "tree.estimate_wla"} <= names["fit"]
