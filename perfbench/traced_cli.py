"""Run one fairboost CLI command in-process, timing calls into each layer.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS.json on|off fit --data ...

With ``on``, the public functions of every package module are wrapped at the
names their callers resolve (``cli.fbde_fit``, ``engine.train_tree``,
``BoostedDensity.extended``, ...) before ``fairboost.cli.main`` runs.  Each
call becomes a span [name, thread id, parent span index, start, end, thread
CPU seconds]; span stacks are kept per thread because ``fit --folds`` runs
``fbde_fit`` on pool threads.  Spans stay in memory and are written to
SPANS.json once the command returns, with the counters some wrappers keep.
With ``off`` nothing is wrapped, so comparing the two ``main_s`` values
gives the tracing overhead.  The program's files and outputs are unchanged
either way.
"""

import sys
import time

_T0 = time.perf_counter()

import json  # noqa: E402
import threading  # noqa: E402

import fairboost.cli as cli  # noqa: E402
from fairboost import boosted, engine, pipeline, serialize, tree  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

_spans: list = []
_counts: dict = {}
_gauges: dict = {}
_lock = threading.Lock()
_local = threading.local()


def _wrap(fn, name, count=None):
    def traced(*args, **kwargs):
        stack = _local.__dict__.setdefault("stack", [])
        rec = [name, threading.get_ident(), stack[-1] if stack else -1, 0.0, 0.0, 0.0]
        with _lock:
            idx = len(_spans)
            _spans.append(rec)
        stack.append(idx)
        c0 = time.thread_time()
        rec[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            rec[5] = time.thread_time() - c0
            stack.pop()
        if count is not None:
            incs, gauges = count(args, result)
            with _lock:
                for k, v in incs.items():
                    _counts[k] = _counts.get(k, 0) + v
                _gauges.update(gauges)
        return result

    return traced


def _count_tree(args, clf):
    nodes = leaves = 0
    stack = [clf.root]
    while stack:
        node = stack.pop()
        nodes += 1
        if node.is_leaf:
            leaves += 1
        else:
            stack.extend([node.left, node.right])
    return {"tree.nodes": nodes, "tree.leaves": leaves}, {}


def _count_fit(args, result):
    rows = [r for r in result[1] if r.t >= 1]
    certified = sum(r.regime in (tree.HBS, tree.LBS) for r in rows)
    return {"engine.rounds": len(rows), "engine.rounds_certified": certified}, {}


def _count_report(args, report):
    return {"guarantees.rounds_certified": sum(r["drop_floor"] is not None for r in report.drop_rounds)}, {}


def _cells(schema):
    return {}, {"boosted.cells": schema.n_cells}


# (owner, attribute, span name, counter); owners are the namespaces callers
# look the name up in, so every call site of a function is covered.
_TARGETS = [
    (cli, "infer_csv_spec", "pipeline.infer_csv_spec", None),
    (cli, "load_csv", "pipeline.load_csv", lambda a, r: ({"pipeline.rows": len(r[0])}, {})),
    (cli, "load_csv_with_schema", "pipeline.load_csv_with_schema", lambda a, r: ({"pipeline.rows": len(r)}, {})),
    (cli, "build_initial", "pipeline.build_initial", lambda a, r: _cells(r.schema)),
    (cli, "kfold", "pipeline.kfold", None),
    (cli, "generate_mixture", "pipeline.generate_mixture", None),
    (cli, "write_mixture_csv", "pipeline.write_mixture_csv", None),
    (cli, "fbde_fit", "engine.fbde_fit", _count_fit),
    (engine, "train_tree", "tree.train_tree", _count_tree),
    (engine, "estimate_wla", "tree.estimate_wla", None),
    (tree.DecisionTreeClassifier, "scores", "tree.scores", lambda a, r: ({"tree.scores.rows": len(r)}, {})),
    (boosted.BoostedDensity, "sample", "boosted.sample", lambda a, r: ({"boosted.sample.rows": len(r)}, {})),
    (boosted.BoostedDensity, "extended", "boosted.extended", None),
    (boosted.BoostedDensity, "joint", "boosted.joint", None),
    (engine, "fit_empirical", "tabular.fit_empirical", None),
    (pipeline, "fit_empirical", "tabular.fit_empirical", None),
    (cli, "fit_empirical", "tabular.fit_empirical", None),
    (engine, "kl_divergence", "tabular.kl_divergence", None),
    (cli, "kl_divergence", "tabular.kl_divergence", None),
    (cli, "representation_rate", "tabular.representation_rate", None),
    (cli, "save_model", "serialize.save_model", None),
    (cli, "save_trace", "serialize.save_trace", None),
    (cli, "dump_json", "serialize.dump_json", None),
    (serialize, "dump_json", "serialize.dump_json", None),
    (cli, "sha256_file", "serialize.sha256_file", None),
    (cli, "load_model", "serialize.load_model", lambda a, r: _cells(r[0].schema)),
    (cli, "load_trace", "serialize.load_trace", None),
    (cli, "build_report", "guarantees.build_report", _count_report),
]


def install() -> None:
    for owner, attr, name, count in _TARGETS:
        setattr(owner, attr, _wrap(getattr(owner, attr), name, count))


def main() -> int:
    out_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode not in ("on", "off"):
        raise SystemExit("usage: traced_cli.py SPANS.json on|off COMMAND [ARGS...]")
    if mode == "on":
        install()
    t0 = time.perf_counter()
    code = cli.main(argv)
    main_s = time.perf_counter() - t0
    doc = {
        "import_s": IMPORT_S,
        "main_s": main_s,
        "exit_code": code,
        "spans": _spans,
        "counts": _counts,
        "gauges": _gauges,
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
