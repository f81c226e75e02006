"""Command-line surface: fit, eval, synth, guarantees.

One --seed flag drives every random phase through named sub-seeds, so any
command rerun with identical flags writes byte-identical model, trace, and
metrics files.  The manifest written next to a model records the resolved
configuration, input digests, per-phase timings and per-round records; its stable
id is embedded in the model, metrics and report documents (timings vary run
to run, the id does not).  ``guarantees`` reads from the model its scheme,
run id, schema and rounds, each decoded and checked as ``eval`` decodes it,
but builds no anchor or stack.  ``build_report`` checks the trace against
those rounds and takes every value the two files share from the model.
``guarantees`` writes the report, then fails if a rate floor or the KL
progress upper bound it asserts is false (the drop floors rest on sample
margins and are only reported).
``eval`` holds the stack only until its joint table is built; p-hat and the
KL come after it, beside the joint alone.
Errors, an allocation the domain size makes impossible included, end in one
``error:`` line and exit code 1.  ``fit`` builds its one ``FitConfig``, whose
check of theta_t at rounds 1 and T vouches for every round, before it reads
any file, so a flag refused by rule is refused before the data are read;
each fold's config is that one with the fold's seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import __version__, seeds
from .boosted import BoostedDensity
from .engine import FitConfig, LeveragingScheme, fbde_fit
from .guarantees import build_report
from .pipeline import (
    MixtureParams,
    build_initial,
    generate_mixture,
    infer_csv_spec,
    kfold,
    load_csv,
    load_csv_with_schema,
    write_mixture_csv,
)
from .serialize import (
    METRICS_FORMAT,
    REPORT_FORMAT,
    build_manifest,
    dump_json,
    load_model,
    load_model_rounds,
    load_trace,
    manifest_id,
    save_model,
    save_trace,
    sha256_file,
)
from .tabular import fit_empirical, kl_divergence, representation_rate, statistical_rate
from .tree import TreeConfig

#: class code whose statistical rate eval reports
_SR_CLASS = 1
#: largest |RR_table - RR_normalizers| eval accepts from a consistent model
_RR_SELF_CHECK_TOL = 1e-9


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fairboost", description="fairness-constrained boosted density estimation")
    sub = p.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model from a CSV file")
    fit.add_argument("--data", required=True, help="training CSV (header row required)")
    fit.add_argument("--sensitive", required=True, help="sensitive column name")
    fit.add_argument("--target", help="class column name (enables statistical-rate metrics)")
    fit.add_argument("--ignore", action="append", default=[], help="column to drop (repeatable)")
    fit.add_argument("--tau", type=float, default=0.9, help="representation-rate target")
    fit.add_argument("--scheme", default="exact", help="exact | relative")
    fit.add_argument("--rounds", type=int, default=10)
    fit.add_argument("--bins", type=int, default=50, help="bins for continuous columns")
    fit.add_argument("--max-depth", type=int, default=TreeConfig.max_depth)
    fit.add_argument("--min-leaf", type=int, default=TreeConfig.min_leaf_count)
    fit.add_argument("--c-bound", type=float, default=LeveragingScheme.c_bound, help="classifier output bound C")
    fit.add_argument("--smoothing", type=float, default=1.0, help="anchor conditional smoothing")
    fit.add_argument("--folds", type=int, default=0, help="0, or k >= 2 for k-fold held-out evaluation")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--out", required=True, help="model JSON path")
    fit.add_argument("--trace", help="per-round trace CSV path")

    ev = sub.add_parser("eval", help="evaluate a model against a CSV file")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--smoothing", type=float, default=0.0, help="empirical-table smoothing")
    ev.add_argument("--out", help="metrics JSON path (stdout when omitted)")

    sy = sub.add_parser("synth", help="generate the two-group Gaussian mixture")
    sy.add_argument("--n", type=int, default=MixtureParams.n)
    sy.add_argument("--s", type=float, default=MixtureParams.s, help="probability of group a=1")
    sy.add_argument("--mu", type=float, nargs=2, default=MixtureParams.mu, metavar=("MU0", "MU1"))
    sy.add_argument("--sigma", type=float, nargs=2, default=MixtureParams.sigma, metavar=("S0", "S1"))
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--out", required=True)

    gu = sub.add_parser("guarantees", help="evaluate every applicable bound for a fitted model")
    gu.add_argument("--model", required=True)
    gu.add_argument("--trace", required=True)
    gu.add_argument("--out", help="report JSON path (stdout when omitted)")
    return p


def _emit(doc: dict, out) -> None:
    if out:
        dump_json(doc, out)
    else:
        print(json.dumps(doc, indent=2))


def cmd_fit(args) -> int:
    if args.folds == 1 or args.folds < 0:
        raise ValueError("folds must be 0 or >= 2")
    scheme = LeveragingScheme(args.scheme, args.tau, args.c_bound)
    cfg = FitConfig(args.rounds, scheme, TreeConfig(max_depth=args.max_depth, min_leaf_count=args.min_leaf), args.seed)
    timings = {}
    t0 = time.perf_counter()
    spec = infer_csv_spec(args.data, args.sensitive, args.target, args.bins, args.ignore)
    dataset, schema = load_csv(spec)
    # split before the full-data fit, so that a --folds that kfold refuses fails first
    splits = kfold(dataset, args.folds, seeds.subseed(args.seed, seeds.FOLDS)) if args.folds else []
    timings["load"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    q0 = build_initial(dataset, schema, args.smoothing)
    stack, trace, round_records = fbde_fit(dataset, q0, cfg)
    timings["fit"] = time.perf_counter() - t0

    extra = {"rounds": round_records}
    if splits:
        t0 = time.perf_counter()
        fold_summaries = extra["fold_summaries"] = []
        for i, (train, test) in enumerate(splits):
            q0_i = build_initial(train, schema, args.smoothing)
            cfg_i = dataclasses.replace(cfg, seed=seeds.subseed(args.seed, seeds.FOLDS, i))
            stack_i, trace_i, _ = fbde_fit(train, q0_i, cfg_i)
            test_hat = fit_empirical(test, 0.0)
            anchor, final = BoostedDensity(q0_i).table(), stack_i.table()
            if (anchor.mass[test_hat.mass > 0] == 0).any():
                raise ValueError(
                    f"fold {i}: a held-out row falls in a cell where the fold's unsmoothed anchor puts no mass; "
                    "held-out KL needs --smoothing > 0"
                )
            fold_summaries.append(
                {
                    "fold": i,
                    "final_rr": trace_i[-1].rr,
                    "final_kl_train": trace_i[-1].kl_train,
                    "final_kl_test": kl_divergence(test_hat.mass, final.mass),
                    "anchor_kl_train": trace_i[0].kl_train,
                    "anchor_kl_test": kl_divergence(test_hat.mass, anchor.mass),
                }
            )
        timings["folds"] = time.perf_counter() - t0

        def agg(key: str) -> dict:
            vals = np.array([f[key] for f in fold_summaries], dtype=np.float64)
            return {"mean": float(vals.mean()), "std": float(vals.std(ddof=1))}

        extra["fold_aggregate"] = {k: agg(k) for k in ("final_rr", "final_kl_train", "final_kl_test", "anchor_kl_test")}

    t0 = time.perf_counter()
    resolved = {k: v for k, v in vars(args).items() if k != "command"}
    digests = {args.data: sha256_file(args.data)}
    run_id = manifest_id("fit", resolved, digests, __version__)
    save_model(stack, args.out, scheme, run_id)
    if args.trace:
        save_trace(trace, args.trace)
    timings["write"] = time.perf_counter() - t0
    dump_json(
        build_manifest(run_id, "fit", resolved, digests, __version__, timings, extra),
        args.out + ".manifest.json",
    )
    return 0


def cmd_eval(args) -> int:
    bd, _, run_id = load_model(args.model)
    data = load_csv_with_schema(args.data, bd.schema)
    joint = bd.table()
    rr_norm = bd.representation_rate()
    del bd  # the anchor and the tilt: p-hat and the KL are built beside the joint alone
    rr_table = representation_rate(joint)
    sr = None
    if joint.schema.target_index is not None:
        sr = statistical_rate(joint, _SR_CLASS)
    p_hat = fit_empirical(data, args.smoothing)
    # the KL needs the model's mass wherever p-hat has some: name the cells that lack it
    if (joint.mass[data.cells()] == 0).any():
        raise ValueError(
            "a data row falls in a cell where the model puts no mass; the KL needs a model refit with --smoothing > 0"
        )
    if p_hat.mass.min() > 0 and joint.mass.min() == 0:
        raise ValueError(
            "eval --smoothing spreads mass onto cells where the model puts none; "
            "the KL needs a model refit with --smoothing > 0"
        )
    metrics = {
        "format": METRICS_FORMAT,
        "version": 1,
        "manifest": run_id,
        "n_rows": len(data),
        "units": "nats",
        "rr_table": rr_table,
        "rr_normalizers": rr_norm,
        "rr_difference": abs(rr_table - rr_norm),
        "kl": kl_divergence(p_hat.mass, joint.mass),
        "sr": sr,
    }
    _emit(metrics, args.out)
    if metrics["rr_difference"] > _RR_SELF_CHECK_TOL:
        raise ValueError(
            f"self-check failed: rr_difference {metrics['rr_difference']!r} exceeds {_RR_SELF_CHECK_TOL}; "
            "the model's stored normalizers do not match its joint table"
        )
    return 0


def cmd_synth(args) -> int:
    params = MixtureParams(mu=tuple(args.mu), sigma=tuple(args.sigma), s=args.s, n=args.n, seed=args.seed)
    x, a = generate_mixture(params)
    write_mixture_csv(x, a, args.out)
    return 0


def cmd_guarantees(args) -> int:
    scheme, run_id, rounds = load_model_rounds(args.model)
    report = build_report(load_trace(args.trace), scheme, rounds)
    _emit({"format": REPORT_FORMAT, "version": 1, "manifest": run_id, **dataclasses.asdict(report)}, args.out)
    for f in report.fairness_rounds:
        if not f["holds"]:
            raise ValueError(f"round {f['t']}: rr {f['rr']!r} is below its floor {f['rr_floor']!r}")
    delta = report.delta
    if delta is not None and not delta["upper_holds"]:
        raise ValueError(
            f"round {report.rounds}: KL progress {delta['measured']!r} exceeds its upper bound {delta['upper']!r}"
        )
    return 0


_DISPATCH = {"fit": cmd_fit, "eval": cmd_eval, "synth": cmd_synth, "guarantees": cmd_guarantees}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
