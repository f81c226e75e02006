"""fairboost benchmark: the user pipeline as cold CLI processes, three domain sizes.

    python3 perfbench/run.py --workload wide-3d --seed 3 --seconds 30 --trace 0

A run makes its input from --seed, times a cold ``import fairboost`` several
times (``setup_s``), then repeats the cycle [synth ->] fit -> eval ->
guarantees, each step a fresh ``python -m fairboost.cli`` process, for
--seconds seconds and at least two cycles.  Every cycle's outputs are checked:
exit codes, ``rr >= rr_bound`` on every round of report.json, eval's
``rr_difference <= 1e-9``, and SHA-256 digests of the data, model, trace,
metrics and report files, which must agree across cycles and with
reference_digests.json where that file lists the seed.  The last line of
stdout is one JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1), the latter from a traced run of the same
cycle through traced_cli.py.  ``--record`` runs one cycle and stores its
digests in reference_digests.json instead.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference_digests.json"
SPEC = ROOT / "BENCHMARK.json"
TRACED_CLI = HERE / "traced_cli.py"

ROUNDS = 10
RR_DIFFERENCE_MAX = 1e-9
# the slack fairboost.guarantees allows when it checks rr against its floor
RR_TOL = 1e-9
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
# the digest comparison needs two cycles; the overhead estimate needs both pair orders
MIN_CYCLES = 2
MIN_PAIRS = 2
# every child and the whole run stay well inside the 180 s a run may take
RUN_DEADLINE_S = 165.0

OUTPUTS = ("data.csv", "model.json", "trace.csv", "metrics.json", "report.json")
# commands with per-layer cli.<cmd>.* metrics; synth runs only in mixture-readme
# and would read 0 elsewhere, so it shows only in the stderr tables
TIMED_COMMANDS = ("fit", "eval", "guarantees")


@dataclass(frozen=True)
class Workload:
    """synth_n: rows drawn by `synth` as the cycle's first step; otherwise
    gen_rows/gen_features describe the CSV that gen.py writes once per run."""

    bins: int
    synth_n: Optional[int] = None
    gen_rows: Optional[int] = None
    gen_features: Optional[int] = None
    folds: int = 0


WORKLOADS = {
    # the README run: 100 cells; import start-up and the fold pool dominate
    "mixture-readme": Workload(bins=50, synth_n=5000, folds=5),
    # 320k cells: tree split search dominates, every round lands in HBS
    "features-4d": Workload(bins=20, gen_rows=20000, gen_features=4),
    # 2M cells: per-domain work and the 61 MB model write/read dominate
    "wide-3d": Workload(bins=100, gen_rows=5000, gen_features=3),
}


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, no input, no data)."""


def metric_units(kind: str) -> dict:
    """name -> unit of the end_to_end or per_layer metrics listed in BENCHMARK.json.

    Per-layer span metrics are named <span>_s (inclusive time), <span>.self_s
    (exclusive) or <span>.calls; counters come from traced_cli.py's wrappers.
    """
    if not SPEC.is_file():
        raise BenchError(f"{SPEC.name} not found next to {HERE.name}/")
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    log: str


class Runner:
    """Starts children one at a time, reaps each with wait4 for its own peak RSS."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("FBDE_LOG", None)

    def run(self, argv: list, log_name: str) -> Child:
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            return Child(-1, 0.0, 0.0, "not started: run deadline reached")
        log_path = WORK / log_name
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=WORK, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, log_path.read_text(errors="replace"))


def cycle_commands(w: Workload, seed: int) -> list:
    steps = []
    if w.synth_n is not None:
        steps.append(("synth", ["synth", "--n", str(w.synth_n), "--seed", str(seed), "--out", "data.csv"]))
    fit = ["fit", "--data", "data.csv", "--sensitive", "a", "--tau", "0.7", "--scheme", "exact"]
    fit += ["--rounds", str(ROUNDS), "--bins", str(w.bins), "--max-depth", "8"]
    if w.folds:
        fit += ["--folds", str(w.folds)]
    fit += ["--seed", "0", "--out", "model.json", "--trace", "trace.csv"]
    steps.append(("fit", fit))
    steps.append(("eval", ["eval", "--model", "model.json", "--data", "data.csv", "--smoothing", "1", "--out", "metrics.json"]))
    steps.append(("guarantees", ["guarantees", "--model", "model.json", "--trace", "trace.csv", "--out", "report.json"]))
    return steps


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_report() -> Optional[str]:
    rounds = json.loads((WORK / "report.json").read_text())["fairness_rounds"]
    if len(rounds) != ROUNDS:
        return f"report.json has {len(rounds)} rounds, expected {ROUNDS}"
    bad = [r["t"] for r in rounds if not r["rr"] >= r["rr_floor"] - RR_TOL]
    return f"report.json: rr < rr_bound at rounds {bad}" if bad else None


def check_eval() -> Optional[str]:
    diff = json.loads((WORK / "metrics.json").read_text())["rr_difference"]
    if not (isinstance(diff, float) and math.isfinite(diff) and diff <= RR_DIFFERENCE_MAX):
        return f"metrics.json: rr_difference {diff!r} exceeds {RR_DIFFERENCE_MAX}"
    return None


def check_digests(digests: dict, first: Optional[dict], reference: Optional[dict]) -> Optional[str]:
    bad = []
    for name in OUTPUTS:
        if first is not None and digests[name] != first[name]:
            bad.append(f"{name} differs from the first cycle")
        if reference is not None and digests[name] != reference.get(name):
            bad.append(f"{name} differs from the reference digest")
    return "; ".join(bad) or None


@dataclass
class Cycle:
    ok: bool
    attempted: int
    failed: int
    children: dict  # command -> Child
    digests: Optional[dict]
    wall_s: float
    model_bytes: int = 0


def run_cycle(runner: Runner, steps: list, first: Optional[dict], reference: Optional[dict], launcher) -> Cycle:
    for name in OUTPUTS[1:]:
        (WORK / name).unlink(missing_ok=True)
    children = {}
    attempted = failed = 0
    t0 = time.perf_counter()
    for name, args in steps:
        attempted += 1
        child = runner.run(launcher(name, args), f"{name}.log")
        children[name] = child
        if child.code != 0:
            failed += 1
            print(f"[perfbench] {name} exited with {child.code}: {child.log.strip()[-500:]}", file=sys.stderr)
            break
    wall = time.perf_counter() - t0
    n_checks = 3
    # steps never started and checks never made count as failed
    attempted += len(steps) - len(children) + n_checks
    if len(children) < len(steps) or failed:
        failed += len(steps) - len(children) + n_checks
        return Cycle(False, attempted, failed, children, None, wall)
    digests = {name: sha256(WORK / name) for name in OUTPUTS}
    problems = [p for p in (check_report(), check_eval(), check_digests(digests, first, reference)) if p]
    for p in problems:
        print(f"[perfbench] check failed: {p}", file=sys.stderr)
    model_bytes = (WORK / "model.json").stat().st_size
    return Cycle(not problems, attempted, failed + len(problems), children, digests, wall, model_bytes)


def cold_cli(name: str, args: list) -> list:
    return [sys.executable, "-m", "fairboost.cli", *args]


def prepare(workload: str, seed: int) -> tuple:
    if not (SRC / "fairboost" / "cli.py").is_file():
        raise BenchError(f"fairboost sources not found under {SRC}")
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir(parents=True)
    w = WORKLOADS[workload]
    if w.gen_rows is not None:
        x, a = gen.generate(w.gen_rows, w.gen_features, seed)
        gen.write_csv(x, a, str(WORK / "data.csv"))
    runner = Runner(time.perf_counter() + RUN_DEADLINE_S)
    # fills the bytecode cache, and stops the run early if the package is broken
    warm = runner.run([sys.executable, "-c", "import fairboost"], "warmup.log")
    if warm.code != 0:
        raise BenchError(f"import fairboost failed: {warm.log.strip()[-500:]}")
    return w, runner


def load_reference(workload: str, seed: int) -> Optional[dict]:
    reference = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed)) if REFERENCE.exists() else None
    if reference is None:
        print(f"[perfbench] no reference digests for {workload} seed {seed}; checking cycles agree", file=sys.stderr)
    return reference


def repeat_cycles(seconds: float, runner: Runner, one_cycle, min_cycles: int) -> list:
    cycles = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        cycle = one_cycle(cycles[0].digests if cycles else None)
        cycles.append(cycle)
        took = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if cycle.digests is None:  # a command failed; later cycles would too
            break
        # stop at the cycle boundary nearest to the requested length
        if len(cycles) >= min_cycles and elapsed + took / 2 >= seconds:
            break
        if time.perf_counter() + took > runner.deadline:
            break
    return cycles


def median_of(values: list, what: str) -> float:
    if not values:
        raise BenchError(f"no successful sample of {what}")
    return statistics.median(values)


def measure_end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    w, runner = prepare(workload, seed)
    reference = load_reference(workload, seed)
    steps = cycle_commands(w, seed)
    setup = []

    def time_setup(repeats: int) -> None:
        for _ in range(repeats):
            child = runner.run([sys.executable, "-c", "import fairboost"], "setup.log")
            if child.code == 0:
                setup.append(child.wall_s)

    def one_cycle(first):
        # spread set-up samples over the run so one slow spell of the host does not set the median
        time_setup(1)
        return run_cycle(runner, steps, first, reference, cold_cli)

    time_setup(SETUP_REPEATS)
    cycles = repeat_cycles(seconds, runner, one_cycle, MIN_CYCLES)
    # a cycle whose commands all ran is timed even if its outputs fail a check
    good = [c for c in cycles if c.digests is not None]
    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    values = {
        "setup_s": median_of(setup, "setup_s"),
        "pipeline_s": median_of([c.wall_s for c in good], "pipeline_s"),
        "model_bytes": median_of([c.model_bytes for c in good], "model_bytes"),
        "ops_ok_ratio": 1.0 - failed / attempted,
    }
    for cmd in TIMED_COMMANDS:
        values[f"{cmd}_s"] = median_of([c.children[cmd].wall_s for c in good], f"{cmd}_s")
        values[f"{cmd}_rss_mb"] = median_of([c.children[cmd].rss_mb for c in good], f"{cmd}_rss_mb")
    passed = sum(c.ok for c in cycles)
    print(f"[perfbench] {workload} seed {seed}: {len(cycles)} cycles, {passed} passed every check", file=sys.stderr)
    return values, metric_units("end_to_end"), attempted, failed


# -- traced run ---------------------------------------------------------


def import_times(runner: Runner) -> dict:
    """Cumulative import time of fairboost, numpy and scipy.special (-X importtime)."""
    samples = {"fairboost": [], "numpy": [], "scipy.special": []}
    for _ in range(IMPORTTIME_REPEATS):
        child = runner.run([sys.executable, "-X", "importtime", "-c", "import fairboost"], "importtime.log")
        if child.code != 0:
            continue
        for line in child.log.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {
        "import.fairboost_s": median_of(samples["fairboost"], "import time of fairboost"),
        "import.numpy_s": median_of(samples["numpy"], "import time of numpy"),
        "import.scipy_special_s": median_of(samples["scipy.special"], "import time of scipy.special"),
    }


def _union_length(intervals: list) -> float:
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def layer_metrics(docs: dict, children: dict, names: list) -> tuple:
    """Per-layer numbers of one traced cycle, and a per-command self-time table."""
    out = {k: 0.0 for k in names if not k.startswith(("import.", "trace.overhead"))}
    covered = []
    counts: dict = {}
    gauges: dict = {}
    tables = {}
    for cmd, doc in docs.items():
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        for name, tid, parent, t0, t1, cpu in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        table: dict = {}
        for (name, tid, parent, t0, t1, cpu), inner in zip(spans, child_time):
            dur = t1 - t0
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - inner
            if name == "engine.fbde_fit":
                out["engine.fbde_fit.wait_s"] += dur - cpu
                covered.append(inner / dur if dur > 0 else 0.0)
        for name, (calls, total, self_s) in table.items():
            for key, val in ((f"{name}_s", total), (f"{name}.self_s", self_s), (f"{name}.calls", calls)):
                if key in out:
                    out[key] += val
        top = _union_length([(t0, t1) for _, _, parent, t0, t1, _ in spans if parent < 0])
        main_self = children[cmd].wall_s - doc["import_s"] - top
        if cmd in TIMED_COMMANDS:
            out[f"cli.{cmd}.main_s"] = doc["main_s"]
            out[f"cli.{cmd}.self_s"] = main_self
        out["trace.spans"] += len(spans)
        for k, v in doc["counts"].items():
            counts[k] = counts.get(k, 0) + v
        gauges.update(doc["gauges"])
        table["cli (start-up, argparse, own code)"] = [1, main_self, main_self]
        tables[cmd] = table
    out["engine.fbde_fit.covered_ratio"] = min(covered, default=0.0)
    rounds = counts.get("engine.rounds", 0)
    out["engine.rounds"] = rounds
    out["engine.rounds_certified_ratio"] = counts.get("engine.rounds_certified", 0) / rounds if rounds else 0.0
    for key in ("pipeline.rows", "tree.nodes", "tree.leaves", "tree.scores.rows", "boosted.sample.rows",
                "guarantees.rounds_certified"):
        out[key] = counts.get(key, 0)
    out["boosted.cells"] = gauges.get("boosted.cells", 0)
    timings = json.loads((WORK / "model.json.manifest.json").read_text())["timings_seconds"]
    for phase in ("load", "fit", "write"):
        out[f"cli.fit.{phase}_s"] = timings.get(phase, 0.0)
    return out, tables


def print_tables(tables: dict) -> None:
    for cmd, table in tables.items():
        print(f"[perfbench] traced {cmd}: self time by layer", file=sys.stderr)
        for name, (calls, total, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
            print(f"    {name:40s} calls {calls:5d}  total {total:9.4f} s  self {self_s:9.4f} s", file=sys.stderr)


def measure_per_layer(workload: str, seed: int, seconds: float) -> tuple:
    w, runner = prepare(workload, seed)
    reference = load_reference(workload, seed)
    values = import_times(runner)
    steps = cycle_commands(w, seed)
    units = metric_units("per_layer")
    cycles, layers, tables, traced_main, untraced_main = [], [], [], [], []

    def in_process(name: str) -> dict:
        return json.loads((WORK / f"{name}.spans.json").read_text())

    def one_cycle(mode: str, first: Optional[dict]) -> Cycle:
        def argv(name: str, args: list) -> list:
            return [sys.executable, str(TRACED_CLI), f"{name}.spans.json", mode, *args]

        cycle = run_cycle(runner, steps, first, reference, argv)
        cycles.append(cycle)
        if cycle.digests is not None:
            docs = {name: in_process(name) for name, _ in steps}
            (traced_main if mode == "on" else untraced_main).append(sum(d["main_s"] for d in docs.values()))
            if mode == "on":
                cycle_layers, cycle_tables = layer_metrics(docs, cycle.children, list(units))
                layers.append(cycle_layers)
                tables.append(cycle_tables)
        return cycle

    def one_pair(first: Optional[dict]) -> Cycle:
        # the second cycle of a pair writes over the first one's files, which
        # costs it time; alternating the order keeps that out of the overhead
        modes = ("on", "off") if len(traced_main) % 2 == 0 else ("off", "on")
        a = one_cycle(modes[0], first)
        if a.digests is None:
            return a
        return one_cycle(modes[1], first or a.digests)

    repeat_cycles(seconds, runner, one_pair, MIN_PAIRS)
    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    if not layers:
        raise BenchError("no traced cycle ran to completion")
    for key in layers[0]:
        values[key] = statistics.median(cycle_layers[key] for cycle_layers in layers)
    values["trace.overhead_s"] = statistics.median(traced_main) - median_of(untraced_main, "untraced in-process time")
    print_tables(tables[0])
    print(f"[perfbench] {workload} seed {seed}: {len(layers)} traced + {len(untraced_main)} untraced cycles", file=sys.stderr)
    return values, units, attempted, failed


def record(workload: str, seed: int) -> None:
    """Run one cold cycle and store its digests as the reference for (workload, seed)."""
    w, runner = prepare(workload, seed)
    cycle = run_cycle(runner, cycle_commands(w, seed), None, None, cold_cli)
    if not cycle.ok:
        raise BenchError("cycle failed; nothing recorded")
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    table.setdefault(workload, {})[str(seed)] = cycle.digests
    for name in table:
        table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n")
    print(f"[perfbench] recorded {workload} seed {seed}", file=sys.stderr)


def main() -> int:
    p = argparse.ArgumentParser(description="fairboost cold-CLI pipeline benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="store one cycle's digests as the seed's reference")
    args = p.parse_args()
    # turn SIGTERM into SystemExit, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.record:
            record(args.workload, args.seed)
            return 0
        measure = measure_per_layer if args.trace else measure_end_to_end
        values, units, attempted, failed = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"[perfbench] error: {exc}", file=sys.stderr)
        return 2
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"[perfbench] error: BENCHMARK.json lists metrics this run does not measure: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
