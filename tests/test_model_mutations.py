"""Every stored value of a model is refused on load or leaves the outputs unchanged.

One walk visits a small fitted model's fields (every object key, the first
and last entry of every list, tree nodes down to depth 2) and applies each
mutation class that fits (``_mutations``).  Each mutant is written in the
layout ``save_model`` writes, so it goes through the reader the commands
use.  ``eval`` and ``guarantees`` run on each mutated model through
``cli.main`` and must either exit 1 with one ``error:`` line and no output
(``eval``'s failed self-check and ``guarantees``' false bounds write theirs
first), or exit 0 with nothing on stderr and the unmutated model's output,
byte for byte.  ``PINNED`` holds
the exact message of each case a test of its own once pinned.
``KNOWN_GAPS`` lists the mutations still allowed to break the rule, each
with its defect; each must still break it, so its entry goes when the
defect is mended.
"""

import contextlib
import functools
import io
import json
import math
import operator
import re
import warnings
from pathlib import Path

import pytest

import fairboost.cli as cli

#: a field's stand-in while the document is dumped, replaced by a raw JSON text
_RAW = "\0raw\0"
#: ``json`` reads 1e400 as inf; the integer overflows a float
_TEXTS = {"NaN": "NaN", "Infinity": "Infinity", "1e400": "1e400", "400-digit integer": "1" + "0" * 399}
#: replacements by each other JSON type, and of a number
_TYPES = {
    "string": json.dumps, "true": lambda v: True, "null": lambda v: None, "list": lambda v: [], "object": lambda v: {},
}
_NUMERIC = {"nextafter": lambda v: math.nextafter(v, math.inf), "zero": lambda v: type(v)(0), "negated": lambda v: -v}
#: the field kinds every mutation class must reach where it applies, each with a value of its JSON type
_KINDS = {"number": 0.5, "integer": 1, "string": "s", "list": [], "tree node": {}}
#: the walk's size at this model: fewer mutations means it lost fields or classes
_MIN_MUTATIONS = 1100
_WRITES_THEN_FAILS = {
    "eval": re.compile(r"error: self-check failed: "),
    "guarantees": re.compile(r"error: round \d+: (rr .* is below its floor|KL progress .* exceeds its upper bound)"),
}

_TYPE, _RANGE = "model field {!r} has the wrong JSON type", "model field {!r} holds a number out of range"
_MISSING = "model document is missing key {!r}"
_EDGES = "attribute 'x': bin edges must be finite and non-decreasing"
_LN2 = math.log(2.0)
#: a deleted key ends in ``_MISSING``, naming the key read in its place where there is one
_READ_FIRST = {"leaf": "attr"}  # a node without its leaf is read as a split
#: (field, class) -> the line both commands end in where a deleted key's rule does not give it;
#: guarantees reads no anchor, so q0.conditionals is eval's alone
PINNED = {
    ("format", "delete"): "not a model document",
    ("format", "true"): "not a model document",
    ("version", "zero"): "unsupported model version 0",
    ("version", "nextafter"): _TYPE.format("version"),
    ("manifest", "400-digit integer"): _TYPE.format("manifest"),
    ("scheme.kind", "true"): "unknown scheme True",
    ("scheme.value", "true"): "scheme value must be null, got True",
    ("q0.schema", "400-digit integer"): _TYPE.format("q0.schema"),
    ("q0.schema.attributes[0].name", "400-digit integer"): _TYPE.format("q0.schema"),
    ("q0.schema.attributes[0].cardinality", "nextafter"): _TYPE.format("q0.schema"),
    ("q0.schema.attributes[1].categories[0]", "400-digit integer"): _TYPE.format("q0.schema"),
    ("q0.schema.attributes[0].bin_edges[0]", "NaN"): _EDGES,
    ("q0.schema.attributes[0].bin_edges[8]", "Infinity"): _EDGES,
    ("q0.schema.attributes[0].bin_edges[8]", "negated"): _EDGES,
    ("q0.conditionals", "400-digit integer"): _TYPE.format("q0.conditionals"),
    ("q0.conditionals[0][0]", "string"): _TYPE.format("q0.conditionals"),
    ("q0.conditionals[0][0]", "null"): _TYPE.format("q0.conditionals"),
    ("q0.conditionals[0][0]", "true"): _TYPE.format("q0.conditionals"),
    ("q0.conditionals[0][0]", "400-digit integer"): _RANGE.format("q0.conditionals"),
    ("rounds", "400-digit integer"): _TYPE.format("rounds"),
    ("rounds", "object"): _TYPE.format("rounds"),
    ("rounds[0].theta", "string"): _TYPE.format("rounds[0].theta"),
    ("rounds[0].theta", "list"): _TYPE.format("rounds[0].theta"),
    ("rounds[0].theta", "400-digit integer"): _RANGE.format("rounds[0].theta"),
    ("rounds[0].theta", "zero"): "round 1: theta must be > 0",
    ("rounds[0].theta", "negated"): "round 1: theta must be > 0",
    ("rounds[0].z_by_group", "object"): _TYPE.format("rounds[0].z_by_group"),
    ("rounds[0].z_by_group[0]", "string"): _TYPE.format("rounds[0].z_by_group"),
    ("rounds[0].z_by_group[0]", "negated"): "round 1: normalizers must be > 0",
    ("rounds[0].z_by_group[0]", "delete"): "round 1: z_by_group needs 2 entries, one per sensitive value",
    ("rounds[0].classifier.type", "delete"): "round 1: unknown classifier type None",
    ("rounds[2].classifier.type", "delete"): "round 3: unknown classifier type None",
    ("rounds[0].classifier.type", "true"): "round 1: unknown classifier type True",
    ("rounds[0].classifier.c_bound", "nextafter"): (
        f"round 1: tree c_bound {math.nextafter(_LN2, math.inf)!r} differs from the scheme's c_bound {_LN2!r}"
    ),
    ("rounds[0].classifier.root.split.value", "nextafter"): _TYPE.format("rounds[0].classifier"),
    ("rounds[0].classifier.root.split.value", "true"): _TYPE.format("rounds[0].classifier"),
    ("rounds[0].classifier.root.right.left.leaf", "Infinity"): (
        "round 1: tree leaf inf is not a finite value in [-c_bound, c_bound]"
    ),
}

#: (field, class) -> (the command whose run breaks the rule, the defect); ``[*]`` is any index
KNOWN_GAPS = {
    ("rounds[2].z", "nextafter"): ("eval", "standing defect 8: no reader checks a stored z (ROADMAP items 1, 11)"),
    ("rounds[*].z_by_group[*]", "nextafter"): (
        "eval", "standing defect 6: no reader recomputes the stored normalizers (ROADMAP items 1, 11)",
    ),
    ("rounds[2]", "delete"): (
        "eval", "the run id does not bind the model's content, so a shorter model of the same run passes",
    ),
}


def _node_depth(path):
    """The depth of the tree node at ``path`` (the root's is 0), or None for any other field."""
    if "root" not in path:
        return None
    below = path[path.index("root") + 1 :]
    return len(below) if set(below) <= {"left", "right"} else None


def _fields(value, path=()):
    """(path, value) of every field the walk visits below ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = [(i, value[i]) for i in sorted({0, len(value) - 1}) if value]
    else:
        return
    for key, child in items:
        if (_node_depth(path + (key,)) or 0) <= 2:
            yield path + (key,), child
            yield from _fields(child, path + (key,))


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def _mutations(value):
    """(class, replacement): ``()`` deletes the field, ``(new,)`` stores
    ``new`` and ``(_RAW, text)`` writes the JSON text ``text``."""
    yield "delete", ()
    for name, other in _TYPES.items():
        if _json_type(other(value)) != _json_type(value):
            yield name, (other(value),)
    for name, text in _TEXTS.items():
        yield name, (_RAW, text)
    for name, change in _NUMERIC.items() if _json_type(value) == "number" else ():
        if json.dumps(change(value)) != json.dumps(value):
            yield name, (change(value),)


def _mutated_text(text: str, path, replacement) -> str:
    doc = json.loads(text)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if replacement:
        parent[path[-1]] = replacement[0]
    else:
        del parent[path[-1]]
    text = json.dumps(doc, indent=2) + "\n"  # save_model's layout: every mutant goes through the commands' reader
    return text.replace(json.dumps(_RAW), replacement[1]) if replacement[:1] == (_RAW,) else text


def _run(argv, out: Path):
    """(exit code, stdout, stderr, output bytes or None) of one run in process;
    a warning or an exception escaping ``main`` takes the exit code's place."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main([*argv, "--out", str(out)])
        except Exception as exc:  # reported as a broken rule
            code = f"{type(exc).__name__}: {exc}"
    return code, stdout.getvalue(), stderr.getvalue(), out.read_bytes() if out.exists() else None


def _broken(command, result, want):
    """None when a run keeps the rule, else how it broke it."""
    code, stdout, stderr, written = result
    if code == 0 and stdout == stderr == "" and written == want:
        return None
    refused = code == 1 and stdout == "" and re.fullmatch(r"error: [^\n]*\n", stderr)
    if refused and (written is not None) == bool(_WRITES_THEN_FAILS[command].match(stderr)):
        return None
    output = "none" if written is None else "unchanged" if written == want else "changed"
    return f"{command}: exit {code!r}, stderr {stderr!r}, output {output}"


@pytest.fixture(scope="module")
def mutation_runs(tmp_path_factory):
    """{(field, class): (field kind, {command: run})} over the walk, and each
    command's output on the unmutated model."""
    d = tmp_path_factory.mktemp("mutations")
    data, model, trace = str(d / "data.csv"), str(d / "model.json"), str(d / "trace.csv")
    assert cli.main(["synth", "--n", "300", "--seed", "3", "--out", data]) == 0
    fit = ["fit", "--data", data, "--sensitive", "a", "--rounds", "3", "--bins", "8", "--tau", "0.8", "--seed", "1"]
    assert cli.main([*fit, "--out", model, "--trace", trace]) == 0
    commands = {"eval": ["eval", "--data", data], "guarantees": ["guarantees", "--trace", trace]}
    out, mutated, text = d / "out.json", d / "mutated.json", Path(model).read_text()
    assert json.dumps(json.loads(text), indent=2) + "\n" == text  # the layout _mutated_text writes
    want = {command: _run([*argv, "--model", model], out)[3] for command, argv in commands.items()}
    runs, parser = {}, cli.build_parser()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_parser", lambda: parser)  # building the parser is most of a run's time
        for path, value in _fields(json.loads(text)):
            label = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
            kind = {float: "number", int: "integer", str: "string", list: "list"}.get(type(value), "other")
            kind = "tree node" if _node_depth(path) is not None else kind
            for name, replacement in _mutations(value):
                mutated.write_text(_mutated_text(text, path, replacement))
                runs[label, name] = kind, {c: _run([*a, "--model", str(mutated)], out) for c, a in commands.items()}
    return runs, want


def test_every_mutation_is_refused_or_changes_no_output(mutation_runs):
    runs, want = mutation_runs
    broken, gaps_seen = [], set()
    for (label, name), (_, results) in runs.items():
        gap = KNOWN_GAPS.get((label, name)) or KNOWN_GAPS.get((re.sub(r"\[\d+\]", "[*]", label), name))
        for command, result in results.items():
            why = _broken(command, result, want[command])
            if gap is not None and gap[0] == command:
                assert why is not None, f"{label} {name} keeps the rule now; drop its known gap: {gap[1]}"
                gaps_seen.add(gap)
            elif why is not None:
                broken.append(f"{label} {name}: {why}")
    assert broken == []
    assert gaps_seen == set(KNOWN_GAPS.values())


def test_pinned_messages(mutation_runs):
    runs, _ = mutation_runs
    keys = {label: label.rsplit(".", 1)[-1] for label, name in runs if name == "delete" and not label.endswith("]")}
    missing = {(label, "delete"): _MISSING.format(_READ_FIRST.get(k, k)) for label, k in keys.items()}
    for (label, name), message in {**missing, **PINNED}.items():
        for command in ["eval"] if label.startswith("q0.conditionals") else ["eval", "guarantees"]:
            code, _, stderr, _ = runs[label, name][1][command]
            assert (code, stderr) == (1, f"error: {message}\n"), (label, name, command)


def test_the_walk_reaches_every_class_and_kind(mutation_runs):
    runs, _ = mutation_runs
    assert len(runs) >= _MIN_MUTATIONS
    reached = {}
    for (_, name), (kind, _) in runs.items():
        reached.setdefault(name, set()).add(kind)
    assert set(reached) == {"delete", *_TYPES, *_TEXTS, *_NUMERIC}
    for name, kinds in reached.items():
        need = {kind for kind, value in _KINDS.items() if name in dict(_mutations(value))}
        assert need <= kinds, (name, need - kinds)
