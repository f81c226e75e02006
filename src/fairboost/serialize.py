"""File formats: model, trace, metrics, report, manifest.

``json`` and ``csv`` do all the formatting; this module adds only what they
cannot do.  All JSON documents carry a ``format`` tag and integer
``version``.  Floats round-trip exactly (shortest-repr encoding on write;
on read, each distinct number text is parsed once, exactly), and writers
emit keys in a fixed order, so rewriting the same state produces
byte-identical files.  ``dump_json`` writes exactly
what ``json.dump(doc, indent=2)`` would, but also takes 1-D float64 arrays:
``json.dumps`` lays the document out with a placeholder string for each
array, and each array is streamed in its place, each distinct value
formatted once.  The model readers stream that layout back: the anchor
rows line by line, each distinct entry line checked and decoded once, and
only the rest of the document through ``json``; a model file in any other
layout is read whole, by ``load_json``, to the same result or the same
error.  The trace is one ``csv`` row per ``TraceRow``, ``str`` of each
value and an empty cell for None.
The model document stores the run id, the leveraging scheme, the anchor
schema and conditionals and the per-round {theta, classifier, z, z_by_group}
in boosting order; stored normalizers are authoritative and never recomputed
on load.  Its layout, the schema's and every tree's included, is known here
only.  ``load_model`` returns the stack, the scheme and the run id;
``load_model_rounds`` returns the scheme, the run id and the same decoded
rounds, without building the anchor or the stack.  Loading rejects missing
keys, values of the wrong JSON type (naming the field; ``rounds`` is a list,
so ``{}`` is not read as zero rounds), bin edges that are
not finite and non-decreasing (naming the attribute), anchor rows that are
not distributions of JSON numbers (``load_model`` only), a theta <= 0, round
values ``BoostRound`` refuses, trees no fit could have produced and trees
whose score bound is not the scheme's C, prefixing every error of round t
with ``round t: ``.  An
integer field takes only a JSON integer, a number field (the entries of
``z_by_group`` and of the anchor rows included) any JSON number but no string
or boolean, and a name or a category only a JSON string.  So a stored value
is refused on load or leaves the outputs of ``eval`` and ``guarantees``
unchanged, with two exceptions: no reader recomputes the normalizers, so a
``z`` or ``z_by_group`` entry moved by an ulp can pass, and ``eval`` reads a
model without its last round as a shorter fit of the same run.  A trace is
read in the one shape ``fbde_fit`` writes (see ``_trace_row``).
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import re
from typing import Sequence

import numpy as np

from .boosted import BoostedDensity, BoostRound, InitialDensity
from .engine import LeveragingScheme, TraceRow
from .schema import Attribute, AttributeSchema
from .tree import DecisionTreeClassifier, Node, boosting_regime

MODEL_FORMAT = "fairboost.model"
MODEL_VERSION = 1
MANIFEST_FORMAT = "fairboost.manifest"
MANIFEST_VERSION = 1
METRICS_FORMAT = "fairboost.metrics"
REPORT_FORMAT = "fairboost.report"

TRACE_HEADER = [f.name for f in dataclasses.fields(TraceRow)]


#: values per write when streaming a float array
_CHUNK = 1 << 16


#: what ``json.dumps`` writes in each array's place before the array is streamed
_ARRAY = "\0ndarray\0"
_ARRAY_TEXT = json.dumps(_ARRAY)


def dump_json(doc: dict, path: str) -> None:
    """Write ``json.dump(doc, fh, indent=2)`` plus a newline, byte for byte.

    ``doc`` may also hold 1-D float64 arrays, written as JSON lists: each
    distinct bit pattern is formatted once and the array is streamed in
    chunks, so a million-cell table of a few distinct values costs a few
    formats and no list of Python floats.
    """
    arrays = []

    def stash(value):
        if not isinstance(value, np.ndarray):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if value.dtype != np.float64 or value.ndim != 1:
            raise TypeError(f"only 1-D float64 arrays are written, not {value.ndim}-D {value.dtype}")
        arrays.append(value)
        return _ARRAY

    pieces = json.dumps(doc, indent=2, default=stash).split(_ARRAY_TEXT)
    if len(pieces) != len(arrays) + 1:
        raise ValueError(f"the document holds the string {_ARRAY!r}, which stands for an array")
    with open(path, "w") as fh:
        fh.write(pieces[0])
        for before, arr, after in zip(pieces, arrays, pieces[1:]):
            line = before[before.rfind("\n") + 1 :]
            _write_floats(fh, arr, (len(line) - len(line.lstrip(" "))) // 2)
            fh.write(after)
        fh.write("\n")


def _write_floats(fh, arr: np.ndarray, depth: int) -> None:
    if len(arr) == 0:
        fh.write("[]")
        return
    # bit patterns, not values: 0.0 and -0.0 format differently
    bits = np.unique(arr.view(np.uint64))
    which = np.searchsorted(bits, arr.view(np.uint64))
    texts = np.array([json.dumps(float(v)) for v in bits.view(np.float64)], dtype=object)
    sep = ",\n" + "  " * (depth + 1)
    fh.write("[" + sep[1:])
    for start in range(0, len(arr), _CHUNK):
        fh.write(("" if start == 0 else sep) + sep.join(texts[which[start : start + _CHUNK]]))
    fh.write("\n" + "  " * depth + "]")


class _FloatMemo(dict):
    """``float(text)`` for each number text, decoded the first time it is seen."""

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


def load_json(path: str) -> dict:
    """``json.load`` of ``path``, each distinct float text decoded once.

    It reads metrics and reports, and any model file not laid out as
    ``dump_json`` writes it (the model readers stream the rest).  A model's
    anchor rows repeat a handful of values across millions of cells; every
    repeat shares one float object.  The text is read as ``json.load`` reads
    it (``open(path)``'s decoding and newlines), in pieces, so the file's
    bytes and its text are never held together.
    """
    text = ""
    with open(path) as fh:
        # CPython grows a str that only this name refers to in place, so
        # the text exists once, not once per concatenation
        for piece in iter(lambda: fh.read(1 << 20), ""):
            text += piece
    return json.loads(text, parse_float=_FloatMemo().__getitem__)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# -- models -------------------------------------------------------------

def _int(value) -> int:
    """A JSON integer field: a float or a boolean is the wrong JSON type."""
    if type(value) is not int:
        raise TypeError
    return value


def _number(value) -> float:
    """A JSON number field: a string or a boolean is the wrong JSON type."""
    if type(value) not in (int, float):
        raise TypeError
    return float(value)


def _str(value) -> str:
    """A JSON string field: any other JSON value is the wrong JSON type."""
    if type(value) is not str:
        raise TypeError
    return value


def _list(value, item) -> list:
    """A JSON list field, each entry read by ``item``."""
    if type(value) is not list:
        raise TypeError
    return [item(v) for v in value]


def _scheme_to_dict(scheme: LeveragingScheme) -> dict:
    # model version 1 has four scheme keys; "value" belonged to no supported scheme and is always null
    return {"kind": scheme.kind, "tau": scheme.tau, "c_bound": scheme.c_bound, "value": None}


def _scheme_from_dict(d: dict) -> LeveragingScheme:
    # tau as stored: the scheme names an unknown kind first, then its 0 < tau < 1 refuses all but a number
    scheme = LeveragingScheme(kind=d["kind"], tau=d["tau"], c_bound=_number(d["c_bound"]))
    if d["value"] is not None:
        raise ValueError(f"scheme value must be null, got {d['value']!r}")
    return scheme


def _tree_to_dict(tree: DecisionTreeClassifier, x_schema: AttributeSchema) -> dict:
    def node(n: Node) -> dict:
        if n.is_leaf:
            return {"leaf": float(n.leaf)}
        return {
            "attr": x_schema.attributes[n.attr].name,
            "split": {"op": n.op, "value": int(n.value)},
            "left": node(n.left),
            "right": node(n.right),
        }

    return {"type": "tree", "c_bound": float(tree.c_bound), "root": node(tree.root)}


def _tree_from_dict(d: dict, x_schema: AttributeSchema, c_bound: float) -> DecisionTreeClassifier:
    """A stored tree, rejecting any node a fit cannot write: its ``c_bound``
    must be the scheme's, which is finite and > 0, and bounds every leaf."""
    kind = d.get("type")
    if kind != "tree":
        raise ValueError(f"unknown classifier type {kind!r}")
    tree_bound = _number(d["c_bound"])
    if tree_bound != c_bound:
        raise ValueError(f"tree c_bound {tree_bound!r} differs from the scheme's c_bound {c_bound!r}")

    def node(obj) -> Node:
        if "leaf" in obj:
            leaf = _number(obj["leaf"])
            if not (math.isfinite(leaf) and abs(leaf) <= c_bound + 1e-12):
                raise ValueError(f"tree leaf {leaf!r} is not a finite value in [-c_bound, c_bound]")
            return Node(leaf=leaf)
        attr = x_schema.index_of(obj["attr"])
        op, value = obj["split"]["op"], _int(obj["split"]["value"])
        if op not in ("le", "eq"):
            raise ValueError(f"tree split op must be 'le' or 'eq', got {op!r}")
        card = x_schema.attributes[attr].cardinality
        if not (0 <= value < card):
            raise ValueError(f"tree split value {value} on {obj['attr']!r} is outside [0, {card})")
        return Node(attr=attr, op=op, value=value, left=node(obj["left"]), right=node(obj["right"]))

    return DecisionTreeClassifier(root=node(d["root"]), c_bound=c_bound)


def save_model(bd: BoostedDensity, path: str, scheme: LeveragingScheme, run_id: str) -> None:
    doc = {"format": MODEL_FORMAT, "version": MODEL_VERSION, "manifest": run_id}
    doc["scheme"] = _scheme_to_dict(scheme)
    schema = bd.schema
    doc["q0"] = {
        "schema": {
            "attributes": [
                {"name": a.name, "cardinality": a.cardinality, "categories": a.categories, "bin_edges": a.bin_edges}
                for a in schema.attributes
            ],
            "sensitive_index": schema.sensitive_index,
            "target_index": schema.target_index,
        },
        "conditionals": list(bd.q0.cond),
    }
    doc["rounds"] = [
        {
            "theta": float(r.theta),
            "classifier": _tree_to_dict(r.classifier, bd.q0.x_schema),
            "z": float(r.z),
            "z_by_group": [float(z) for z in r.z_by_group],
        }
        for r in bd.rounds
    ]
    dump_json(doc, path)


#: the line before a model's anchor rows, as ``dump_json`` writes it
_ROWS_LINE = '    "conditionals": [\n'
#: an anchor entry line as ``dump_json`` writes all but a row's last: 8 spaces, a JSON number
#: with a fraction or an exponent (so ``json`` reads it as a float), a comma
_ENTRY = re.compile(r" {8}-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+),\n")


class _EntryMemo(dict):
    """``float`` of each anchor entry line, checked against ``_ENTRY`` the first time it is seen."""

    def __missing__(self, line: str) -> float:
        if not _ENTRY.fullmatch(line):
            raise ValueError(f"not an anchor entry line: {line!r}")
        value = self[line] = float(line[8:-2])
        return value


def _stream_model(path: str, anchor: bool) -> dict:
    """``load_json(path)``, with ``q0.conditionals`` read line by line as one
    (|A|, n_x) float64 array, or as None when ``anchor`` is false.  Text off
    ``dump_json``'s layout raises: a ValueError, or whatever looking up the
    schema in the head raises.

    The text before ``_ROWS_LINE`` gives the schema and so the anchor's shape.
    Each row is an opening line, its entry lines and a closing line.  The rest
    of the document is parsed with the one constant ``NaN`` in the rows'
    place, which must land at ``q0.conditionals``.
    """
    with open(path) as fh:
        head = ""  # one string grown in place, as in load_json: a file without the line is held once
        for line in fh:
            if line == _ROWS_LINE:
                break
            head += line
        else:
            raise ValueError("no anchor rows line")
        schema = json.loads(head + '"conditionals": null}}')["q0"]["schema"]
        cards = [a["cardinality"] for a in schema["attributes"]]
        n_a, n_x = cards.pop(schema["sensitive_index"]), math.prod(cards)
        cond, memo = np.empty((n_a, n_x)) if anchor else None, _EntryMemo()
        for a in range(n_a):
            if fh.readline() != "      [\n":
                raise ValueError("an anchor row does not open on its own line")
            entries = np.fromiter(map(memo.__getitem__, fh), np.float64, n_x - 1)
            last = memo[fh.readline().replace("\n", ",\n")]  # the one entry line without a comma
            if fh.readline() != ("      ]\n" if a == n_a - 1 else "      ],\n"):
                raise ValueError("an anchor row does not close on its own line")
            if anchor:
                cond[a, :-1], cond[a, -1] = entries, last
            del entries  # before the next row's: one row is held beside the anchor
        close = fh.readline()
        if close[:5] != "    ]":
            raise ValueError("the anchor rows do not close on their own line")
        text = head + '    "conditionals": NaN' + close[5:] + fh.read()
    constants = []  # what json makes of each NaN, Infinity or -Infinity: a new object

    def constant(_: str) -> object:
        constants.append(object())
        return constants[-1]

    doc = json.loads(text, parse_float=_FloatMemo().__getitem__, parse_constant=constant)
    if constants != [doc["q0"]["conditionals"]]:
        raise ValueError("the anchor rows are not the document's q0.conditionals")
    doc["q0"]["conditionals"] = cond
    return doc


def _read_model(path: str, anchor: bool) -> dict:
    """The model document: streamed when it has ``dump_json``'s layout, else ``load_json``'s."""
    try:
        return _stream_model(path, anchor)
    except Exception:  # the whole-text parse reads the file as before, or fails as before
        pass
    # outside the handler, so the failed attempt's frames and buffer are gone
    return load_json(path)


class _ModelReader:
    """One parsed model document, decoded field by field.

    Inside ``with reader:`` a missing key ends in ``model document is missing
    key '<key>'`` and a value of the wrong JSON type in ``model field
    '<field>' has the wrong JSON type``, where ``field`` names the part being
    decoded; an integer too large to convert ends in ``model field '<field>'
    holds a number out of range``.  Every reader starts with ``header()``.
    """

    def __init__(self, path: str, anchor: bool):
        self.doc = _read_model(path, anchor)
        self.field = "document"

    def __enter__(self) -> "_ModelReader":
        return self

    def __exit__(self, kind, exc, tb) -> bool:
        if kind is not None and issubclass(kind, KeyError):
            raise ValueError(f"model document is missing key {exc.args[0]!r}") from None
        if kind is not None and issubclass(kind, (TypeError, AttributeError)):
            raise ValueError(f"model field {self.field!r} has the wrong JSON type") from None
        if kind is not None and issubclass(kind, OverflowError):
            raise ValueError(f"model field {self.field!r} holds a number out of range") from None
        return False

    def header(self) -> tuple[LeveragingScheme, str]:
        """The scheme and the run id, once the format and version check out."""
        doc = self.doc
        if doc.get("format") != MODEL_FORMAT:
            raise ValueError("not a model document")
        self.field = "version"
        if _int(doc["version"]) != MODEL_VERSION:
            raise ValueError(f"unsupported model version {doc['version']!r}")
        self.field = "manifest"
        run_id = _str(doc["manifest"])
        self.field = "scheme"
        return _scheme_from_dict(doc["scheme"]), run_id

    def schema(self) -> AttributeSchema:
        self.field = "q0.schema"
        d = self.doc["q0"]["schema"]
        attributes = tuple(
            Attribute(
                name=_str(a["name"]),
                cardinality=_int(a["cardinality"]),
                categories=tuple(_list(a["categories"], _str)) if a["categories"] is not None else None,
                bin_edges=tuple(_list(a["bin_edges"], _number)) if a["bin_edges"] is not None else None,
            )
            for a in d["attributes"]
        )
        target = d["target_index"]
        return AttributeSchema(attributes, _int(d["sensitive_index"]), None if target is None else _int(target))

    def rounds(self, schema: AttributeSchema, c_bound: float) -> list[BoostRound]:
        """Every round of the stored list, in boosting order: theta is > 0 (no
        fit writes another; ``BoostRound`` itself takes any finite theta), z_by_group
        holds one entry per sensitive value, and the tree splits the schema's
        features with the scheme's ``c_bound``.  Each error of round t starts
        ``round t: ``."""
        x_schema, card = schema.x_subschema(), schema.sensitive.cardinality
        self.field = "rounds"
        if type(self.doc["rounds"]) is not list:
            raise TypeError
        rounds = []
        for t, r in enumerate(self.doc["rounds"], start=1):
            try:
                self.field = f"rounds[{t - 1}].theta"
                theta = _number(r["theta"])
                if theta <= 0:
                    raise ValueError("theta must be > 0")
                self.field = f"rounds[{t - 1}].z"
                z = _number(r["z"])
                self.field = f"rounds[{t - 1}].z_by_group"
                z_by_group = np.array(_list(r["z_by_group"], _number), dtype=np.float64)
                if z_by_group.shape != (card,):
                    raise ValueError(f"z_by_group needs {card} entries, one per sensitive value")
                self.field = f"rounds[{t - 1}].classifier"
                classifier = _tree_from_dict(r["classifier"], x_schema, c_bound)
                rounds.append(BoostRound(theta=theta, classifier=classifier, z=z, z_by_group=z_by_group))
            except ValueError as exc:
                raise ValueError(f"round {t}: {exc}") from None
        return rounds


def load_model(path: str) -> tuple[BoostedDensity, LeveragingScheme, str]:
    """The fitted stack, its scheme and its run id.

    A file as ``save_model`` writes it has its anchor rows read line by line
    into the array the anchor adopts, and no text of them is held; any other
    file is read whole by ``load_json``, to the same stack or the same error."""
    with _ModelReader(path, anchor=True) as reader:
        scheme, run_id = reader.header()
        schema = reader.schema()
        reader.field = "q0.conditionals"
        cond = reader.doc["q0"]["conditionals"]
        if type(cond) is not np.ndarray:  # read whole: JSON lists
            if len({len(row) for row in cond}) > 1:
                raise ValueError("q0 conditionals: rows differ in length")
            # JSON numbers only: a boolean, a string or a null is the wrong JSON type
            if not all({*map(type, row)} <= {int, float} for row in cond):
                raise TypeError
            cond = np.asarray(cond, dtype=np.float64)
        cond.setflags(write=False)  # a fresh array: the anchor adopts it
        q0 = InitialDensity(schema, cond)
        rounds = reader.rounds(schema, scheme.c_bound)
    return BoostedDensity(q0, rounds), scheme, run_id


def load_model_rounds(path: str) -> tuple[LeveragingScheme, str, list[BoostRound]]:
    """The scheme, the run id and every round, decoded and checked as
    ``load_model`` decodes them, without building the anchor or the stack.

    The file is read as ``load_model`` reads it, but the anchor rows are only
    checked as JSON, one row at a time, and none is kept."""
    with _ModelReader(path, anchor=False) as reader:
        scheme, run_id = reader.header()
        return scheme, run_id, reader.rounds(reader.schema(), scheme.c_bound)


# -- traces -------------------------------------------------------------


def save_trace(rows: Sequence[TraceRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for r in rows:
            writer.writerow(["" if v is None else str(v) for v in dataclasses.astuple(r)])


#: trace columns that are empty on the t=0 baseline row and filled on every round
_ROUND_ONLY = frozenset({"gamma_p", "gamma_q", "regime"})


def _parse_cell(convert, text: str, what: str):
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"{what}, got {text!r}") from None


def _trace_row(n: int, row: list[str]) -> TraceRow:
    """Row n as ``fbde_fit`` writes it: t = n, kl_train always, kl_test
    never, no margins or regime at t = 0 and at every later t both margins
    and their ``boosting_regime``.  Anything else is an error naming t and
    the column."""
    if len(row) != len(TRACE_HEADER):
        raise ValueError(f"trace row {n}: expected {len(TRACE_HEADER)} fields, got {len(row)}")
    t = _parse_cell(int, row[0], f"trace row {n}: t must be an integer")
    if t != n:
        raise ValueError(f"trace row {n}: expected round t={n}, got t={t}")
    vals = {"t": t}
    for col, text in zip(TRACE_HEADER[1:], row[1:]):
        baseline_only = t == 0 and col in _ROUND_ONLY
        if col == "kl_test" and text != "":
            raise ValueError(f"trace row t={t}: kl_test must be empty, got {text!r}")
        if text == "" and (baseline_only or col == "kl_test"):
            vals[col] = None
        elif baseline_only:
            raise ValueError(f"trace row t=0: {col} must be empty on the baseline row, got {text!r}")
        elif text == "":
            raise ValueError(f"trace row t={t}: {col} is empty")
        elif col == "regime":
            vals[col] = text
        else:
            vals[col] = _parse_cell(float, text, f"trace row t={t}: {col} must be a number")
            if not math.isfinite(vals[col]):
                raise ValueError(f"trace row t={t}: {col} must be finite, got {text!r}")
    if t >= 1:
        regime = boosting_regime(vals["gamma_p"], vals["gamma_q"])
        if vals["regime"] != regime:
            raise ValueError(f"trace row t={t}: regime {vals['regime']!r} is not {regime!r}, its margins' regime")
    return TraceRow(**vals)


def load_trace(path: str) -> list[TraceRow]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != TRACE_HEADER:
            raise ValueError("not a trace file")
        return [_trace_row(n, row) for n, row in enumerate(reader)]


# -- manifests ----------------------------------------------------------


def manifest_id(command: str, resolved_config: dict, input_digests: dict, version: str) -> str:
    payload = json.dumps(
        {"command": command, "config": resolved_config, "inputs": input_digests, "library_version": version},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def build_manifest(
    run_id: str,
    command: str,
    resolved_config: dict,
    input_digests: dict,
    version: str,
    timings: dict,
    extra: dict,
) -> dict:
    """The manifest of a run whose id, ``manifest_id`` of the same command,
    config, inputs and version, the caller computed once and also stamped
    into the model."""
    doc = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "id": run_id,
        "command": command,
        "resolved_config": resolved_config,
        "inputs": input_digests,
        "library_version": version,
        "timings_seconds": timings,
    }
    doc.update(extra)
    return doc
