"""File formats: model, trace, metrics, report, manifest.

``json`` and ``csv`` do all the formatting; this module adds only what they
cannot do.  All JSON documents carry a ``format`` tag and integer
``version``.  Floats round-trip exactly (shortest-repr encoding), and
writers emit keys in a fixed order, so rewriting the same state produces
byte-identical files.  ``dump_json`` is ``json.dump(doc, indent=2)`` plus a
newline.

The model document stores the run id, the leveraging scheme, the anchor
schema and conditionals and the per-round {theta, classifier, z, z_by_group}
in boosting order; stored normalizers are authoritative and never recomputed
on load.  Its layout is known here only.  ``save_model`` writes the text
``dump_json`` would, streaming the anchor rows in the lines that the layout
constants beside it (``_ROWS_LINE`` and the rest) spell out, each distinct
entry formatted once.  A model is read in that one layout: the anchor rows
line by line, each distinct entry line decoded once, and the rest through
``json``.  A model in another layout is refused; a file that is not JSON
ends in ``json``'s own error.
``load_model`` returns the stack, the scheme and the run id;
``load_model_rounds`` the scheme, the run id and the same decoded rounds,
without building the anchor or the stack.  Loading rejects missing keys,
values of the wrong JSON type (naming the field; ``rounds`` is a list, so
``{}`` is not read as zero rounds), bin edges that are not finite and
non-decreasing (naming the attribute), anchor rows that are not
distributions (``load_model`` only), a theta <= 0, round values
``BoostRound`` refuses, trees no fit could have produced and trees whose
score bound is not the scheme's C, prefixing every error of round t with
``round t: ``.  An integer field takes only a JSON integer, a number field
(the entries of ``z_by_group`` and of the anchor rows included) any JSON
number but no string or boolean, and a name or a category only a JSON
string.  So a stored value is refused on load or leaves the outputs of
``eval`` and ``guarantees`` unchanged, with two exceptions: no reader
recomputes the normalizers, so a ``z`` or ``z_by_group`` entry moved by an
ulp can pass, and ``eval`` reads a model without its last round as a
shorter fit of the same run.

The trace is one ``csv`` row per ``TraceRow``, ``str`` of each value and an
empty cell for None.  The reader only converts cells (see ``_trace_row``):
the rule a row keeps is ``TraceRow``'s, the one ``fbde_fit``'s rows keep.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import math
from typing import Sequence

import numpy as np

from .boosted import BoostedDensity, BoostRound, InitialDensity
from .engine import LeveragingScheme, TraceRow
from .schema import Attribute, AttributeSchema
from .tree import DecisionTreeClassifier, Node

MODEL_FORMAT = "fairboost.model"
MODEL_VERSION = 1
MANIFEST_FORMAT = "fairboost.manifest"
MANIFEST_VERSION = 1
METRICS_FORMAT = "fairboost.metrics"
REPORT_FORMAT = "fairboost.report"

TRACE_HEADER = [f.name for f in dataclasses.fields(TraceRow)]


def dump_json(doc: dict, path: str) -> None:
    """Write ``json.dump(doc, fh, indent=2)`` plus a newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


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


# The anchor rows' lines as json.dump(indent=2) lays q0.conditionals out, written by save_model
# and read by _ModelReader; the rest of the model is dumped and parsed with the placeholder there
_ROWS_LINE = '    "conditionals": [\n'
_ROW_OPEN = "      [\n"
_ENTRY = " " * 8
_ROW_CLOSE, _LAST_ROW_CLOSE = "      ],\n", "      ]\n"
_ROWS_CLOSE = "    ]"
_PLACEHOLDER = '    "conditionals": NaN'
_LAYOUT = "model field 'q0.conditionals' is not laid out as save_model writes it"
_CHUNK = 1 << 16  # entry lines per write


def save_model(bd: BoostedDensity, path: str, scheme: LeveragingScheme, run_id: str) -> None:
    """The text ``dump_json`` writes of the model document, its anchor rows streamed row by row."""
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
        "conditionals": math.nan,
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
    head, tail = json.dumps(doc, indent=2).split(_PLACEHOLDER)  # ValueError unless exactly one
    cond = bd.q0.cond
    with open(path, "w") as fh:
        fh.write(head + _ROWS_LINE)
        for a, row in enumerate(cond):
            fh.write(_ROW_OPEN)
            _write_row(fh, row)
            fh.write(_LAST_ROW_CLOSE if a == len(cond) - 1 else _ROW_CLOSE)
        fh.write(_ROWS_CLOSE + tail + "\n")


def _write_row(fh, row: np.ndarray) -> None:
    """The entry lines of one anchor row: each distinct bit pattern (0.0 and -0.0
    format differently) formatted once, and no list of Python floats."""
    bits = np.unique(row.view(np.uint64))
    which = np.searchsorted(bits, row.view(np.uint64))
    lines = np.array([_ENTRY + json.dumps(float(v)) + ",\n" for v in bits.view(np.float64)], dtype=object)
    body = which[:-1]
    for start in range(0, len(body), _CHUNK):
        fh.write("".join(lines[body[start : start + _CHUNK]]))
    fh.write(lines[which[-1]][:-2] + "\n")  # the one entry line without a comma


class _EntryMemo(dict):
    """The number of each anchor entry line (``_ENTRY``, a JSON value, a comma), read by
    ``json.loads`` and ``_number`` the first time it is seen; another line raises ValueError."""

    def __missing__(self, line: str) -> float:
        text = line[len(_ENTRY) : -2]
        if line != _ENTRY + text.strip() + ",\n":
            raise ValueError(line)
        value = self[line] = _number(json.loads(text))
        return value


class _ModelReader:
    """One model file, read by ``read`` and then decoded field by field.

    Inside ``with reader:`` a missing key ends in ``model document is missing
    key '<key>'`` and a value of the wrong JSON type in ``model field
    '<field>' has the wrong JSON type``, where ``field`` names the part being
    decoded; an integer too large to convert ends in ``model field '<field>'
    holds a number out of range``.  Every reader starts with ``read``, then
    ``header()``.
    """

    def __init__(self, path: str):
        self.path, self.field = path, "document"

    def read(self, anchor: bool) -> np.ndarray | None:
        """The anchor rows as one (|A|, n_x) float64 array, or None when
        ``anchor`` is false; the rest of the document becomes ``self.doc``.

        The text before ``_ROWS_LINE`` gives the header and the schema, and so
        the anchor's shape.  Each row is an opening line, its entry lines and
        a closing line.  The rest is parsed with one ``NaN`` in the rows'
        place.  A file without the rows line is parsed whole and refused."""
        with open(self.path) as fh:
            head = ""  # one string grown in place: a file without the rows line is held once
            for line in fh:
                if line == _ROWS_LINE:
                    rows_at = self._parse(head + _PLACEHOLDER + "}}", -1)
                    break
                head += line
            else:  # no rows line: parsed whole, and refused once its header and schema are read
                # one object per float text: an anchor repeats a handful of values
                self.doc, rows_at = json.loads(head, parse_float=functools.lru_cache(maxsize=None)(float)), None
            self.header()
            schema = self.schema()
            self.field = "q0.conditionals"
            if rows_at is None:
                raise ValueError(_LAYOUT) if type(self.doc["q0"]["conditionals"]) is list else TypeError
            n_a, n_x = schema.sensitive.cardinality, schema.x_subschema().n_cells
            cond, memo = np.empty((n_a, n_x)) if anchor else None, _EntryMemo()
            try:
                for a in range(n_a):
                    if fh.readline() != _ROW_OPEN:
                        raise ValueError
                    entries = np.fromiter(map(memo.__getitem__, fh), np.float64, n_x - 1)
                    last = memo[fh.readline().replace("\n", ",\n")]  # the one entry line without a comma
                    if fh.readline() != (_LAST_ROW_CLOSE if a == n_a - 1 else _ROW_CLOSE):
                        raise ValueError
                    if anchor:
                        cond[a, :-1], cond[a, -1] = entries, last
                    del entries  # before the next row's: one row is held beside the anchor
                close = fh.readline()
                if not close.startswith(_ROWS_CLOSE):
                    raise ValueError
            except ValueError:  # a line off the layout, or a file cut short
                raise ValueError(_LAYOUT) from None
            text = head + _PLACEHOLDER + close[len(_ROWS_CLOSE) :] + fh.read()
        self._parse(text, rows_at)
        return cond

    def _parse(self, text: str, rows_at: int) -> int:
        """``self.doc = json.loads(text)``, refused unless its NaN, Infinity or -Infinity
        number ``rows_at`` (from the end when negative) is ``q0.conditionals``; that number
        from the start.  Each constant is a float object of its own, known by identity."""
        constants = []

        def constant(name: str) -> float:
            constants.append(float(name))
            return constants[-1]

        self.doc = json.loads(text, parse_constant=constant)
        q0 = self.doc.get("q0") if type(self.doc) is dict else None
        if type(q0) is not dict or q0.get("conditionals") is not constants[rows_at]:
            raise ValueError(_LAYOUT)
        return rows_at % len(constants)

    def __enter__(self) -> "_ModelReader":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, KeyError):
            raise ValueError(f"model document is missing key {exc.args[0]!r}") from None
        if isinstance(exc, (TypeError, AttributeError)):
            raise ValueError(f"model field {self.field!r} has the wrong JSON type") from None
        if isinstance(exc, OverflowError):
            raise ValueError(f"model field {self.field!r} holds a number out of range") from None

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
    """The fitted stack, its scheme and its run id, from a file as ``save_model``
    writes it: the anchor rows go line by line into the array the anchor adopts."""
    with _ModelReader(path) as reader:
        cond = reader.read(anchor=True)
        scheme, run_id = reader.header()
        schema = reader.schema()
        cond.setflags(write=False)  # a fresh array: the anchor adopts it
        q0 = InitialDensity(schema, cond)
        rounds = reader.rounds(schema, scheme.c_bound)
    return BoostedDensity(q0, rounds), scheme, run_id


def load_model_rounds(path: str) -> tuple[LeveragingScheme, str, list[BoostRound]]:
    """The scheme, the run id and every round, read and checked as ``load_model``
    reads them, but each anchor row is only decoded: no anchor or stack is built."""
    with _ModelReader(path) as reader:
        reader.read(anchor=False)
        scheme, run_id = reader.header()
        return scheme, run_id, reader.rounds(reader.schema(), scheme.c_bound)


# -- traces -------------------------------------------------------------


def save_trace(rows: Sequence[TraceRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for r in rows:
            writer.writerow(["" if v is None else str(v) for v in dataclasses.astuple(r)])


def _parse_cell(convert, text: str, what: str):
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"{what}, got {text!r}") from None


def _trace_row(n: int, row: list[str]) -> TraceRow:
    """Row n's cells as a ``TraceRow``, which holds the row rule: the row has
    the header's field count and t = n, an empty cell is None, ``regime`` is
    text and every other cell a number.  Errors name the row and the column."""
    if len(row) != len(TRACE_HEADER):
        raise ValueError(f"trace row {n}: expected {len(TRACE_HEADER)} fields, got {len(row)}")
    t = _parse_cell(int, row[0], f"trace row {n}: t must be an integer")
    if t != n:
        raise ValueError(f"trace row {n}: expected round t={n}, got t={t}")
    try:
        cells = [
            None if text == "" else text if col == "regime" else _parse_cell(float, text, f"{col} must be a number")
            for col, text in zip(TRACE_HEADER[1:], row[1:])
        ]
        return TraceRow(t, *cells)
    except ValueError as exc:
        raise ValueError(f"trace row t={t}: {exc}") from None


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
