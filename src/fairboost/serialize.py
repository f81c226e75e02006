"""File formats: model, trace, metrics, report, manifest.

All JSON documents carry a ``format`` tag and integer ``version``.  Floats
round-trip exactly (shortest-repr encoding on write, exact parse on read),
and writers emit keys in a fixed order, so rewriting the same state produces
byte-identical files.  The model document stores the anchor conditionals and
the per-round {theta, classifier, z, z_by_group} in boosting order; stored
normalizers are authoritative and never recomputed on load.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from typing import Optional, Sequence

import numpy as np

from .boosted import BoostedDensity, BoostRound, InitialDensity, TableClassifier
from .engine import LeveragingScheme, TraceRow
from .schema import AttributeSchema
from .tree import DecisionTreeClassifier

MODEL_FORMAT = "fairboost.model"
MODEL_VERSION = 1
MANIFEST_FORMAT = "fairboost.manifest"
MANIFEST_VERSION = 1
METRICS_FORMAT = "fairboost.metrics"
REPORT_FORMAT = "fairboost.report"

TRACE_HEADER = ["t", "theta", "gamma_p", "gamma_q", "regime", "rr", "rr_bound", "kl_train", "kl_test", "z"]


def dump_json(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# -- models -------------------------------------------------------------

_CLASSIFIER_DECODERS = {
    "tree": DecisionTreeClassifier.from_dict,
    "table": TableClassifier.from_dict,
}


def _decode_classifier(d: dict, x_schema: AttributeSchema):
    kind = d.get("type")
    if kind not in _CLASSIFIER_DECODERS:
        raise ValueError(f"unknown classifier type {kind!r}")
    return _CLASSIFIER_DECODERS[kind](d, x_schema)


def _scheme_to_dict(scheme: LeveragingScheme) -> dict:
    return {"kind": scheme.kind, "tau": scheme.tau, "c_bound": scheme.c_bound, "value": scheme.value}


def _scheme_from_dict(d: dict) -> LeveragingScheme:
    return LeveragingScheme(
        kind=d["kind"], tau=d.get("tau"), c_bound=float(d.get("c_bound", np.log(2.0))), value=d.get("value")
    )


def save_model(
    bd: BoostedDensity,
    path: str,
    scheme: Optional[LeveragingScheme] = None,
    meta: Optional[dict] = None,
) -> None:
    doc = {"format": MODEL_FORMAT, "version": MODEL_VERSION}
    if meta:
        doc.update(meta)
    if scheme is not None:
        doc["scheme"] = _scheme_to_dict(scheme)
    doc["q0"] = {
        "schema": bd.schema.to_dict(),
        "conditionals": [[float(v) for v in row] for row in bd.q0.cond],
    }
    doc["rounds"] = [
        {
            "theta": float(r.theta),
            "classifier": r.classifier.to_dict(),
            "z": float(r.z),
            "z_by_group": [float(z) for z in r.z_by_group],
        }
        for r in bd.rounds
    ]
    dump_json(doc, path)


def load_model(path: str) -> tuple[BoostedDensity, Optional[LeveragingScheme], dict]:
    doc = load_json(path)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError("not a model document")
    if int(doc.get("version", -1)) != MODEL_VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')!r}")
    schema = AttributeSchema.from_dict(doc["q0"]["schema"])
    q0 = InitialDensity.from_matrix(schema, np.asarray(doc["q0"]["conditionals"], dtype=np.float64))
    x_schema = schema.x_subschema()
    card = schema.sensitive.cardinality
    rounds = []
    for t, r in enumerate(doc["rounds"], start=1):
        z_by_group = np.asarray(r["z_by_group"], dtype=np.float64)
        if z_by_group.shape != (card,):
            raise ValueError(f"round {t}: z_by_group needs {card} entries, one per sensitive value")
        rounds.append(
            BoostRound(
                theta=float(r["theta"]),
                classifier=_decode_classifier(r["classifier"], x_schema),
                z=float(r["z"]),
                z_by_group=z_by_group,
            )
        )
    scheme = _scheme_from_dict(doc["scheme"]) if doc.get("scheme") else None
    return BoostedDensity(q0, rounds), scheme, doc


# -- traces -------------------------------------------------------------


def _cell_str(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def trace_to_csv(rows: Sequence[TraceRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    for r in rows:
        writer.writerow(
            [
                _cell_str(r.t),
                _cell_str(r.theta),
                _cell_str(r.gamma_p),
                _cell_str(r.gamma_q),
                _cell_str(r.regime),
                _cell_str(r.rr),
                _cell_str(r.rr_bound),
                _cell_str(r.kl_train),
                _cell_str(r.kl_test),
                _cell_str(r.z),
            ]
        )
    return buf.getvalue()


def save_trace(rows: Sequence[TraceRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(trace_to_csv(rows))


def load_trace(path: str) -> list[TraceRow]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACE_HEADER:
            raise ValueError("not a trace file")
        out = []
        for row in reader:
            vals = dict(zip(TRACE_HEADER, row))
            opt = lambda s: float(s) if s != "" else None
            out.append(
                TraceRow(
                    t=int(vals["t"]),
                    theta=float(vals["theta"]),
                    gamma_p=opt(vals["gamma_p"]),
                    gamma_q=opt(vals["gamma_q"]),
                    regime=vals["regime"] or None,
                    rr=float(vals["rr"]),
                    rr_bound=float(vals["rr_bound"]),
                    kl_train=opt(vals["kl_train"]),
                    kl_test=opt(vals["kl_test"]),
                    z=float(vals["z"]),
                )
            )
    return out


# -- manifests ----------------------------------------------------------


def manifest_id(command: str, resolved_config: dict, input_digests: dict, version: str) -> str:
    payload = json.dumps(
        {"command": command, "config": resolved_config, "inputs": input_digests, "library_version": version},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def build_manifest(
    command: str,
    resolved_config: dict,
    input_digests: dict,
    version: str,
    timings: dict,
    extra: Optional[dict] = None,
) -> dict:
    doc = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "id": manifest_id(command, resolved_config, input_digests, version),
        "command": command,
        "resolved_config": resolved_config,
        "inputs": input_digests,
        "library_version": version,
        "timings_seconds": timings,
    }
    if extra:
        doc.update(extra)
    return doc
