"""JSON file formats for instances, ensembles, and reports.

Complex scalars serialize as [re, im] pairs; polynomials as ascending
coefficient arrays.  Reports carry the tool version, the seed, the numeric
policy in force, and wall time; wall_time_s is the only field excluded from
the byte-level determinism contract.
"""
from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np

from . import __version__
from .barrier import BarrierCertificate
from .interlace import DescentTrace
from .mixedchar import FiniteSupportVector, RandomVectorEnsemble
from .policy import DEFAULT_POLICY, NumericPolicy, ValidationError
from .weaver import ExperimentStats, Graph, PartitionReport, WeaverInstance

SCHEMA_INSTANCE = "ks-instance/1"
SCHEMA_ENSEMBLE = "ks-ensemble/1"
SCHEMA_REPORT = "ks-report/1"


def _pairs(vec: np.ndarray) -> list:
    return [[float(c.real), float(c.imag)] for c in vec]


def _unpairs(pairs) -> np.ndarray:
    try:
        return np.array([complex(p[0], p[1]) for p in pairs], dtype=np.complex128)
    except (TypeError, IndexError) as err:
        raise ValidationError(f"malformed complex pair list: {err}") from None


def instance_to_dict(inst: WeaverInstance, graph: Graph | None = None) -> dict:
    doc = {
        "schema": SCHEMA_INSTANCE,
        "d": inst.dim,
        "vectors": [_pairs(v) for v in inst.vectors],
        "delta": inst.delta,
    }
    if graph is not None:
        doc["graph"] = {
            "n": graph.n,
            "edges": [[a, b, w] for a, b, w in graph.edges],
        }
    return doc


def instance_from_dict(doc: dict) -> tuple[WeaverInstance, Graph | None]:
    if doc.get("schema") != SCHEMA_INSTANCE:
        raise ValidationError(
            f"expected schema {SCHEMA_INSTANCE!r}, got {doc.get('schema')!r}"
        )
    d = int(doc["d"])
    vectors = np.array(
        [_unpairs(v) for v in doc["vectors"]], dtype=np.complex128
    ).reshape(len(doc["vectors"]), d)
    delta = float(doc.get("delta", np.max(np.sum(np.abs(vectors) ** 2, axis=1))))
    graph = None
    if "graph" in doc:
        gd = doc["graph"]
        graph = Graph(
            n=int(gd["n"]),
            edges=tuple((int(a), int(b), float(w)) for a, b, w in gd["edges"]),
        )
    return WeaverInstance(d, vectors, delta), graph


def ensemble_to_dict(e: RandomVectorEnsemble) -> dict:
    return {
        "schema": SCHEMA_ENSEMBLE,
        "d": e.dim,
        "vectors": [
            {
                "atoms": [
                    {"p": float(v.probabilities[a]), "value": _pairs(v.values[a])}
                    for a in range(v.support_size)
                ]
            }
            for v in e.vectors
        ],
    }


def ensemble_from_dict(doc: dict,
                       policy: NumericPolicy = DEFAULT_POLICY) -> RandomVectorEnsemble:
    if doc.get("schema") != SCHEMA_ENSEMBLE:
        raise ValidationError(
            f"expected schema {SCHEMA_ENSEMBLE!r}, got {doc.get('schema')!r}"
        )
    d = int(doc["d"])
    vectors = []
    for v in doc["vectors"]:
        atoms = v["atoms"]
        probs = np.array([float(a["p"]) for a in atoms])
        values = np.array(
            [_unpairs(a["value"]) for a in atoms], dtype=np.complex128
        ).reshape(len(atoms), d)
        vectors.append(FiniteSupportVector(probs, values, policy))
    return RandomVectorEnsemble(d, tuple(vectors))


def _plain(obj):
    """Recursively convert dataclasses and numpy types to JSON-safe values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _plain(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.complex128:
            return [_plain(x) for x in obj.tolist()]
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    return obj


def trace_to_dict(trace: DescentTrace) -> dict:
    return _plain(trace)


def certificate_to_dict(cert: BarrierCertificate) -> dict:
    return _plain(cert)


def partition_report_to_dict(rep: PartitionReport, with_trace: bool) -> dict:
    doc = _plain(rep)
    if not with_trace:
        doc.pop("trace")
    return doc


def stats_to_dict(stats: ExperimentStats) -> dict:
    doc = _plain(stats)
    # per-trial series belong in the CSV, not the summary report
    doc.pop("max_norms")
    doc.pop("successes")
    doc.pop("mono_free")
    if stats.trials:
        doc["max_norm_mean"] = float(np.mean(stats.max_norms))
        doc["max_norm_min"] = float(np.min(stats.max_norms))
        doc["max_norm_max"] = float(np.max(stats.max_norms))
    return doc


def report_envelope(kind: str, payload: dict, seed: int | None,
                    policy: NumericPolicy = DEFAULT_POLICY,
                    wall_time_s: float = 0.0) -> dict:
    # Thread count is deliberately not recorded: reports must be
    # byte-identical across worker counts, wall time excepted.
    return {
        "schema": SCHEMA_REPORT,
        "kind": kind,
        "tool": {"name": "kspart", "version": __version__},
        "seed": seed,
        "numeric_policy": policy.as_dict(),
        "wall_time_s": wall_time_s,
        "payload": payload,
    }


def dumps(doc: dict) -> str:
    return json.dumps(_plain(doc), indent=2, sort_keys=True) + "\n"


def write_json(doc: dict, path: str) -> None:
    text = dumps(doc)
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def read_text(path: str) -> str:
    """The contents of a file, or of stdin for "-"; stdin stays open."""
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def read_json(path: str) -> dict:
    text = read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValidationError(f"invalid JSON in {path!r}: {err}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"top level of {path!r} is not an object")
    return doc
