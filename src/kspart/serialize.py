"""JSON file formats for instances, ensembles, and reports.

Complex scalars serialize as [re, im] pairs; polynomials as ascending
coefficient arrays.  Reports carry the tool version, the seed, the numeric
policy in force, and wall time; wall_time_s is the only field excluded from
the byte-level determinism contract.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from .barrier import BarrierCertificate
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


@contextmanager
def _parsing(kind: str):
    """Report a missing field or a value of the wrong shape or type in a
    document as ValidationError."""
    try:
        yield
    except KeyError as err:
        raise ValidationError(
            f"{kind} document lacks the field {err}") from None
    except (TypeError, ValueError) as err:
        raise ValidationError(f"malformed {kind} document: {err}") from None


def instance_from_dict(doc: dict) -> tuple[WeaverInstance, Graph | None]:
    if doc.get("schema") != SCHEMA_INSTANCE:
        raise ValidationError(
            f"expected schema {SCHEMA_INSTANCE!r}, got {doc.get('schema')!r}"
        )
    with _parsing("instance"):
        d = int(doc["d"])
        vectors = np.array(
            [_unpairs(v) for v in doc["vectors"]], dtype=np.complex128
        ).reshape(len(doc["vectors"]), d)
        delta = float(doc.get("delta",
                              np.max(np.sum(np.abs(vectors) ** 2, axis=1))))
        graph = None
        if "graph" in doc:
            gd = doc["graph"]
            graph = Graph(
                n=int(gd["n"]),
                edges=tuple((int(a), int(b), float(w))
                            for a, b, w in gd["edges"]),
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
    with _parsing("ensemble"):
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


_SCALARS = frozenset((str, int, float, bool, type(None)))
_FIELDS: dict[type, tuple[str, ...]] = {}


def _plain(obj):
    """Recursively convert dataclasses and numpy types to JSON-safe values.

    Also the fallback of ``dumps`` for values it cannot write itself.
    """
    kind = type(obj)
    if kind in _SCALARS:
        return obj
    names = _FIELDS.get(kind)
    if (names is None and dataclasses.is_dataclass(obj)
            and not isinstance(obj, type)):
        names = _FIELDS[kind] = tuple(f.name for f in dataclasses.fields(obj))
    if names is not None:
        return {name: _plain(getattr(obj, name)) for name in names}
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
        if _SCALARS.issuperset(map(type, obj)):
            return list(obj)
        return [_plain(x) for x in obj]
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


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


_string = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _number(x: float) -> str:
    """json's spelling of a float, NaN and the infinities included."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key(k) -> str:
    """json's dict key for k (skipkeys off)."""
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _number(k)
    if k is True or k is False or k is None:
        return _CONSTANTS[k]
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(k).__name__}")


def _write(obj, out: list, indent: str) -> None:
    """Append to out the text of obj at the nesting given by indent, as
    json's encoder with indent=2 and sorted keys writes it."""
    if isinstance(obj, str):
        out.append(_string(obj))
    elif obj is None or obj is True or obj is False:
        out.append(_CONSTANTS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_number(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        if set(map(type, obj)) == {float}:
            text = sep.join(map(float.__repr__, obj))
            if "n" not in text:  # no nan or inf, which json spells apart
                out.append("[\n" + inner + text + "\n" + indent + "]")
                return
        out.append("[\n" + inner)
        for i, item in enumerate(obj):
            if i:
                out.append(sep)
            _write(item, out, inner)
        out.append("\n" + indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        out.append("{\n" + inner)
        for i, (k, v) in enumerate(sorted(obj.items())):
            if i:
                out.append(",\n" + inner)
            out.append(_string(_key(k)) + ": ")
            _write(v, out, inner)
        out.append("\n" + indent + "}")
    else:
        _write(_plain(obj), out, indent)


def dumps(doc: dict) -> str:
    """The bytes of ``json.dumps(doc, indent=2, sort_keys=True,
    default=_plain) + "\\n"``, written in one pass: json's indented encoder
    is pure Python and yields one chunk per token, while a list of plain
    floats here is one join."""
    out: list[str] = []
    _write(doc, out, "")
    out.append("\n")
    return "".join(out)


def write_json(doc: dict, path: str) -> None:
    text = dumps(doc)
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def read_text(path: str) -> str:
    """The contents of a file, or of stdin for "-"; stdin stays open."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as fh:
            return fh.read()
    except ValueError as err:  # UnicodeDecodeError
        raise ValidationError(f"cannot decode {path!r}: {err}") from None


def read_json(path: str) -> dict:
    text = read_text(path)
    try:
        doc = json.loads(text)
    # JSONDecodeError and the limit on integer digits are ValueErrors;
    # deep nesting exhausts the recursion limit
    except (ValueError, RecursionError) as err:
        raise ValidationError(f"invalid JSON in {path!r}: {err}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"top level of {path!r} is not an object")
    return doc
