"""File formats: instance and ensemble round-trips, the report envelope,
and stdin/stdout streaming."""

import dataclasses
import io
import json

import numpy as np
import pytest

from kspart import (
    Graph,
    ValidationError,
    WeaverInstance,
    gen_diagonal,
    gen_from_graph,
    lift,
    partition,
)
from kspart import serialize
from kspart.policy import DEFAULT_POLICY


def test_instance_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    vecs = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    inst = WeaverInstance(3, vecs, 9.5)
    path = str(tmp_path / "inst.json")
    serialize.write_json(serialize.instance_to_dict(inst), path)
    back, graph = serialize.instance_from_dict(serialize.read_json(path))
    assert graph is None
    assert back.dim == 3 and back.delta == 9.5
    assert np.array_equal(back.vectors, inst.vectors)


def test_instance_delta_defaults_to_measured():
    doc = serialize.instance_to_dict(gen_diagonal(2, 0.5))
    doc.pop("delta")
    back, _ = serialize.instance_from_dict(doc)
    assert abs(back.delta - 0.5) < 1e-12


def test_instance_graph_metadata_round_trip(tmp_path):
    g = Graph(3, ((0, 1, 1.0), (1, 2, 2.0), (0, 2, 1.5)))
    inst, basis = gen_from_graph(g)
    doc = serialize.instance_to_dict(inst, graph=g)
    back, g2 = serialize.instance_from_dict(doc)
    assert g2 is not None
    assert g2.n == 3 and g2.edges == g.edges


def test_ensemble_round_trip():
    e = lift(gen_diagonal(2, 0.5), 2)
    back = serialize.ensemble_from_dict(serialize.ensemble_to_dict(e))
    assert back.dim == e.dim
    assert back.support_sizes == e.support_sizes
    for a, b in zip(back.vectors, e.vectors):
        assert np.allclose(a.probabilities, b.probabilities)
        assert np.array_equal(a.values, b.values)


def test_schema_mismatch_rejected():
    doc = serialize.instance_to_dict(gen_diagonal(2, 0.5))
    doc["schema"] = "something-else/9"
    with pytest.raises(ValidationError):
        serialize.instance_from_dict(doc)
    with pytest.raises(ValidationError):
        serialize.ensemble_from_dict({"schema": serialize.SCHEMA_INSTANCE})


def test_malformed_json_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        serialize.read_json(str(bad))
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    with pytest.raises(ValidationError):
        serialize.read_json(str(lst))


def test_dumps_is_stable_and_sorted():
    doc = {"b": 1, "a": [1.5, 2.5], "z": {"y": True, "x": None}}
    one = serialize.dumps(doc)
    two = serialize.dumps(json.loads(one))
    assert one == two
    assert one.endswith("\n")
    assert one.index('"a"') < one.index('"b"') < one.index('"z"')


@dataclasses.dataclass(frozen=True)
class _Point:
    x: float
    tags: tuple


def test_dumps_encodes_dataclasses_numpy_and_complex():
    doc = {"point": _Point(np.float64(0.25), (1, np.int64(2))),
           "z": np.array([1 + 2j, 3 - 0.5j]), "i": np.int64(3),
           "f": np.float32(0.5), "b": np.bool_(True), "t": (1, 2.5),
           "nan": float("nan")}
    want = """{
  "b": true,
  "f": 0.5,
  "i": 3,
  "nan": NaN,
  "point": {
    "tags": [
      1,
      2
    ],
    "x": 0.25
  },
  "t": [
    1,
    2.5
  ],
  "z": [
    [
      1.0,
      2.0
    ],
    [
      3.0,
      -0.5
    ]
  ]
}
"""
    assert serialize.dumps(doc) == want
    with pytest.raises(TypeError):
        serialize.dumps({"s": {1, 2}})


def json_bytes(doc):
    return json.dumps(doc, indent=2, sort_keys=True,
                      default=serialize._plain) + "\n"


@pytest.mark.parametrize("doc", [
    {"nan": float("nan"), "inf": float("inf"), "ninf": float("-inf")},
    {"floats": [0.5, float("nan"), 1.0], "tail": [1.0, float("-inf")],
     "head": (float("inf"), 2.0)},
    {"zero": -0.0, "tiny": 1e-300, "big": 1e22, "list": [-0.0, 1e-300, 1e22],
     "sub": [5e-324, 1.7976931348623157e308, 0.1, -2.5e-7]},
    {"empty": [], "nested": [[], [[]], {}, ()], "obj": {}, "tuple": (),
     "deep": {"a": {"b": {}}}},
    {"text": "caf\u00e9 \u2203 \U0001f600", "ctl": "tab\tnl\nnul\x00\x1f\"q\\",
     "keys": {"\u00e9": 1, "\n": 2, "": 3}},
    {"mixed": [1, 2.5, True, None, "s", np.float64(0.25), np.int64(3)],
     "np": np.array([[0.5, 1.5], [2.5, 3.5]]), "c": 1 - 2j,
     "floats64": [np.float64(0.1), np.float64("nan")], "b": [np.bool_(False)]},
    {"points": [_Point(0.5, (1.0, 2.0)), _Point(-1.0, ())]},
    {10: "ten", 9: "nine"}, {2.5: "x", 0.5: "y", float("inf"): "z"},
    {False: 0, True: 1}, {None: "null"},
    [],
    [1.0, 2.0],
    "top",
    float("nan"),
    -0.0,
])
def test_dumps_writes_the_bytes_of_json(doc):
    assert serialize.dumps(doc) == json_bytes(doc)


def test_streaming_stdout_stdin(monkeypatch, capsys):
    doc = serialize.instance_to_dict(gen_diagonal(1, 1.0))
    serialize.write_json(doc, "-")
    out = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    assert serialize.read_json("-") == doc


def test_trace_and_partition_report_dicts():
    rep = partition(gen_diagonal(2, 0.5), 2)
    slim = serialize.partition_report_to_dict(rep, with_trace=False)
    assert "trace" not in slim
    full = serialize.partition_report_to_dict(rep, with_trace=True)
    doc = full["trace"]
    assert doc["final_assignment"] == list(rep.trace.final_assignment)
    assert len(doc["steps"]) == len(rep.trace.steps) == 4
    assert isinstance(doc["steps"][0]["candidate_roots"], list)
    # both forms serialize cleanly
    serialize.dumps(slim)
    serialize.dumps(full)


def test_report_envelope_shape():
    env = serialize.report_envelope("partition", {"x": 1}, seed=7,
                                    policy=DEFAULT_POLICY, wall_time_s=0.25)
    assert env["schema"] == serialize.SCHEMA_REPORT
    assert env["kind"] == "partition"
    assert env["tool"]["name"] == "kspart"
    assert env["seed"] == 7
    assert env["numeric_policy"]["partition_slack"] == 1e-7
    assert env["payload"] == {"x": 1}
    # worker count must not leak into the report; wall time is the only
    # nondeterministic field
    assert "threads" not in env
