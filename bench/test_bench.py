"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest -q bench/test_bench.py

Runs every workload's tiny variant through run.py, traced and untraced, and
checks that each metric named in BENCHMARK.json is printed with its unit.
Also checks that a bad input is counted as a failed solve rather than
crashing the harness, that a changed report breaks the determinism check,
and that the benchmark refuses to run without the program's sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
assert run.use_source_tree()

import workloads  # noqa: E402  (needs the source tree on sys.path)
from kspart import cli  # noqa: E402


def _run(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"  {name} " in done.stderr, name


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.END_TO_END) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(run.PER_LAYER) == {m["name"] for m in SPEC["per_layer"]}


def test_invalid_input_is_a_failed_solve(tmp_path):
    bad = workloads.gen_gaussian(2, 0.5, seed=0)
    bad = workloads.WeaverInstance(2, 2.0 * bad.vectors, bad.delta)
    path = tmp_path / "bad.json"
    workloads.write_json(workloads.instance_to_dict(bad), str(path))
    case = workloads._partition_case("bad", path, bad, 2)
    solves = run.run_solves(cli, [case], tmp_path, 0.0)
    run.verify([case], solves)
    assert len(solves) == 2 and all(s.failed for s in solves)
    assert solves[0].error == "exit code 2"
    values, samples = run.end_to_end(solves, [0.1], 1.0)
    assert values["verified_share"] == 0.0
    assert values["bound_ratio"] is None and samples["bound_ratio"] == 0


def test_changed_report_fails_determinism(tmp_path):
    case = workloads.WORKLOADS["partition-generic"].cases(
        0, tmp_path, tiny=True)[0]
    solves = run.run_solves(cli, [case], tmp_path, 0.0)
    doc = json.loads(solves[1].report)
    doc["payload"]["root_of_empty"] += 1e-9
    solves[1].report = json.dumps(doc, indent=2).encode()
    run.verify([case], solves)
    assert not solves[0].failed
    assert solves[1].error is not None


def test_digest_ignores_wall_time_only():
    a = b'{\n  "kind": "x",\n  "wall_time_s": 0.25\n}\n'
    b = b'{\n  "kind": "x",\n  "wall_time_s": 7.5\n}\n'
    c = b'{\n  "kind": "y",\n  "wall_time_s": 0.25\n}\n'
    assert run.digest(a) == run.digest(b) != run.digest(c)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
         "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
