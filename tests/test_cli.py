"""Command-line harness: pipelines over files, exit codes, seeds, and the
determinism contract on reports."""

import csv
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from kspart import (DEFAULT_POLICY, NumericPolicy, ValidationError, cli,
                    realpoly, serialize)
from kspart.cli import main

from test_mixedchar import bernoulli_diagonal, no_kernels


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def canonical_bytes(path):
    """Report bytes with the wall-time field neutralized."""
    doc = read_report(path)
    doc["wall_time_s"] = 0.0
    return serialize.dumps(doc).encode()


def write_k4(tmp_path):
    lines = [f"{a} {b} 1.0" for a in range(4) for b in range(a + 1, 4)]
    path = tmp_path / "k4.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_gen_diagonal_file(tmp_path):
    out = str(tmp_path / "diag.json")
    assert main(["gen", "diagonal", "--n", "2", "--delta", "0.5",
                 "--out", out]) == 0
    doc = serialize.read_json(out)
    assert doc["schema"] == "ks-instance/1"
    assert len(doc["vectors"]) == 4
    inst, _ = serialize.instance_from_dict(doc)
    assert np.allclose(inst.norms_squared(), 0.5)


def test_gen_graph_file(tmp_path):
    out = str(tmp_path / "k4.json")
    assert main(["gen", "graph", "--edges", write_k4(tmp_path),
                 "--out", out]) == 0
    doc = serialize.read_json(out)
    assert doc["d"] == 3 and len(doc["vectors"]) == 6
    assert doc["graph"]["n"] == 4


def test_gen_graph_reads_stdin_and_leaves_it_open(tmp_path, monkeypatch):
    edges = Path(write_k4(tmp_path)).read_text()
    stdin = io.StringIO(edges)
    monkeypatch.setattr("sys.stdin", stdin)
    out = str(tmp_path / "k4.json")
    assert main(["gen", "graph", "--edges", "-", "--out", out]) == 0
    assert not stdin.closed
    assert serialize.read_json(out)["graph"]["n"] == 4


def test_gen_gaussian_is_isotropic(tmp_path):
    out = str(tmp_path / "g.json")
    assert main(["gen", "gaussian", "--n", "4", "--delta", "0.25",
                 "--seed", "7", "--out", out]) == 0
    from kspart import validate
    inst, _ = serialize.instance_from_dict(serialize.read_json(out))
    assert validate(inst).valid


def test_partition_pipeline(tmp_path):
    inst = str(tmp_path / "inst.json")
    rep = str(tmp_path / "rep.json")
    assert main(["gen", "diagonal", "--n", "2", "--delta", "0.5",
                 "--out", inst]) == 0
    assert main(["partition", "--in", inst, "--r", "2", "--out", rep]) == 0
    doc = read_report(rep)
    assert doc["kind"] == "partition"
    payload = doc["payload"]
    assert payload["within_bound"] is True
    assert max(payload["part_norms"]) <= 0.5 + 1e-9
    assert payload["bound_general"] == pytest.approx(2.0)
    assert payload["bound_r2_improved"] == pytest.approx(1.0)
    assert "trace" not in payload
    assert main(["partition", "--in", inst, "--r", "2", "--trace",
                 "--out", rep]) == 0
    assert "trace" in read_report(rep)["payload"]
    # the parser is shared between calls; --trace must not carry over
    assert main(["partition", "--in", inst, "--r", "2", "--out", rep]) == 0
    assert "trace" not in read_report(rep)["payload"]


def test_partition_graph_spectral_block(tmp_path):
    inst = str(tmp_path / "k4.json")
    rep = str(tmp_path / "rep.json")
    assert main(["gen", "graph", "--edges", write_k4(tmp_path),
                 "--out", inst]) == 0
    assert main(["partition", "--in", inst, "--r", "2", "--out", rep]) == 0
    payload = read_report(rep)["payload"]
    spectral = payload["spectral_check"]
    # delta = 1/2 and r = 2 give bound (1/sqrt2 + 1/sqrt2)^2 = 2, floor 1/4
    assert spectral["kappa1_floor_from_bound"] == pytest.approx(0.25)
    for part in spectral["parts"]:
        assert part["edge_count"] == 3
        assert part["connected"] is True
        assert part["kappa2"] >= part["kappa1"] > 0


def test_partition_descent_abort_exits_3(tmp_path, monkeypatch):
    inst = str(tmp_path / "inst.json")
    pol = tmp_path / "policy.json"
    pol.write_text('{"descent_slack": -1.0}\n')
    assert main(["gen", "diagonal", "--n", "2", "--delta", "0.5",
                 "--out", inst]) == 0
    # a policy file may not set a negative slack, so the demand that every
    # step fall by 1 comes in as the default policy
    assert main(["partition", "--in", inst, "--numeric-policy",
                 str(pol)]) == 2
    monkeypatch.setattr(cli, "DEFAULT_POLICY",
                        NumericPolicy(descent_slack=-1.0))
    assert main(["partition", "--in", inst]) == 3


def test_partition_repair_isotropy(tmp_path):
    src = str(tmp_path / "drift.json")
    from kspart import gen_diagonal
    base = gen_diagonal(2, 0.5)
    doc = serialize.instance_to_dict(base)
    doc["vectors"] = [[[c[0] * (1 + 3e-5), c[1]] for c in v]
                      for v in doc["vectors"]]
    serialize.write_json(doc, src)
    assert main(["partition", "--in", src]) == 2  # fails validation as-is
    assert main(["partition", "--in", src, "--repair-isotropy"]) == 0


def test_mixed_with_oracle(tmp_path):
    ens = str(tmp_path / "ens.json")
    rep = str(tmp_path / "rep.json")
    serialize.write_json(
        serialize.ensemble_to_dict(bernoulli_diagonal(2, 0.5)), ens)
    assert main(["mixed", "--in", ens, "--oracle", "--out", rep]) == 0
    payload = read_report(rep)["payload"]
    assert np.allclose(payload["coefficients"], [0.25, -1.0, 1.0], atol=1e-12)
    assert payload["oracle"]["max_abs_deviation"] <= 1e-12
    assert payload["largest_root"] == pytest.approx(0.5, abs=1e-7)



def test_policy_loosens_ensemble_probability_check(tmp_path):
    ens = str(tmp_path / "ens.json")
    pol = tmp_path / "pol.json"
    pol.write_text('{"prob_sum_tol": 1e-06}\n')
    doc = serialize.ensemble_to_dict(bernoulli_diagonal(2, 0.5))
    for vec in doc["vectors"]:
        vec["atoms"][0]["p"] += 1e-8  # probabilities sum to 1 + 1e-8
    serialize.write_json(doc, ens)
    assert main(["mixed", "--in", ens, "--out", "-"]) == 2
    rep = str(tmp_path / "rep.json")
    assert main(["mixed", "--in", ens, "--numeric-policy", str(pol),
                 "--out", rep]) == 0
    payload = read_report(rep)["payload"]
    assert np.allclose(payload["coefficients"], [0.25, -1.0, 1.0], atol=1e-12)

def test_certify_instance_and_ensemble(tmp_path):
    inst = str(tmp_path / "inst.json")
    rep = str(tmp_path / "cert.json")
    assert main(["gen", "diagonal", "--n", "2", "--delta", "0.5",
                 "--out", inst]) == 0
    assert main(["certify", "--in", inst, "--out", rep]) == 0
    payload = read_report(rep)["payload"]
    assert payload["valid"] is True
    assert payload["epsilon"] == pytest.approx(0.5)
    assert payload["bound"] == pytest.approx((1.0 + np.sqrt(0.5)) ** 2)

    # ensemble route: doubling the fair-inclusion system restores isotropy
    e = bernoulli_diagonal(2, 0.5)
    from kspart import RandomVectorEnsemble
    doubled = RandomVectorEnsemble(2, e.vectors + e.vectors)
    ens = str(tmp_path / "ens.json")
    serialize.write_json(serialize.ensemble_to_dict(doubled), ens)
    assert main(["certify", "--in", ens, "--out", rep]) == 0
    payload = read_report(rep)["payload"]
    assert payload["epsilon"] == pytest.approx(0.25)
    assert payload["bound"] == pytest.approx(2.25)


def test_certify_non_finite_epsilon_exits_2(tmp_path, capsys):
    inst = str(tmp_path / "inst.json")
    rep = tmp_path / "cert.json"
    assert main(["gen", "diagonal", "--n", "2", "--delta", "0.5",
                 "--out", inst]) == 0
    for eps in ("nan", "inf", "0"):
        assert main(["certify", "--in", inst, "--epsilon", eps,
                     "--out", str(rep)]) == 2
        assert "positive and finite" in capsys.readouterr().err
    assert not rep.exists()


def test_certify_rejected_certificate_exits_3(tmp_path):
    # at epsilon 1/4 the level-0 barriers, 1/2 over t = 3/4, pass phi =
    # 1/3; at 1e-14 the value at t * 1 is within pole_tol of a pole
    inst = str(tmp_path / "inst.json")
    rep = str(tmp_path / "cert.json")
    assert main(["gen", "diagonal", "--n", "2", "--delta", "0.5",
                 "--out", inst]) == 0
    assert main(["certify", "--in", inst, "--epsilon", "0.25",
                 "--out", rep]) == 3
    payload = read_report(rep)["payload"]
    assert payload["valid"] is False and payload["aborted_at"] is None
    assert payload["steps"][0]["max_barrier"] > payload["phi"]
    assert main(["certify", "--in", inst, "--epsilon", "1e-14",
                 "--out", rep]) == 3
    payload = read_report(rep)["payload"]
    assert payload["valid"] is False and payload["aborted_at"] == 0
    assert payload["steps"] == []


def test_certify_rank_two_exits_4(tmp_path):
    from kspart import FiniteSupportVector, RandomVectorEnsemble
    v = FiniteSupportVector([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
    ens = str(tmp_path / "rank2.json")
    serialize.write_json(
        serialize.ensemble_to_dict(RandomVectorEnsemble(2, (v,))), ens)
    assert main(["certify", "--in", ens]) == 4


def test_partition_refused_before_any_work_exits_4(tmp_path, monkeypatch,
                                                  capsys):
    inst = str(tmp_path / "gauss.json")
    assert main(["gen", "gaussian", "--n", "8", "--delta", "0.125",
                 "--out", inst]) == 0
    no_kernels(monkeypatch)
    assert main(["partition", "--in", inst, "--r", "2"]) == 4
    assert "predicted work" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["gaussian", "diagonal"])
def test_gen_refused_before_allocating_exits_4(kind, tmp_path, capsys):
    # 2e300 rows raised numpy's "Maximum allowed dimension exceeded", and
    # 2e12 rows (gaussian, delta 1e-12) tried to allocate 29 TiB; the m x n
    # complex array is held at BYTE_WORK a byte, 500 MB at the default cap
    out = tmp_path / "inst.json"
    for delta in ("1e-300", "1e-12", "5e-324"):
        assert main(["gen", kind, "--n", "2", "--delta", delta,
                     "--out", str(out)]) == 4, delta
        assert "predicted work" in capsys.readouterr().err
    assert not out.exists()
    if kind == "gaussian":  # the cap of --numeric-policy: 5,000 bytes
        pol = tmp_path / "pol.json"
        pol.write_text(json.dumps({"work_cap": 1e6}))
        for delta, rows, code in (("0.01", 200, 4), ("0.02", 100, 0)):
            assert main(["gen", kind, "--n", "2", "--delta", delta,
                         "--numeric-policy", str(pol),
                         "--out", str(out)]) == code, rows
        assert len(read_report(out)["vectors"]) == 100


def test_large_r_and_large_instance_files_exit_4(tmp_path, capsys):
    # pricing C(2d, d)^r as an integer ended in an OverflowError traceback
    # at r = 250 and did not finish at r = 10^20; writing 2e6 vectors
    # would peak at about 2.6 GB, at JSON_BYTES a coordinate
    inst = str(tmp_path / "gauss.json")
    assert main(["gen", "gaussian", "--n", "3", "--delta", "0.25",
                 "--out", inst]) == 0
    for r in ("250", str(10 ** 20)):
        assert main(["partition", "--in", inst, "--r", r]) == 4, r
        assert "predicted work" in capsys.readouterr().err
    out = tmp_path / "big.json"
    for kind in ("gaussian", "diagonal"):
        assert main(["gen", kind, "--n", "2", "--delta", "1e-6",
                     "--out", str(out)]) == 4, kind
        assert "instance file of 2000000 vectors" in capsys.readouterr().err
    assert not out.exists()


def test_gen_prices_the_file_before_the_draw(tmp_path, monkeypatch,
                                            capsys):
    # the file of 2e6 vectors was priced only after they were drawn, at a
    # peak of about 208 MB; a generator that raises shows it is not called
    def never(*args, **kwargs):
        raise AssertionError("generator called")

    monkeypatch.setattr(cli, "gen_gaussian", never)
    monkeypatch.setattr(cli, "gen_diagonal", never)
    out = tmp_path / "big.json"
    for kind in ("gaussian", "diagonal"):
        assert main(["gen", kind, "--n", "2", "--delta", "1e-6",
                     "--out", str(out)]) == 4, kind
        assert "instance file of 2000000 vectors" in capsys.readouterr().err
        for n, delta in (("2", "0"), ("2", "-1e-6"), ("0", "1e-6")):
            assert main(["gen", kind, "--n", n, f"--delta={delta}",
                         "--out", str(out)]) == 2, (kind, n, delta)
            assert "must" in capsys.readouterr().err
    assert not out.exists()


def test_nan_work_cap_exits_2_before_any_work(tmp_path, monkeypatch,
                                              capsys):
    # a NaN cap compares false with every prediction, so it would admit
    # the m=64 partition above, which runs for hours
    inst = str(tmp_path / "gauss.json")
    assert main(["gen", "gaussian", "--n", "8", "--delta", "0.125",
                 "--out", inst]) == 0
    pol = tmp_path / "pol.json"
    pol.write_text('{"work_cap": NaN}\n')
    no_kernels(monkeypatch)
    assert main(["partition", "--in", inst, "--r", "2",
                 "--numeric-policy", str(pol)]) == 2
    assert "finite and nonnegative" in capsys.readouterr().err


def test_policy_merged_rejects_non_finite_and_negative():
    for value in (float("nan"), float("inf"), -float("inf"), -1, -1e-12,
                  10 ** 400):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            DEFAULT_POLICY.merged({"work_cap": value})
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        DEFAULT_POLICY.merged({"combo_samples": -1})
    assert DEFAULT_POLICY.merged({"descent_slack": 0}).descent_slack == 0.0
    assert DEFAULT_POLICY.merged({"work_cap": 1e300}).work_cap == 1e300
    # the constructor is not checked: tests build a negative slack on purpose
    assert NumericPolicy(descent_slack=-1.0).descent_slack == -1.0


def test_chernoff_refused_before_any_trial_exits_4(tmp_path, monkeypatch,
                                                  capsys):
    inst = str(tmp_path / "inst.json")
    assert main(["gen", "diagonal", "--n", "2", "--delta", "0.5",
                 "--out", inst]) == 0
    no_kernels(monkeypatch)
    assert main(["experiment", "chernoff", "--in", inst,
                 "--trials", str(10 ** 12)]) == 4
    assert "predicted work" in capsys.readouterr().err


def test_chernoff_non_finite_threshold_exits_2(tmp_path, capsys):
    inst = str(tmp_path / "inst.json")
    rep = tmp_path / "rep.json"
    assert main(["gen", "diagonal", "--n", "2", "--delta", "0.5",
                 "--out", inst]) == 0
    for threshold in ("nan", "inf", "-inf"):
        assert main(["experiment", "chernoff", "--in", inst, "--trials", "5",
                     f"--threshold={threshold}", "--csv",
                     str(tmp_path / "t.csv"), "--out", str(rep)]) == 2
        assert "threshold must be finite" in capsys.readouterr().err
    assert not rep.exists()


def test_memory_error_exits_4(monkeypatch, capsys):
    from kspart import cli

    def exhausted(args):
        raise MemoryError("Unable to allocate 11.0 GiB")

    monkeypatch.setattr(cli, "cmd_certify", exhausted)
    assert main(["certify", "--in", "never-read.json"]) == 4
    assert capsys.readouterr().err.startswith("error: Unable to allocate")


def test_chernoff_csv_and_summary(tmp_path):
    inst = str(tmp_path / "inst.json")
    out_csv = str(tmp_path / "trials.csv")
    rep = str(tmp_path / "rep.json")
    assert main(["gen", "diagonal", "--n", "1", "--delta", "0.5",
                 "--out", inst]) == 0
    assert main(["experiment", "chernoff", "--in", inst, "--trials", "50",
                 "--seed", "3", "--csv", out_csv, "--out", rep]) == 0
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "max_part_norm", "success", "mono_free"]
    assert len(rows) == 51
    payload = read_report(rep)["payload"]
    assert payload["trials"] == 50
    assert payload["analytic_mono_free"] == pytest.approx(0.75)

    # header-only CSV at zero trials
    assert main(["experiment", "chernoff", "--in", inst, "--trials", "0",
                 "--csv", out_csv]) == 0
    with open(out_csv) as fh:
        assert len(list(csv.reader(fh))) == 1


def test_laguerre_row(tmp_path):
    out_csv = str(tmp_path / "l.csv")
    assert main(["experiment", "laguerre", "--n", "50", "--delta", "0.1",
                 "--csv", out_csv]) == 0
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    header, row = rows
    rec = dict(zip(header, row))
    assert float(rec["largest_root"]) == pytest.approx(0.9894063474887,
                                                       abs=1e-9)
    assert rec["within"] == "1"
    assert float(rec["interval_lo"]) == pytest.approx(
        0.5 * (1 - np.sqrt(0.2)) ** 2)
    assert float(rec["interval_hi"]) == pytest.approx(
        0.5 * (1 + np.sqrt(0.2)) ** 2)
    # the row uses no tolerance, so the command takes no policy file
    pol = tmp_path / "pol.json"
    pol.write_text("{}\n")
    assert main(["experiment", "laguerre", "--n", "50", "--delta", "0.1",
                 "--csv", out_csv, "--numeric-policy", str(pol)]) == 2


def test_laguerre_refused_before_any_count_exits_4(tmp_path, monkeypatch,
                                                   capsys):
    # k = n = 10^7 pivots over 56 halvings predict 1.7e11 work units; a
    # Sturm count loops over range(k), so none may start before the refusal
    def loop(*args):
        raise AssertionError("a Sturm count ran before the capacity refusal")

    monkeypatch.setattr(realpoly, "range", loop, raising=False)
    out_csv = tmp_path / "l.csv"
    assert main(["experiment", "laguerre", "--n", str(10 ** 7), "--delta",
                 "0.1", "--csv", str(out_csv)]) == 4
    assert "predicted work" in capsys.readouterr().err
    assert not out_csv.exists()


def test_laguerre_non_finite_margin_exits_2(tmp_path, capsys):
    out_csv = tmp_path / "l.csv"
    for margin in ("nan", "inf", "-inf"):
        assert main(["experiment", "laguerre", "--n", "50", "--delta", "0.1",
                     f"--margin={margin}", "--csv", str(out_csv)]) == 2
        assert "margin must be finite" in capsys.readouterr().err
    assert not out_csv.exists()


def test_laguerre_tiny_delta_finishes(tmp_path):
    # n/(2 delta) = 2.5e300 applications, taken in closed form
    out_csv = str(tmp_path / "l.csv")
    assert main(["experiment", "laguerre", "--n", "5", "--delta", "1e-300",
                 "--csv", out_csv]) == 0
    with open(out_csv) as fh:
        header, row = list(csv.reader(fh))
    assert float(dict(zip(header, row))["largest_root"]) == \
        pytest.approx(0.5, abs=1e-9)
    # past the float range the request is refused, not overflowed
    for delta in ("1e-307", "1e-320"):
        assert main(["experiment", "laguerre", "--n", "5", "--delta", delta,
                     "--csv", out_csv]) == 2


@pytest.mark.parametrize("argv", [
    ["gen", "gaussian", "--n", "2", "--delta", "0.5"],
    ["certify", "--in", "inst.json"],
    ["experiment", "chernoff", "--in", "inst.json"],
], ids=["gen-gaussian", "certify", "chernoff"])
@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_seed_must_be_non_negative_integer(argv, seed, capsys):
    assert main(argv + ["--seed", seed]) == 2
    assert "--seed: expected a non-negative integer" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["partition", "--in", "inst.json"],
    ["mixed", "--in", "ens.json"],
], ids=["partition", "mixed"])
@pytest.mark.parametrize("threads", ["0", "-3", "1.5", "x"])
def test_threads_must_be_positive_integer(argv, threads, capsys):
    assert main(argv + ["--threads", threads]) == 2
    assert "--threads: expected a positive integer" in \
        capsys.readouterr().err


def test_exit_code_2_on_bad_input(tmp_path):
    assert main(["partition", "--in", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["partition", "--in", str(bad)]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["gen", "diagonal", "--n", "2", "--delta", "0.3"]) == 2
    pol = tmp_path / "pol.json"
    pol.write_text('{"no_such_field": 1}\n')
    inst = str(tmp_path / "i.json")
    assert main(["gen", "diagonal", "--n", "1", "--delta", "1.0",
                 "--out", inst]) == 0
    assert main(["partition", "--in", inst, "--numeric-policy",
                 str(pol)]) == 2
    assert main(["--help"]) == 0


@pytest.mark.parametrize("flag,text", [
    ("--in", '{"schema": "ks-instance/1", "vectors": [[[1.0, 0.0]]]}'),
    ("--in", '{"schema": "ks-instance/1", "d": 2, "vectors": [[[1.0, 0.0]]]}'),
    ("mixed --in", '{"schema": "ks-ensemble/1", "d": 1, "vectors": [{}]}'),
    ("--edges", "a b\n"),
    ("--numeric-policy", '{"tie_tol": "x"}'),
    ("--numeric-policy", '{"subset_cap": 4194304}'),  # a removed cap
    ("--numeric-policy", '{"tie_tol": -Infinity}'),
])
def test_malformed_input_exits_2(tmp_path, capsys, flag, text):
    bad = tmp_path / "bad"
    bad.write_text(text)
    inst = str(tmp_path / "inst.json")
    assert main(["gen", "diagonal", "--n", "1", "--delta", "1.0",
                 "--out", inst]) == 0
    argv = {
        "--in": ["partition", "--in", str(bad)],
        "mixed --in": ["mixed", "--in", str(bad)],
        "--edges": ["gen", "graph", "--edges", str(bad)],
        "--numeric-policy": ["partition", "--in", inst,
                             "--numeric-policy", str(bad)],
    }[flag]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("content", [
    None,  # a directory
    b"\xff",
    b'{"work_cap": ' + b"9" * 5000 + b"}",  # past the 4300-digit limit
    b"[" * 100000,
], ids=["directory", "not-utf8", "long-int", "deep-nesting"])
def test_unreadable_input_exits_2(tmp_path, capsys, content):
    bad = tmp_path / "bad"
    if content is None:
        bad.mkdir()
    else:
        bad.write_bytes(content)
    inst = str(tmp_path / "inst.json")
    assert main(["gen", "diagonal", "--n", "1", "--delta", "1.0",
                 "--out", inst]) == 0
    out = str(tmp_path / "out.json")
    for argv in (["partition", "--in", str(bad)],
                 ["partition", "--in", inst, "--numeric-policy", str(bad)],
                 ["gen", "graph", "--edges", str(bad)]):
        assert main(argv + ["--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["gen", "diagonal", "--seed", "5"],
    ["gen", "diagonal", "--threads", "8"],
    ["gen", "diagonal", "--numeric-policy", "policy.json"],
    ["gen", "gaussian", "--threads", "8"],
    ["gen", "graph", "--edges", "edges.txt", "--seed", "5"],
    ["gen", "graph", "--edges", "edges.txt", "--threads", "8"],
    ["partition", "--in", "inst.json", "--seed", "7"],
    ["mixed", "--in", "ens.json", "--seed", "7"],
    ["certify", "--in", "inst.json", "--threads", "8"],
    ["experiment", "chernoff", "--in", "inst.json", "--diagonal"],
    ["experiment", "chernoff", "--in", "inst.json", "--threads", "2"],
], ids="_".join)
def test_unread_options_are_refused(argv, capsys):
    # every other argument is valid, so only the named option is refused
    if argv[1] in ("diagonal", "gaussian"):
        argv = argv + ["--n", "2", "--delta", "0.5"]
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_policy_override_echoed(tmp_path):
    inst = str(tmp_path / "i.json")
    rep = str(tmp_path / "r.json")
    pol = tmp_path / "pol.json"
    pol.write_text('{"partition_slack": 2e-07}\n')
    assert main(["gen", "diagonal", "--n", "2", "--delta", "0.5",
                 "--out", inst]) == 0
    assert main(["partition", "--in", inst, "--numeric-policy", str(pol),
                 "--out", rep]) == 0
    assert read_report(rep)["numeric_policy"]["partition_slack"] == 2e-07


def test_stdout_streaming(tmp_path, monkeypatch, capsys):
    assert main(["gen", "diagonal", "--n", "1", "--delta", "1.0",
                 "--out", "-"]) == 0
    text = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rep = str(tmp_path / "rep.json")
    assert main(["partition", "--in", "-", "--out", rep]) == 0
    assert read_report(rep)["payload"]["within_bound"] is True


def test_report_determinism_across_threads(tmp_path, capsys):
    # partition runs on one thread: --threads 1 is the default, 2 is refused
    inst = str(tmp_path / "inst.json")
    assert main(["gen", "diagonal", "--n", "2", "--delta", "0.5",
                 "--out", inst]) == 0
    blobs = []
    for flag in ([], ["--threads", "1"]):
        rep = str(tmp_path / f"rep{len(flag)}.json")
        assert main(["partition", "--in", inst, *flag,
                     "--trace", "--out", rep]) == 0
        blobs.append(canonical_bytes(rep))
    assert blobs[0] == blobs[1]
    assert main(["partition", "--in", inst, "--threads", "2",
                 "--out", str(tmp_path / "rep2.json")]) == 2
    assert "--threads: invalid choice" in capsys.readouterr().err


def test_every_report_kind_writes_json_bytes(tmp_path, monkeypatch):
    """The one-pass writer gives json's indented, key-sorted bytes for the
    document of every report kind, dataclasses and numpy values included."""
    docs = []

    def record(doc, path):
        docs.append(doc)
        write_json(doc, path)

    write_json = cli.write_json
    monkeypatch.setattr(cli, "write_json", record)
    gauss, k4, diag, ens = (str(tmp_path / name) for name in
                            ("gauss.json", "k4.json", "diag.json", "ens.json"))
    serialize.write_json(
        serialize.ensemble_to_dict(bernoulli_diagonal(2, 0.5)), ens)
    runs = [
        (["gen", "gaussian", "--n", "3", "--delta", "0.25", "--out", gauss], 0),
        (["gen", "graph", "--edges", write_k4(tmp_path), "--out", k4], 0),
        (["gen", "diagonal", "--n", "2", "--delta", "0.5", "--out", diag], 0),
        (["partition", "--in", gauss, "--r", "2"], 0),
        (["partition", "--in", gauss, "--r", "2", "--trace"], 0),
        (["partition", "--in", k4, "--r", "2"], 0),
        (["certify", "--in", gauss], 0),
        (["certify", "--in", diag, "--epsilon", "0.25"], 3),
        (["certify", "--in", diag, "--epsilon", "1e-14"], 3),
        (["mixed", "--in", ens, "--oracle"], 0),
    ]
    for argv, code in runs:
        out = argv if "--out" in argv else argv + ["--out", os.devnull]
        assert main(out) == code, argv
    assert len(docs) == len(runs)
    assert "spectral_check" in docs[5]["payload"]
    assert "trace" in docs[4]["payload"]
    assert docs[6]["payload"]["valid"] is True
    assert docs[7]["payload"]["aborted_at"] is None
    assert docs[8]["payload"]["aborted_at"] == 0
    for doc in docs:
        assert serialize.dumps(doc) == json.dumps(
            doc, indent=2, sort_keys=True, default=serialize._plain) + "\n"
