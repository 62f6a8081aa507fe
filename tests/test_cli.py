"""Command-line harness: pipelines over files, exit codes, seeds, and the
determinism contract on reports."""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from kspart import serialize
from kspart.cli import main

from test_mixedchar import bernoulli_diagonal


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


def test_partition_descent_abort_exits_3(tmp_path):
    inst = str(tmp_path / "inst.json")
    pol = tmp_path / "policy.json"
    pol.write_text('{"descent_slack": -1.0}\n')
    assert main(["gen", "diagonal", "--n", "2", "--delta", "0.5",
                 "--out", inst]) == 0
    assert main(["partition", "--in", inst, "--numeric-policy",
                 str(pol)]) == 3


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


def test_certify_rank_two_exits_4(tmp_path):
    from kspart import FiniteSupportVector, RandomVectorEnsemble
    v = FiniteSupportVector([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
    ens = str(tmp_path / "rank2.json")
    serialize.write_json(
        serialize.ensemble_to_dict(RandomVectorEnsemble(2, (v,))), ens)
    assert main(["certify", "--in", ens]) == 4


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


def test_chernoff_diagonal_shortcut(tmp_path):
    out_csv = str(tmp_path / "t.csv")
    assert main(["experiment", "chernoff", "--diagonal", "--n", "2",
                 "--delta", "0.5", "--trials", "10", "--seed", "1",
                 "--csv", out_csv]) == 0
    with open(out_csv) as fh:
        assert len(list(csv.reader(fh))) == 11
    assert main(["experiment", "chernoff", "--diagonal", "--trials", "1"]) == 2


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


def test_ks_seed_env_fallback(tmp_path, monkeypatch):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    monkeypatch.setenv("KS_SEED", "7")
    assert main(["gen", "gaussian", "--n", "3", "--delta", "0.5",
                 "--out", a]) == 0
    monkeypatch.delenv("KS_SEED")
    assert main(["gen", "gaussian", "--n", "3", "--delta", "0.5",
                 "--seed", "7", "--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


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


def test_report_determinism_across_threads(tmp_path):
    inst = str(tmp_path / "inst.json")
    assert main(["gen", "diagonal", "--n", "2", "--delta", "0.5",
                 "--out", inst]) == 0
    blobs = []
    for threads in ("1", "2", "8"):
        rep = str(tmp_path / f"rep{threads}.json")
        assert main(["partition", "--in", inst, "--seed", "0",
                     "--threads", threads, "--trace", "--out", rep]) == 0
        blobs.append(canonical_bytes(rep))
    assert blobs[0] == blobs[1] == blobs[2]
