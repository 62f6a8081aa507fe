"""Acceptance gate: twelve end-to-end checks of the package's headline
guarantees at desk scale.

Each test funnels into a single printed `criterion NN PASS/FAIL` verdict
line (visible with -s, or in the failure report), so a full run reads as
one line per criterion.  Expected values come from independent oracles:
closed forms, exhaustive enumeration, or hand arithmetic.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from kspart import (
    MixedInstance,
    barrier_value,
    bivariate_fixture,
    build_certificate,
    cohen_inequality_check,
    descend,
    ensemble_instance,
    exhaustive_minimum,
    expected_char_poly_bruteforce,
    gen_diagonal,
    gen_from_graph,
    gen_gaussian,
    is_real_rooted,
    largest_root,
    lemma_barrier_check,
    mixed_char_poly,
    monotonicity_convexity_probe,
    partition,
    roots,
    separate_check,
    shrunk_power_largest_root,
)
from kspart import Graph, serialize
from kspart.cli import main

from test_mixedchar import bernoulli_diagonal, random_ensemble, \
    random_rank1_isotropic
from test_realpoly import FIGURE_CUBICS


def _verdict(num, label, ok, detail=""):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {label}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def ensemble_batch():
    """100 random ensembles with both polynomial routes, shared by the
    agreement and real-rootedness criteria."""
    rng = np.random.default_rng(20260822)
    t0 = time.perf_counter()
    batch = []
    for _ in range(100):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        e = random_ensemble(rng, d, m, 3)
        brute = expected_char_poly_bruteforce(e)
        mixed = mixed_char_poly(ensemble_instance(e))
        batch.append((brute, mixed))
    return batch, time.perf_counter() - t0


def test_criterion_01_diagonal_expected_polynomial():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        want = np.polynomial.polynomial.polyfromroots([0.5] * n)
        for delta in (1.0, 0.5, 1.0 / 3.0):
            e = bernoulli_diagonal(n, delta)
            brute = expected_char_poly_bruteforce(e)
            mixed = mixed_char_poly(ensemble_instance(e))
            worst = max(worst, float(np.max(np.abs(brute - want))),
                        float(np.max(np.abs(mixed - want))))
    elapsed = time.perf_counter() - t0
    _verdict(1, "both routes give (x - 1/2)^n on diagonal ensembles",
             worst <= 1e-12 and elapsed < 1.0,
             f"max coeff dev {worst:.2e} (tol 1e-12), {elapsed:.2f}s < 1s")


def test_criterion_02_mixed_equals_expected(ensemble_batch):
    batch, elapsed = ensemble_batch
    worst = 0.0
    for brute, mixed in batch:
        scale = max(1.0, float(np.max(np.abs(brute))))
        worst = max(worst, float(np.max(np.abs(brute - mixed))) / scale)
    _verdict(2, "100 random ensembles agree across both routes",
             worst <= 1e-9 and elapsed < 30.0,
             f"max rel dev {worst:.2e} (tol 1e-9), {elapsed:.1f}s < 30s")


def test_criterion_03_real_rootedness(ensemble_batch):
    batch, _ = ensemble_batch
    ok = all(is_real_rooted(mixed).real_rooted for _, mixed in batch)
    rng = np.random.default_rng(301)
    checked = 0
    for _ in range(50):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        mats = []
        for _ in range(m):
            r = int(rng.integers(1, d + 1))
            b = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
            mats.append(0.25 * b @ b.conj().T)
        mu = mixed_char_poly(MixedInstance(d, tuple(mats)))
        ok = ok and is_real_rooted(mu).real_rooted
        checked += 1
    # (x-1)^2 + (x+1)^2 = 2x^2 + 2 must be rejected
    non_example = not is_real_rooted([2.0, 0.0, 2.0]).real_rooted
    _verdict(3, "every mixed polynomial real-rooted, non-example rejected",
             ok and checked == 50 and non_example,
             "tol 1e-7 relative imaginary part")


def test_criterion_04_descent_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    ok = True
    worst_gap = -math.inf
    for _ in range(50):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 7))
        e = random_ensemble(rng, d, m, 3)
        leaves = 1
        for v in e.vectors:
            leaves *= len(v.probabilities)
        assert leaves <= 2 ** 14
        _, best = exhaustive_minimum(e)
        trace = descend(e)
        seq = [trace.root_of_empty] + [s.chosen_root for s in trace.steps]
        ok = ok and all(seq[k + 1] <= seq[k] + 1e-8 for k in range(len(seq) - 1))
        ok = ok and best <= trace.final_root + 1e-12
        ok = ok and trace.final_root <= trace.root_of_empty + 1e-8
        worst_gap = max(worst_gap, trace.final_root - trace.root_of_empty)
    elapsed = time.perf_counter() - t0
    _verdict(4, "exhaustive <= descent <= empty-prefix root, levels monotone",
             ok and elapsed < 60.0,
             f"50 cases, worst final-vs-root gap {worst_gap:.2e} "
             f"(tol 1e-8), {elapsed:.1f}s < 60s")


def _diagonal_optimum(n, delta, r):
    """Enumerate every r-part assignment of the diagonal instance; the part
    sums are diagonal, so the norm is delta times the largest count of any
    one direction inside a part."""
    copies = round(1.0 / delta)
    m = n * copies
    best = math.inf
    for assign in itertools.product(range(r), repeat=m):
        worst = 0
        for k in range(r):
            for i in range(n):
                c = sum(1 for j in range(i * copies, (i + 1) * copies)
                        if assign[j] == k)
                worst = max(worst, c)
        best = min(best, worst)
    return best * delta


def test_criterion_05_partition_bound():
    ok = True
    details = []
    diagonal_cases = [(2, 0.5, 2), (3, 1.0 / 3.0, 2), (3, 1.0 / 3.0, 3)]
    for n, delta, r in diagonal_cases:
        rep = partition(gen_diagonal(n, delta), r)
        achieved = max(rep.part_norms)
        ok = ok and rep.within_bound
        ok = ok and achieved <= rep.bound_general + 1e-7
        opt = _diagonal_optimum(n, delta, r)
        # descent must land on the enumerated optimum; the ideal 1/2 split
        # is demanded exactly where enumeration proves one exists
        ok = ok and abs(achieved - opt) <= 1e-9
        if opt <= 0.5:
            ok = ok and achieved <= 0.5 + 1e-9
        details.append(f"diag({n},{delta:.3g}) r={r}: {achieved:.4f}"
                       f" opt {opt:.4f}")
    k4 = Graph(4, tuple((a, b, 1.0) for a in range(4)
                        for b in range(a + 1, 4)))
    inst, _ = gen_from_graph(k4)
    rep = partition(inst, 2)
    ok = ok and rep.within_bound and max(rep.part_norms) <= rep.bound_general + 1e-7
    details.append(f"K4 r=2: {max(rep.part_norms):.4f}")
    for s in range(10):
        d = 2 + s % 2
        delta = (0.5, 1.0 / 3.0, 0.25)[s % 3]
        rep = partition(gen_gaussian(d, delta, seed=500 + s), 2)
        ok = ok and rep.within_bound
        ok = ok and max(rep.part_norms) <= rep.bound_general + 1e-7
    _verdict(5, "every part norm within (1/sqrt(r) + sqrt(delta))^2",
             ok, "; ".join(details) + "; 10 random instances (tol 1e-7)")


def test_criterion_06_barrier_root_bound():
    rng = np.random.default_rng(606)
    ok = True
    worst = -math.inf
    for _ in range(50):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(d, 10))
        inst = random_rank1_isotropic(rng, d, m)
        eps = max(float(np.trace(a).real) for a in inst.matrices)
        top = largest_root(mixed_char_poly(inst))
        margin = top - (1.0 + math.sqrt(eps)) ** 2
        worst = max(worst, margin)
        ok = ok and margin <= 1e-7
    certs = 0
    for s in range(6):
        d = 2 + s % 2
        m = (6, 8, 9, 10, 11, 12)[s]
        inst = random_rank1_isotropic(np.random.default_rng(660 + s), d, m)
        cert = build_certificate(inst)
        ok = ok and cert.valid
        ok = ok and all(st.max_barrier <= cert.phi + 1e-9 for st in cert.steps)
        certs += 1
    _verdict(6, "largest root of mu within (1 + sqrt(eps))^2, "
                "certificates keep Phi <= phi",
             ok and certs == 6,
             f"50 instances, worst margin {worst:.2e} (tol 1e-7); "
             f"6 certificates m <= 12")


def test_criterion_07_barrier_trace_identity():
    from kspart import DeterminantEvaluator
    rng = np.random.default_rng(707)
    ok = True
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(d, 7))
        inst = random_rank1_isotropic(rng, d, m)
        ev = DeterminantEvaluator(inst.matrices)
        for t in (0.7, 1.3, 2.5):
            z = np.full(m, t)
            for i in range(m):
                want = float(np.trace(inst.matrices[i]).real) / t
                dev = abs(barrier_value(ev, z, i) - want) / (1.0 + want)
                worst = max(worst, dev)
                ok = ok and dev <= 1e-10
    _verdict(7, "barrier at t*(1,...,1) equals tr(A_i)/t",
             ok, f"worst rel dev {worst:.2e} (tol 1e-10)")


def test_criterion_08_fixture_checks():
    fx = bivariate_fixture()
    hand = np.array([
        [-13.0, -11.0, 11.0, 1.0],
        [-17.0, 3.0, 13.0, 0.0],
        [0.0, 8.0, 0.0, 0.0],
    ])
    exact = np.array_equal(fx.q.coeffs, hand)
    z = (3.0, 3.0)
    deltas = np.linspace(0.05, 4.0, 20)
    probes = all(
        monotonicity_convexity_probe(fx.p, z, i, j, deltas).passed
        for i in (0, 1) for j in (0, 1))
    phi = barrier_value(fx.p, z, 1)
    shift = lemma_barrier_check(fx.p, z, 1, 1.0 / (1.0 - phi))
    _verdict(8, "fixture derivative exact, probes and shift lemma pass",
             exact and probes and shift.passed,
             f"20 probe points; delta = 1/(1 - {phi:.4f})")


def test_criterion_09_laguerre_interval():
    t0 = time.perf_counter()
    top = shrunk_power_largest_root(50, 250, 0.1 / 50.0)
    elapsed = time.perf_counter() - t0
    sd = math.sqrt(0.2)
    lo = 0.5 * (1.0 - sd) ** 2 - 0.05
    hi = 0.5 * (1.0 + sd) ** 2 + 0.05
    _verdict(9, "half-sample shrunk power root inside the edge interval",
             lo <= top <= hi and elapsed < 5.0,
             f"root {top:.6f} in [{lo:.6f}, {hi:.6f}], {elapsed:.2f}s < 5s")


def test_criterion_10_deterministic_vs_expected_root():
    rng = np.random.default_rng(1010)
    ok = True
    worst = -math.inf
    for _ in range(50):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        mats = []
        for _ in range(m):
            r = int(rng.integers(1, d + 1))
            b = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
            mats.append(0.25 * b @ b.conj().T)
        rep = cohen_inequality_check(MixedInstance(d, tuple(mats)))
        ok = ok and rep.holds
        ok = ok and rep.sum_largest_root <= rep.mixed_largest_root + 1e-8
        worst = max(worst, rep.sum_largest_root - rep.mixed_largest_root)
    _verdict(10, "largest root of the sum at most that of mu",
             ok, f"50 instances, worst margin {worst:.2e} (tol 1e-8)")


def test_criterion_11_window_separation():
    rep = separate_check(FIGURE_CUBICS, 1.0, 5.0)
    total = np.sum(FIGURE_CUBICS, axis=0)
    window_roots = [r for r in roots(total).expand() if 1.0 <= r <= 5.0]
    want = (2.0 + math.sqrt(46.0)) / 3.0
    ok = (rep.ok and len(window_roots) == 1
          and 2.0 <= rep.sum_root <= 4.0
          and abs(rep.sum_root - want) <= 1e-8
          and abs(rep.sum_root - 2.927) <= 5e-4)
    _verdict(11, "cubic sum has exactly one window root between the extremes",
             ok, f"root {rep.sum_root:.6f} ~ 2.927 in [2, 4]")


def _canonical(path):
    with open(path) as fh:
        doc = json.load(fh)
    doc["wall_time_s"] = 0.0
    return serialize.dumps(doc).encode()


def test_criterion_12_thread_determinism(tmp_path):
    ens_path = str(tmp_path / "ens.json")
    serialize.write_json(serialize.ensemble_to_dict(
        random_ensemble(np.random.default_rng(77), 3, 4, 3)), ens_path)
    blobs = []
    for threads in ("1", "2", "8"):
        rep = str(tmp_path / f"mixed-{threads}.json")
        assert main(["mixed", "--in", ens_path, "--oracle", "--threads",
                     threads, "--out", rep]) == 0
        blobs.append(_canonical(rep))
    ok = blobs[0] == blobs[1] == blobs[2]
    _verdict(12, "reports byte-identical at 1, 2, and 8 threads",
             ok, "mixed --oracle, the one command that maps work over "
                 "threads; wall time excluded")
