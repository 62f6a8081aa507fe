"""Instance generators, the r-block lifting, partition extraction against
its norm guarantee, graph spectral comparisons, and the random-partition
Monte-Carlo baseline."""

import functools
import gc
import json
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from kspart import (
    DEFAULT_POLICY,
    CapacityError,
    Graph,
    ValidationError,
    WeaverInstance,
    block_node_poly,
    conditional_expected_poly,
    descend,
    exhaustive_minimum,
    gen_diagonal,
    gen_from_graph,
    gen_gaussian,
    improved_bound_r2,
    lift,
    measured_delta,
    normalize_isotropy,
    partition,
    random_partition_experiment,
    spectral_approx_check,
    validate,
)
from kspart import exterior, interlace, mixedchar, realpoly, weaver
from kspart.serialize import partition_report_to_dict
from kspart.weaver import laplacian

from test_mixedchar import haar_unitary, no_kernels


K4_EDGES = tuple((a, b, 1.0) for a in range(4) for b in range(a + 1, 4))


@pytest.fixture
def lattice_engine(monkeypatch):
    """``partition`` and ``block_node_poly`` on the lattice engine."""
    monkeypatch.setattr(weaver, "_picks_states", lambda lattice, states: False)


def test_gen_diagonal_shapes_and_values():
    one = gen_diagonal(1, 1.0)
    assert one.count == 1 and np.allclose(one.vectors, [[1.0]])

    inst = gen_diagonal(2, 0.5)
    assert inst.count == 4
    assert np.allclose(inst.norms_squared(), 0.5)
    assert np.allclose(inst.frame_matrix(), np.eye(2), atol=1e-12)

    assert gen_diagonal(3, 1.0 / 3.0).count == 9
    with pytest.raises(ValidationError):
        gen_diagonal(2, 0.3)  # 1/delta not an integer


def test_validate_reports():
    basis = WeaverInstance(2, np.eye(2), 1.0)
    assert validate(basis).valid

    rep = validate(gen_diagonal(2, 0.5))
    assert rep.valid and abs(rep.max_norm_sq - 0.5) < 1e-12

    scaled = WeaverInstance(2, 1.1 * gen_diagonal(2, 0.5).vectors, 1.0)
    rep = validate(scaled)
    assert not rep.valid
    assert abs(rep.isotropy_deviation - 0.21) < 1e-9


def test_measured_delta_and_repair():
    inst = gen_diagonal(2, 0.5)
    assert abs(measured_delta(inst) - 0.5) < 1e-12

    drifted = WeaverInstance(2, (1.0 + 2e-5) * inst.vectors, 1.0)
    fixed = normalize_isotropy(drifted)
    assert validate(fixed).isotropy_deviation <= 1e-9

    broken = WeaverInstance(2, 1.1 * inst.vectors, 1.0)
    with pytest.raises(ValidationError):
        normalize_isotropy(broken)


def test_gen_gaussian_isotropic_by_construction():
    inst = gen_gaussian(4, 0.25, seed=0)
    rep = validate(inst)
    assert rep.valid and rep.isotropy_deviation <= 1e-9
    # renormalized norm ceiling stays within the loose constant-factor band
    assert measured_delta(inst) <= 10 * 0.25

    single = gen_gaussian(1, 0.5, seed=3)
    assert abs(np.sum(single.norms_squared()) - 1.0) < 1e-9

    with pytest.raises(ValidationError):
        gen_gaussian(4, 2.0)  # would draw fewer vectors than dimensions


def test_graph_parsing_and_validation():
    g = Graph.from_edge_text("0 1 1.0\n1 2 2.0\n")
    assert g.n == 3 and len(g.edges) == 2
    with pytest.raises(ValidationError):
        Graph(2, ((0, 0, 1.0),))  # self-loop
    with pytest.raises(ValidationError):
        Graph(2, ((0, 1, -1.0),))
    # weight defaults to 1 when omitted
    assert Graph.from_edge_text("0 1\n").edges == ((0, 1, 1.0),)
    with pytest.raises(ValidationError):
        Graph.from_edge_text("0 1 2.0 9\n")
    with pytest.raises(ValidationError):
        Graph.from_edge_text("# only a comment\n")


def test_gen_from_graph_leverages():
    inst, basis = gen_from_graph(Graph(2, ((0, 1, 1.0),)))
    assert inst.dim == 1
    assert np.allclose(np.abs(inst.vectors), [[1.0]], atol=1e-12)

    k3 = Graph(3, tuple((a, b, 1.0) for a in range(3) for b in range(a + 1, 3)))
    inst, _ = gen_from_graph(k3)
    assert inst.dim == 2 and inst.count == 3
    assert np.allclose(inst.norms_squared(), 2.0 / 3.0, atol=1e-12)

    inst, _ = gen_from_graph(Graph(4, K4_EDGES))
    assert inst.dim == 3 and inst.count == 6
    assert np.allclose(inst.norms_squared(), 0.5, atol=1e-12)
    assert validate(inst).valid
    # trace identity: leverage scores sum to n - 1
    assert abs(float(np.sum(inst.norms_squared())) - 3.0) < 1e-8

    with pytest.raises(ValidationError):
        gen_from_graph(Graph(4, ((0, 1, 1.0), (2, 3, 1.0))))  # two components


def test_lift_structure():
    u = np.array([[0.8]])
    inst = WeaverInstance(1, u / np.sqrt(0.64), 1.0)  # single unit vector
    e = lift(inst, 2)
    assert e.dim == 2
    v = e.vectors[0]
    assert np.allclose(v.probabilities, [0.5, 0.5])
    want0 = np.array([np.sqrt(2.0), 0.0])
    want1 = np.array([0.0, np.sqrt(2.0)])
    assert np.allclose(v.values[0], want0, atol=1e-12)
    assert np.allclose(v.values[1], want1, atol=1e-12)


def test_lift_covariances_resolve_identity():
    for r in (2, 3):
        inst = gen_diagonal(2, 0.5)
        e = lift(inst, r)
        total = np.zeros((2 * r, 2 * r), dtype=np.complex128)
        from kspart import covariance
        for v in e.vectors:
            total += covariance(v)
            atom_norms = np.sum(np.abs(v.values) ** 2, axis=1)
            assert np.all(atom_norms <= r * 0.5 + 1e-10)
        assert np.max(np.abs(total - np.eye(2 * r))) <= 1e-9


def test_partition_diagonal_half():
    rep = partition(gen_diagonal(2, 0.5), 2)
    assert rep.within_bound
    assert abs(rep.bound_general - 2.0) < 1e-12
    assert abs(rep.bound_r2_improved - 1.0) < 1e-12
    assert max(rep.part_norms) <= 0.5 + 1e-9
    assert sorted(len(p) for p in rep.parts) == [2, 2]
    assert abs(rep.root_of_empty - (1.0 + 1.0 / math.sqrt(2.0))) < 1e-7
    # parts re-derive their norms
    inst = gen_diagonal(2, 0.5)
    for part, norm in zip(rep.parts, rep.part_norms):
        s = np.zeros((2, 2), dtype=np.complex128)
        for i in part:
            s += np.outer(inst.vectors[i], inst.vectors[i].conj())
        assert abs(float(np.linalg.eigvalsh(s)[-1]) - norm) < 1e-9


def test_partition_diagonal_thirds():
    rep2 = partition(gen_diagonal(3, 1.0 / 3.0), 2)
    assert rep2.within_bound
    # nine vectors across two parts: some direction doubles up
    assert abs(max(rep2.part_norms) - 2.0 / 3.0) < 1e-9

    rep3 = partition(gen_diagonal(3, 1.0 / 3.0), 3)
    assert rep3.within_bound
    assert max(rep3.part_norms) <= 1.0 / 3.0 + 1e-9
    assert sorted(len(p) for p in rep3.parts) == [3, 3, 3]


def test_partition_orthonormal_basis():
    rep = partition(WeaverInstance(2, np.eye(2), 1.0), 2)
    assert rep.within_bound
    assert abs(max(rep.part_norms) - 1.0) < 1e-9
    assert abs(rep.bound_general - (1.0 / math.sqrt(2.0) + 1.0) ** 2) < 1e-12


def test_partition_k4():
    inst, basis = gen_from_graph(Graph(4, K4_EDGES))
    rep = partition(inst, 2)
    assert rep.within_bound
    assert sorted(len(p) for p in rep.parts) == [3, 3]
    assert np.allclose(rep.part_norms, (2.0 + math.sqrt(2.0)) / 4.0, atol=1e-9)


def test_improved_bound_r2_values():
    assert abs(improved_bound_r2(0.5) - 1.0) < 1e-12
    assert abs(improved_bound_r2(0.0) - 0.5) < 1e-12
    assert abs(improved_bound_r2(0.25) - (0.5 + math.sqrt(3.0) / 4.0)) < 1e-12
    with pytest.raises(ValidationError):
        improved_bound_r2(0.6)


def test_spectral_approx_identity_and_scaling():
    g = Graph(4, K4_EDGES)
    k1, k2 = spectral_approx_check(g, g)
    assert abs(k1 - 1.0) < 1e-10 and abs(k2 - 1.0) < 1e-10

    doubled = Graph(4, tuple((a, b, 2.0 * w) for a, b, w in K4_EDGES))
    k1, k2 = spectral_approx_check(g, doubled)
    assert abs(k1 - 0.5) < 1e-10 and abs(k2 - 0.5) < 1e-10


def test_spectral_approx_partition_half():
    g = Graph(4, K4_EDGES)
    inst, basis = gen_from_graph(g)
    rep = partition(inst, 2)
    part = rep.parts[int(np.argmax(rep.part_norms))]
    half = Graph(4, tuple((K4_EDGES[i][0], K4_EDGES[i][1], 2.0)
                          for i in part))
    k1, k2 = spectral_approx_check(g, half)
    assert abs(k1 - (2.0 - math.sqrt(2.0))) < 1e-9
    assert abs(k2 - (2.0 + math.sqrt(2.0))) < 1e-9
    # the worse constant matches r * max part norm
    assert abs(k2 / 2.0 - 2.0 * max(rep.part_norms)) < 1e-9


def test_laplacian_values():
    g = Graph(2, ((0, 1, 3.0),))
    assert np.allclose(laplacian(g), [[3.0, -3.0], [-3.0, 3.0]])


def test_experiment_scalar_inclusion_frequencies():
    inst = gen_diagonal(1, 0.5)
    stats = random_partition_experiment(inst, r=2, trials=2000, seed=5)
    assert stats.analytic_mono_free is not None
    assert abs(stats.analytic_mono_free - 0.75) < 1e-12
    sigma = math.sqrt(0.75 * 0.25 / 2000.0)
    assert abs(stats.mono_free_frequency - 0.75) <= 3.0 * sigma
    assert stats.max_norms.shape == (2000,)


def test_experiment_zero_trials_and_determinism():
    inst = gen_diagonal(2, 0.5)
    empty = random_partition_experiment(inst, trials=0)
    assert empty.trials == 0 and empty.success_frequency is None
    a = random_partition_experiment(inst, trials=64, seed=9)
    b = random_partition_experiment(inst, trials=64, seed=9)
    assert np.array_equal(a.max_norms, b.max_norms)
    assert np.array_equal(a.mono_free, b.mono_free)


def test_experiment_gaussian_concentrates():
    inst = gen_gaussian(8, 0.25, seed=1)
    stats = random_partition_experiment(inst, trials=100, seed=2)
    assert stats.mono_free is None  # not a diagonal instance
    assert stats.success_frequency >= 0.5


def block_instances():
    diag = gen_diagonal(3, 1.0 / 3.0)
    return {
        "gauss": gen_gaussian(3, 0.25, seed=0),
        "k5": gen_from_graph(Graph(5, tuple(
            (a, b, 1.0) for a in range(5) for b in range(a + 1, 5))))[0],
        "haar-diag": WeaverInstance(
            3, diag.vectors @ haar_unitary(3, np.random.default_rng(5)).T,
            diag.delta),
        "diag": gen_diagonal(2, 0.5),
    }


def relative_deviation(got, want):
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want, float)))
                 / np.max(np.abs(np.asarray(want, float))))


def test_block_node_poly_matches_lifted_oracle():
    rng = np.random.default_rng(0)
    for r in (2, 3, 4):
        for name, inst in block_instances().items():
            e = lift(inst, r)
            for k in range(inst.count + 1):
                prefix = tuple(int(t) for t in rng.integers(0, r, size=k))
                got = block_node_poly(inst, prefix, r)
                want = float(r) ** k * conditional_expected_poly(e, prefix)
                assert got[-1] == 1.0 and got.shape == want.shape
                dev = relative_deviation(got, want)
                assert dev <= 1e-12, (r, name, prefix, dev)
    with pytest.raises(ValidationError):
        block_node_poly(gen_diagonal(1, 0.5), (0, 2), 2)
    with pytest.raises(ValidationError):
        block_node_poly(gen_diagonal(1, 0.5), (), 0)


def exact_char_poly(a):
    """det(xI - A) of a Fraction matrix, ascending, by Faddeev-LeVerrier,
    which divides only by integers."""
    d = len(a)
    coeffs = [Fraction(0)] * d + [Fraction(1)]
    b = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        mk = [[sum(a[i][t] * b[t][j] for t in range(d)) for j in range(d)]
              for i in range(d)]
        coeffs[d - k] = c = -sum(mk[i][i] for i in range(d)) / k
        b = [[mk[i][j] + (c if i == j else 0) for j in range(d)]
             for i in range(d)]
    return coeffs


def exact_node_poly(outers, prefix, r):
    """r^k E det(xI - lifted sum) at a prefix of length k, in Fractions:
    the mean over all r^n labellings of the n unpinned vectors of
    prod_b chi(r sum_{i labelled b} A_i)."""
    m, d = len(outers), len(outers[0])
    blocks = {}

    def chi(members):
        if members not in blocks:
            blocks[members] = exact_char_poly(
                [[sum((r * outers[i][p][q] for i in members), Fraction(0))
                  for q in range(d)] for p in range(d)])
        return blocks[members]

    total = [Fraction(0)] * (r * d + 1)
    for rest in product(range(r), repeat=m - len(prefix)):
        labels = tuple(prefix) + rest
        poly = [Fraction(1)]
        for b in range(r):
            block = chi(tuple(i for i in range(m) if labels[i] == b))
            poly = [sum(poly[j] * block[t - j] for j in range(len(poly))
                        if 0 <= t - j < len(block))
                    for t in range(len(poly) + len(block) - 1)]
        total = [x + y for x, y in zip(total, poly)]
    return [x / r ** (m - len(prefix)) for x in total]


def cayley(skew):
    """The rational rotation (I + S)^-1 (I - S) of an integer skew S."""
    d = len(skew)
    eye = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    rows = [[eye[i][j] + skew[i][j] for j in range(d)] + eye[i]
            for i in range(d)]
    for c in range(d):  # Gauss-Jordan; I + S is invertible for skew S
        p = next(i for i in range(c, d) if rows[i][c] != 0)
        rows[c], rows[p] = rows[p], [x / rows[p][c] for x in rows[p]]
        for i in range(d):
            if i != c:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[c])]
    return [[sum(rows[i][d + t] * (eye[t][j] - skew[t][j]) for t in range(d))
             for j in range(d)] for i in range(d)]


def rational_diagonal(skew=None):
    """diag(3, 1/3) in dimension d = len(skew), or 3 without a skew: three
    copies of each e_j / sqrt(3), rotated by the Cayley transform of skew;
    the exact outer products and the instance."""
    d = len(skew) if skew else 3
    q = cayley(skew) if skew else [[Fraction(int(i == j)) for j in range(d)]
                                   for i in range(d)]
    cols = [j for j in range(d) for _ in range(3)]
    outers = [[[q[p][c] * q[t][c] / 3 for t in range(d)] for p in range(d)]
              for c in cols]
    vecs = np.array([[float(q[p][c]) for p in range(d)] for c in cols])
    return outers, WeaverInstance(d, vecs / math.sqrt(3.0), 1.0 / 3.0)


@functools.cache
def exact_cases():
    """(skew, r, prefix, instance, exact node polynomial) on diag(3, 1/3),
    unrotated and rotated by a Cayley transform: r = 2 with at most 9
    unpinned vectors and r = 3 with at most 6.  Then ("gauss", 4, ...) on
    gauss(3, 1/4) with at most 4: its vectors are real, so the Fractions of
    their floats are exact; the first two prefixes are the lifted oracle
    test's worst at r = 4, where that oracle is 6.7e-13 and 6.0e-13 off."""
    rng = np.random.default_rng(1)
    cases = []
    for skew in (None, [[0, 2, -1], [-2, 0, 4], [1, -4, 0]]):
        outers, inst = rational_diagonal(skew)
        for r, most in ((2, 9), (3, 6)):
            for k in range(inst.count - most, inst.count + 1):
                prefix = tuple(int(t) for t in rng.integers(0, r, size=k))
                cases.append((skew, r, prefix, inst,
                              exact_node_poly(outers, prefix, r)))
    inst = gen_gaussian(3, 0.25, seed=0)
    assert not inst.vectors.imag.any()
    exact = [[Fraction(float(x)) for x in u.real] for u in inst.vectors]
    outers = [[[a * b for b in u] for a in u] for u in exact]
    for prefix in [(3, 3, 0, 0, 2, 1, 2, 2, 1), (1, 2, 2, 0, 2, 2, 3, 2)] + [
            tuple(int(t) for t in rng.integers(0, 4, size=k))
            for k in range(inst.count - 4, inst.count + 1)]:
        cases.append(("gauss", 4, prefix, inst,
                      exact_node_poly(outers, prefix, 4)))
    return cases


def test_block_node_poly_matches_exact_oracle(lattice_engine):
    for skew, r, prefix, inst, want in exact_cases():
        dev = relative_deviation(block_node_poly(inst, prefix, r), want)
        assert dev <= 1e-13, (skew, r, prefix, dev)


def test_state_nodes_match_exact_oracle():
    # within 1e-12 of the largest exact coefficient, unshifted
    for skew, r, prefix, inst, want in exact_cases():
        got = exterior._state_node(inst.vectors, prefix, r, 0.0)
        assert got[-1] == 1.0 and got.shape == (r * inst.dim + 1,)
        dev = relative_deviation(got, want)
        assert dev <= 1e-12, (skew, r, prefix, dev)


def test_state_nodes_match_lattice_nodes(lattice_engine):
    # the Haar-rotated instance is complex: l stays complex until the
    # contraction's real part (taking l's real part first is 1.3e-2 off)
    rng = np.random.default_rng(2)
    for r in (2, 3):
        for name, inst in block_instances().items():
            m = inst.count
            for k in sorted({0, 1, m // 2, m - 1}):
                prefix = tuple(int(t) for t in rng.integers(0, r, size=k))
                want = block_node_poly(inst, prefix, r)
                got = exterior._state_node(inst.vectors, prefix, r, 0.0)
                dev = relative_deviation(got, want)
                assert dev <= 1e-12, (r, name, prefix, dev)


def test_shifted_state_nodes_are_nodes_in_x_minus_one():
    # mu(x) = sum_j c_j (x - 1)^j: composed with x - 1, the shifted
    # coefficients give the unshifted ones
    u = block_instances()["haar-diag"].vectors
    poly = np.polynomial.Polynomial
    for r, prefix in ((2, ()), (2, (1, 0, 1)), (3, (2, 0))):
        shifted = exterior._state_node(u, prefix, r, exterior.SHIFT)
        plain = exterior._state_node(u, prefix, r, 0.0)
        expanded = poly(shifted)(poly([-1.0, 1.0])).coef
        assert relative_deviation(expanded, plain) <= 1e-13, (r, prefix)
        # the mean root is 1: the t^(rd - 1) coefficient vanishes
        assert abs(shifted[-2]) <= 1e-13, (r, prefix)


def all_minors_ell(bases, shift):
    """l(P) of each base by the all-minors formula, one ``det`` for each
    minor of Q of every size and the complement polynomials built one root
    at a time: (-1)^(|J| + sum J + sum K) sum_L det Q[J^c, L] conj det
    Q[K^c, L] prod_{l in L} (t - mu_l), with the minors of size d taken as
    1, in ``exterior._exterior``'s coordinate order."""
    d = bases.shape[-1]
    full = (1 << d) - 1
    out = []
    for base in bases:
        lam, q = np.linalg.eigh(base)
        comp = weaver._complement_polys(lam - shift)  # roots outside M

        @functools.cache
        def minor(rows, cols):
            if len(rows) in (0, d):
                return 1.0
            return np.linalg.det(q[np.ix_(rows, cols)])

        coords = []
        for g in range(d + 1):
            for j, k in product(combinations(range(d), g), repeat=2):
                jc, kc = (tuple(x for x in range(d) if x not in y)
                          for y in (j, k))
                terms = [minor(jc, ls) * np.conj(minor(kc, ls))
                         * comp[full ^ sum(1 << x for x in ls)]
                         for ls in combinations(range(d), d - g)]
                coords.append((-1.0) ** (g + sum(j) + sum(k)) * sum(terms))
        out.append(coords)
    return np.array(out)


def ell_bases(d):
    """Bases of one dimension: zero, one pinned vector, full rank, a
    Haar-rotated complex spectrum and diag(3, 1/3) rotated, its two
    eigenvalues repeated."""
    rng = np.random.default_rng(40 + d)
    u = gen_gaussian(d, 1.0 / 3.0, seed=d).vectors
    haar = haar_unitary(d, rng)
    spread = haar @ np.diag(rng.uniform(0.0, 2.0, d)) @ haar.conj().T
    diag = np.diag([3.0, 1.0 / 3.0] * (d // 2) + [3.0] * (d % 2))
    repeated = haar @ diag @ haar.conj().T
    return np.stack([np.zeros((d, d)), 2.0 * np.outer(u[0], u[0].conj()),
                     3.0 * u.T @ u.conj(), spread, repeated])


@pytest.mark.parametrize("d", range(1, 7))
def test_ell_matches_the_all_minors_formula(d):
    # l reads only the minors of size <= d / 2, the larger ones by
    # Jacobi's complementary minors of the unitary Q
    bases = ell_bases(d)
    for shift in (0.0, exterior.SHIFT):
        got = exterior._ell(bases, shift)
        want = all_minors_ell(bases, shift)
        assert got.shape == (len(bases), math.comb(2 * d, d), d + 1)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w)), shift


def test_ell_of_state_nodes_and_walks_matches_the_all_minors_formula(
        monkeypatch):
    # every l block a fresh state node and the walk's levels form
    seen = []
    real = exterior._ell

    def record(bases, shift):
        seen.append((bases.copy(), shift, real(bases, shift)))
        return seen[-1][-1]

    monkeypatch.setattr(exterior, "_ell", record)
    monkeypatch.setattr(weaver, "_picks_states", lambda lattice, states: True)
    for name, inst in block_instances().items():
        exterior._state_node(inst.vectors, (1, 0, 1), 2, 0.0)
        partition(inst, 2)
    partition(block_instances()["haar-diag"], 3)
    assert {b.shape[-1] for b, _, _ in seen} == {2, 3, 4}
    for bases, shift, got in seen:
        want = all_minors_ell(bases, shift)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))


def laplace_ell(base, shift):
    """l(P) of one base in np.clongdouble, from P itself: (-1)^(|J| + sum J
    + sum K) det(tI + shift I - P)[J^c, K^c], each minor by Laplace
    expansion along its first row, its entries polynomials in t."""
    d = len(base)
    p = base.astype(np.clongdouble)

    def times(a, b):
        out = np.zeros(len(a) + len(b) - 1, dtype=np.clongdouble)
        for i, x in enumerate(a):
            out[i:i + len(b)] += x * b
        return out

    @functools.cache
    def minor(rows, cols):
        if not rows:
            return np.ones(1, dtype=np.clongdouble)
        out = np.zeros(len(rows) + 1, dtype=np.clongdouble)
        for c, col in enumerate(cols):
            entry = np.array([-p[rows[0], col], 0], dtype=np.clongdouble)
            if rows[0] == col:
                entry += [shift, 1]
            out += (-1) ** c * times(entry, minor(rows[1:],
                                                  cols[:c] + cols[c + 1:]))
        return out

    coords = []
    for g in range(d + 1):
        for j, k in product(combinations(range(d), g), repeat=2):
            jc, kc = (tuple(x for x in range(d) if x not in y)
                      for y in (j, k))
            poly = np.zeros(d + 1, dtype=np.clongdouble)
            poly[:d - g + 1] = minor(jc, kc)
            coords.append((-1) ** (g + sum(j) + sum(k)) * poly)
    return np.array(coords)


@pytest.mark.parametrize("d, m", [(2, 8000), (3, 8000), (4, 2000)])
def test_ell_is_no_less_accurate_than_the_all_minors_formula(d, m):
    # rank-deficient prefix bases at small delta, where the descents fail
    # today: against an np.clongdouble reference, the error relative to
    # max |l| over 30 prefixes is no larger than the all-minors formula's
    inst = gen_gaussian(d, d / m, seed=0)
    u = inst.vectors
    outers = np.einsum("mj,mk->mjk", u, u.conj())
    rng = np.random.default_rng(d)
    errors = {"new": 0.0, "all minors": 0.0}
    for _ in range(30):
        k = int(rng.integers(1, 2 * d))
        prefix = tuple(int(t) for t in rng.integers(0, 2, size=k))
        bases = weaver._part_sums(outers, prefix, 2)
        for ell in (exterior._ell, all_minors_ell):
            got = ell(bases, exterior.SHIFT)
            name = "new" if ell is exterior._ell else "all minors"
            for base, g in zip(bases, got):
                want = laplace_ell(base, exterior.SHIFT)
                dev = float(np.max(np.abs(g - want)) / np.max(np.abs(want)))
                errors[name] = max(errors[name], dev)
    assert errors["new"] <= errors["all minors"], errors
    assert errors["new"] <= 2e-15, errors


def test_minor_polys_keep_f_by_subset_size_and_match_exact_f():
    # F_b(S) = 0 for |S| > d: one array per size s <= min(d, n), of the
    # s-subsets of the unpinned vectors in combinations order, each row the
    # alternating sum over T in S of chi(P_b + sum_{i in T} u_i u_i*); at
    # d = 4 each S of size 1 .. 4 borders 4, 6, 4 and 1 minors
    r = 3
    for skew in (None, [[0, 2, -1], [-2, 0, 4], [1, -4, 0]],
                 [[0, 1, -2, 3], [-1, 0, 2, -1], [2, -2, 0, 1],
                  [-3, 1, -1, 0]]):
        outers, inst = rational_diagonal(skew)
        m, d, u = inst.count, inst.dim, inst.vectors
        for prefix in ((0,), (0, 1)):
            k, n = len(prefix), m - len(prefix)
            lat = mixedchar._subset_lattice(n, min(n, (r - 1) * d))
            bases = weaver._part_sums(np.einsum("mj,mk->mjk", u, u.conj()),
                                      prefix, r)
            for b, base in enumerate(bases[:-1]):
                f = weaver._minor_polys(u, base, lat)
                assert [x.shape for x in f] == [
                    (math.comb(n, s), d + 1) for s in range(min(d, n) + 1)]
                pinned = [i for i in range(k) if prefix[i] == b]

                @functools.cache
                def chi(members):
                    return exact_char_poly(
                        [[sum((r * outers[i][p][q] for i in pinned),
                              Fraction(0))
                          + sum((outers[i][p][q] for i in members),
                                Fraction(0)) for q in range(d)]
                         for p in range(d)])

                for s, x in enumerate(f):
                    for row, subset in zip(
                            x, combinations(range(k, m), s), strict=True):
                        want = [Fraction(0)] * (d + 1)
                        for t in range(s + 1):
                            for part in combinations(subset, t):
                                want = [w + (-1) ** (s - t) * c
                                        for w, c in zip(want, chi(part))]
                        dev = np.max(np.abs(row - np.array(want, float)))
                        assert dev <= 1e-13, (skew, prefix, b, subset, dev)


def test_minor_stacks_hold_at_most_chunk_matrices(monkeypatch):
    # each det stack takes the s x s minors of whole subsets S, at least
    # one: at most max(CHUNK, C(d, s)) matrices, with the bits of the
    # default CHUNK
    inst = block_instances()["k5"]
    m, d, r, u = inst.count, inst.dim, 3, inst.vectors
    outers = np.einsum("mj,mk->mjk", u, u.conj())
    blocks = [(base, m - len(prefix)) for prefix in ((), (0,), (1, 0, 2))
              for base in weaver._part_sums(outers, prefix, r)[:-1]]
    lats = {n: mixedchar._subset_lattice(n, min(n, (r - 1) * d))
            for _, n in blocks}
    want = [weaver._minor_polys(u, base, lats[n]) for base, n in blocks]
    stacks = []
    real = np.linalg.det

    def record(a):
        a = np.asarray(a)
        stacks.append(a.reshape((-1,) + a.shape[-2:]))
        return real(a)

    monkeypatch.setattr(weaver, "CHUNK", 5)
    monkeypatch.setattr(np.linalg, "det", record)
    got = [weaver._minor_polys(u, base, lats[n]) for base, n in blocks]
    monkeypatch.undo()
    for x, y in zip(got, want, strict=True):
        assert [f.tobytes() for f in x] == [f.tobytes() for f in y]
    assert sum(len(a) for a in stacks) == sum(
        math.comb(n, s) * math.comb(d, s)
        for _, n in blocks for s in range(1, d + 1))
    for a in stacks:
        s = a.shape[-1]
        assert a.shape[-2] == s and 1 <= s <= d, a.shape
        assert len(a) <= max(5, math.comb(d, s)), (s, len(a))


def test_block_node_poly_of_no_vectors_is_a_power_of_x():
    # the lattice holds only the empty set: every block is chi(0) = x^d
    empty = WeaverInstance(2, np.zeros((0, 2)), 1.0)
    for r in range(1, 5):
        want = np.zeros(2 * r + 1)
        want[-1] = 1.0
        np.testing.assert_array_equal(block_node_poly(empty, (), r), want)


def descent_prefixes(inst, r):
    """The root, then every child of every inner node of the r-part
    descent, in the walk's order; the last level's children are leaves."""
    path = partition(inst, r).trace.final_assignment
    return [()] + [path[:k] + (t,) for k in range(inst.count)
                   for t in range(r)]


def test_block_node_poly_cache_and_chunks(monkeypatch, lattice_engine):
    inst = gen_gaussian(3, 0.25, seed=1)
    default = mixedchar.CHUNK
    for r, prefix in ((2, ()), (2, (0, 1, 1)), (2, (1, 0, 0, 1, 0)),
                      (3, (2, 0)), (4, (3, 1, 0))):
        want = block_node_poly(inst, prefix, r)
        for chunk in (3, 1, default):
            monkeypatch.setattr(weaver, "CHUNK", chunk)
            monkeypatch.setattr(mixedchar, "CHUNK", chunk)  # the closing
            assert np.array_equal(block_node_poly(inst, prefix, r), want)


def test_two_part_partition_matches_lifted_descent():
    cases = dict(block_instances(),
                 k4=gen_from_graph(Graph(4, K4_EDGES))[0],
                 basis=WeaverInstance(2, np.eye(2), 1.0))
    for name, inst in cases.items():
        rep = partition(inst, 2)
        oracle = descend(lift(inst, 2))
        want = tuple(tuple(i for i, c in enumerate(oracle.final_assignment)
                           if c == k) for k in range(2))
        assert rep.parts == want, name
        assert math.isclose(rep.root_of_empty, oracle.root_of_empty,
                            rel_tol=1e-10)
        for got, ref in zip(rep.trace.steps, oracle.steps):
            assert got.chosen_index == ref.chosen_index
            assert np.allclose(got.candidate_roots, ref.candidate_roots,
                               rtol=1e-10, atol=0.0), name


def test_two_part_leaf_roots_are_part_eigenvalues():
    # a part of K5 can share a double eigenvalue with another part; from
    # the coefficients of the leaf polynomial that fourfold root comes out
    # about 1e-4 off at r = 2 on edge orders 4 and 11, and the lifted
    # descent's r = 3 leaves were off by 1e-11 to 3e-10
    edges = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    for seed in range(12):
        perm = np.random.default_rng(seed).permutation(len(edges))
        inst = gen_from_graph(Graph(5, tuple(
            (edges[j][0], edges[j][1], 1.0) for j in perm)))[0]
        for r in (2, 3):
            rep = partition(inst, r)
            # the leaf's roots are those of r * (each part's sum)
            assert math.isclose(rep.trace.final_root,
                                r * max(rep.part_norms), rel_tol=1e-12), (
                seed, r)


def test_two_part_scale_rung():
    inst = gen_gaussian(4, 0.25, seed=0)  # m=16, past a minute when lifted
    rep = partition(inst, 2)
    assert inst.count == 16 and rep.within_bound
    slack = DEFAULT_POLICY.descent_slack
    prev = rep.root_of_empty
    for step in rep.trace.steps:
        assert step.chosen_root <= prev + slack
        prev = step.chosen_root
    _, floor = exhaustive_minimum(lift(inst, 2))
    assert rep.trace.final_root >= floor - slack


def test_two_part_refused_before_any_kernel(monkeypatch):
    # both engines refuse each: the lattice for its rows; the state engine
    # for 172 GB and 2.8 GB of states (it admits gauss(4, 1/8) at r = 3,
    # m=32, with 181 MB of states), and under a cap of 3e7 for the time
    # of 100 levels (4.3e7) although its states fit (1.2e7)
    two = gen_gaussian(8, 0.125, seed=0)  # m=64, d=8
    three = gen_gaussian(4, 1 / 128, seed=0)  # m=512, d=4
    line = gen_gaussian(2, 0.02, seed=0)  # m=100, d=2
    tight = DEFAULT_POLICY.merged({"work_cap": 3e7})
    no_kernels(monkeypatch)
    for inst, r, policy in ((two, 2, DEFAULT_POLICY),
                            (three, 3, DEFAULT_POLICY), (line, 2, tight)):
        with pytest.raises(CapacityError, match="predicted work"):
            partition(inst, r, policy)


def test_partition_picks_the_engine_that_predicts_less_work(monkeypatch):
    # the benchmark's partitions take the state engine; small m with large
    # d r keeps the lattice, whose rows are fewer than a state's entries
    picked = []
    for name in ("_state_family", "_block_family"):
        real = getattr(weaver, name)

        def spy(*args, real=real, name=name):
            picked.append(name)
            return real(*args)

        monkeypatch.setattr(weaver, name, spy)
    edges = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    k5 = gen_from_graph(Graph(5, tuple((a, b, 1.0) for a, b in edges)))[0]
    cases = [(gen_gaussian(3, 0.25, seed=s), 2, "_state_family")
             for s in range(3)]
    cases += [(block_instances()["haar-diag"], 3, "_state_family"),
              (k5, 2, "_state_family"), (k5, 3, "_block_family"),
              (k5, 4, "_block_family"),
              (gen_gaussian(6, 0.75, seed=0), 2, "_block_family")]
    for inst, r, want in cases:
        picked.clear()
        partition(inst, r)
        assert picked == [want], (inst.count, inst.dim, r)


@pytest.mark.parametrize("d, r, m", [(3, 3, 150), (4, 2, 300),
                                     (3, 2, 2000)])
def test_shifted_state_descents_at_small_delta(d, r, m):
    # at delta = d/m every node's roots crowd about 1, where coefficients
    # in x lost them (unshifted, these raised DescentError at levels 149,
    # 293 and 1638); in t = x - 1 each descent finishes and falls
    inst = gen_gaussian(d, d / m, seed=0)
    rep = partition(inst, r)
    assert rep.within_bound and len(rep.trace.steps) == m
    prev = rep.root_of_empty
    for step in rep.trace.steps:
        assert step.chosen_root <= prev + DEFAULT_POLICY.descent_slack
        prev = step.chosen_root


def admit_outcome(m, d, r, policy, lattice):
    """What ``partition``'s admission says of (m, d, r) with the lattice's
    work priced at lattice: the state engine (True), the lattice (False)
    or the refusal's message."""
    try:
        return weaver._admit(lattice, exterior.state_work(m, d, r),
                             exterior.state_bytes(m, d, r), policy, "p")
    except CapacityError as err:
        return str(err)


def node_work_loop(n, d, r):
    """A lattice node's work, term by term: r BLOCK_WORK, its closing rows,
    its r - 1 blocks of minors and the splits of each growth step b, the
    first step with b d >= n repeated into the wider products of the
    r - 1 - b later ones."""
    rows = sum(math.comb(n, j) for j in range(min(n, (r - 1) * d) + 1))
    minors = sum(math.comb(n, j) * math.comb(d, j) for j in range(d + 1))
    splits = 0
    for b in range(1, r - 1):
        sizes = [(math.comb(n, w) * math.comb(w, s), w)
                 for w in range(min(n, (b + 1) * d) + 1)
                 for s in range(max(0, w - b * d), min(w, d) + 1)]
        count, ranks = sum(c for c, _ in sizes), sum(c * w for c, w in sizes)
        if b * d < n:
            splits += count * (b * d + 1) * (d + 1) + ranks
            continue
        later = r - 1 - b
        splits += (count * (d + 1) * later * ((b + r - 2) * d + 2) // 2
                   + later * ranks)
        break
    return (r * weaver.BLOCK_WORK + rows * weaver.ROW_WORK * r * d ** 3
            + (r - 1) * minors * weaver.MINOR_WORK
            + splits * weaver.SPLIT_WORK)


# (m, d, r) of the partitions in the tier-1 tests, the CI step and the
# benchmark
PARTITION_SHAPES = [
    (1, 1, 2), (2, 2, 2), (4, 2, 2), (4, 2, 3), (4, 2, 4), (5, 2, 1),
    (5, 2, 2), (5, 2, 3), (5, 2, 4), (6, 2, 2), (6, 3, 2), (8, 2, 1),
    (8, 2, 2), (8, 2, 4), (8, 6, 2), (9, 3, 2), (9, 3, 3), (9, 3, 4),
    (10, 4, 2), (10, 4, 3), (10, 4, 4), (12, 3, 2), (12, 3, 3), (12, 3, 4),
    (15, 3, 3), (16, 4, 2), (64, 8, 2), (100, 2, 2), (140, 3, 2),
    (150, 3, 3), (300, 4, 2), (512, 4, 3), (2000, 3, 2)]


def test_block_work_is_the_sum_of_its_levels():
    # the closed form against the levels priced one by one: the root, then
    # r nodes a level, each node with one root finding of degree r d
    shapes = PARTITION_SHAPES + [
        (m, d, r) for d, r in product(range(1, 7),
                                      list(range(1, 13)) + [50, 250])
        for m in range(40)]
    longest, nodes = {}, {}
    for m, d, r in shapes:
        longest[d, r] = max(longest.get((d, r), 0), m)
    for (d, r), m in longest.items():
        nodes[d, r] = [node_work_loop(n, d, r) for n in range(m + 1)]
        assert [weaver._node_work(n, d, r)
                for n in range(m + 1)] == nodes[d, r], (d, r)
    outcomes = set()
    tight = DEFAULT_POLICY.merged({"work_cap": 3e7})
    for m, d, r in shapes:
        node, roots = nodes[d, r], interlace.roots_work(r * d)
        levels = node[m] + roots + sum(r * (node[n] + roots)
                                       for n in range(m))
        want = float(min(levels, 10 ** 300))
        got = weaver.block_work(m, d, r)
        assert got == want, (m, d, r)
        for policy in (DEFAULT_POLICY, tight):  # picks and refusals
            outcome = admit_outcome(m, d, r, policy, got)
            assert outcome == admit_outcome(m, d, r, policy, want)
            outcomes.add(outcome if isinstance(outcome, bool) else "refused")
    assert outcomes == {True, False, "refused"}


def test_block_work_prices_any_m_in_the_same_steps(monkeypatch):
    # the levels sum in closed form on one row of subset-size terms, built
    # once: pricing 10^6 vectors level by level took 3.6 s
    rows = []
    node_row = weaver._node_row

    def counting_row(*args):
        row = node_row(*args)
        rows.append(len(row))
        return row

    monkeypatch.setattr(weaver, "_node_row", counting_row)
    for d, r in ((1, 2), (3, 2), (3, 3), (2, 5)):
        for m in (10 ** 2, 10 ** 4, 10 ** 6):
            rows.clear()
            assert weaver.block_work(m, d, r) > 0
            assert rows == [(r - 1) * d + 1], (d, r, m, rows)


def test_large_r_is_refused_before_any_work(monkeypatch):
    # C(2d, d)^r built as an integer raised OverflowError at r = 250 and
    # did not finish at r = 10^20; the counts stop at 10^300
    inst = gen_gaussian(3, 0.25, seed=0)  # m=12
    no_kernels(monkeypatch)
    for r in (250, 300, 10 ** 20):
        with pytest.raises(CapacityError, match="predicted work"):
            partition(inst, r)
        with pytest.raises(CapacityError, match="predicted work"):
            block_node_poly(inst, (), r)
        assert exterior.state_bytes(12, 3, r) == 1e300
        assert exterior.state_work(12, 3, r) == 1e300
    assert weaver.block_work(10 ** 6, 1, 10 ** 20) == 1e300


def test_descent_builds_profiles_only_for_tied_children(monkeypatch):
    # at level 0 of a two-part walk both children pin u_0 to one part, so
    # their polynomials are mirror images and tie; no other level ties
    built = []
    real = realpoly._root_list

    def counting(q, policy, raw):
        built.append(q)
        return real(q, policy, raw)

    monkeypatch.setattr(realpoly, "_root_list", counting)
    rep = partition(gen_gaussian(3, 0.25, seed=0), 2)
    first = rep.trace.steps[0].candidate_roots
    assert abs(first[0] - first[1]) <= DEFAULT_POLICY.tie_tol
    assert len(built) == 2


def test_experiment_refused_before_any_trial(monkeypatch):
    inst = gen_diagonal(2, 0.5)
    no_kernels(monkeypatch)
    with pytest.raises(CapacityError, match="predicted work"):
        random_partition_experiment(inst, trials=10 ** 12)


def walked_node_polys(monkeypatch, inst, r):
    """The polynomials whose roots the r-part descent takes, through their
    batched seam ``realpoly.top_roots``, and the report."""
    seen = []
    real = realpoly.top_roots

    def record(ps, policy=DEFAULT_POLICY):
        seen.extend(ps)
        return real(ps, policy)

    monkeypatch.setattr(realpoly, "top_roots", record)
    rep = partition(inst, r)
    monkeypatch.setattr(realpoly, "top_roots", real)
    return seen, rep


def test_descent_nodes_are_block_node_polys(monkeypatch, lattice_engine):
    one = {3: "haar-diag", 4: "k5"}  # r = 3 and 4 on one instance each
    for r in (2, 3, 4):
        for name, inst in block_instances().items():
            if r in one and name != one[r]:
                continue
            prefixes = descent_prefixes(inst, r)
            m = inst.count
            seen, rep = walked_node_polys(monkeypatch, inst, r)
            inner = [p for p in prefixes if len(p) < m]
            assert len(seen) == len(inner)
            for p, prefix in zip(seen, inner):
                want = block_node_poly(inst, prefix, r)
                assert p.tobytes() == want.tobytes(), (r, name, prefix)
            # the last root is the largest eigenvalue of the leaf's part sums
            leaf = rep.trace.final_assignment
            u = inst.vectors
            bases = weaver._part_sums(np.einsum("mj,mk->mjk", u, u.conj()),
                                      leaf, r)
            values = np.unique(np.linalg.eigvalsh(bases))
            assert rep.trace.final_root == values[-1]


def test_state_walk_nodes_equal_fresh_state_nodes(monkeypatch):
    # children share their parent's l blocks and one array of suffix
    # states; every inner node of the walk still has the bits of a fresh
    # state node at its prefix, in t = x - 1, and the leaves' roots are
    # the eigenvalues of the part sums
    monkeypatch.setattr(weaver, "_picks_states", lambda lattice, states: True)
    for r in (2, 3, 4):
        for name, inst in block_instances().items():
            if name == "k5" and r > 2:  # 60 MB and 4.2 GB of states
                continue
            m = inst.count
            polys, rep = walked_node_polys(monkeypatch, inst, r)
            path = rep.trace.final_assignment
            inner = [()] + [path[:k] + (t,) for k in range(m - 1)
                            for t in range(r)]
            want = [exterior._state_node(inst.vectors, prefix, r,
                                         exterior.SHIFT) for prefix in inner]
            assert [p.tobytes() for p in polys] == [
                p.tobytes() for p in want], (r, name)
            top = realpoly.roots(want[0]).values[-1] + exterior.SHIFT
            assert rep.root_of_empty == top, (r, name)
            u = inst.vectors
            bases = weaver._part_sums(np.einsum("mj,mk->mjk", u, u.conj()),
                                      path, r)
            values = np.unique(np.linalg.eigvalsh(bases))
            assert rep.trace.final_root == values[-1], (r, name)


def test_suffix_states_hold_no_array_that_grows_with_n():
    # Omega's entries of every vector, formed up front, peaked at 30.7 and
    # 61.4 MB traced at n = 2000 and 4000; formed a block at a time, the
    # two rows of states and the blocks peak at 1.28 MB at both
    peaks = []
    for n in (2000, 4000):
        u = gen_gaussian(4, 4 / n, seed=0).vectors
        tracemalloc.start()
        try:
            exterior._suffix_states(u, 2, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 1e6, peaks


def test_state_node_admits_the_two_states_it_holds(monkeypatch):
    # a node folds rho_0 through two rows: a cap that holds those but not
    # all n + 1 suffix states keeps it on the state engine, with the bits
    # of the fresh state node
    inst = gen_gaussian(2, 2 / 60, seed=0)
    n, d, r = inst.count, inst.dim, 2
    two = exterior.BYTE_WORK * exterior.state_bytes(1, d, r)
    assert two < exterior.BYTE_WORK * exterior.state_bytes(n, d, r)

    def lattice(*args):
        raise AssertionError("the node left the state engine")

    monkeypatch.setattr(weaver, "_node", lattice)
    got = block_node_poly(inst, (), r,
                          DEFAULT_POLICY.merged({"work_cap": two}))
    want = exterior._state_node(inst.vectors, (), r, 0.0)
    assert got.tobytes() == want.tobytes()
    with pytest.raises(CapacityError):
        block_node_poly(inst, (), r,
                        DEFAULT_POLICY.merged({"work_cap": two / 2}))


def test_partition_chunks_give_the_same_report(monkeypatch, lattice_engine):
    # several closing chunks per level
    inst = block_instances()["gauss"]

    def report(r):
        return json.dumps(partition_report_to_dict(
            partition(inst, r), with_trace=True))

    want = {r: report(r) for r in (2, 3)}
    monkeypatch.setattr(weaver, "CHUNK", 5)
    monkeypatch.setattr(mixedchar, "CHUNK", 5)
    for r in (2, 3):
        assert report(r) == want[r], r


def test_descent_asks_for_each_node_once(monkeypatch):
    # one root() call, then one children() call per level, on the chosen
    # child's state: the root and the r children of each chosen node are
    # 1 + r m distinct prefixes
    for (name, r), engine in product(
            (("gauss", 2), ("gauss", 3), ("haar-diag", 3)),
            ("lattice", "state")):
        inst = block_instances()[name]
        family = (weaver._block_family(inst, r, DEFAULT_POLICY)
                  if engine == "lattice" else
                  exterior._state_family(inst.vectors, r, DEFAULT_POLICY))
        roots, parents = [], []

        def root():
            roots.append(())
            found, state = family.root()
            return found, ((), state)

        def children(state):
            prefix, inner = state
            parents.append(prefix)
            return [(found, (prefix + (t,), below)) for t, (found, below)
                    in enumerate(family.children(inner))]

        descend(interlace.NodeFamily(family.support_sizes, root, children))
        asked = roots + [p + (t,) for p in parents for t in range(r)]
        assert len(roots) == 1 and len(parents) == inst.count, (name, r)
        assert len(asked) == len(set(asked)) == 1 + r * inst.count, (name, r)
    # on an ensemble each node is one conditional_expected_poly call
    asked = []
    real = interlace.conditional_expected_poly

    def counting(e, prefix, policy):
        asked.append(prefix)
        return real(e, prefix, policy)

    monkeypatch.setattr(interlace, "conditional_expected_poly", counting)
    for name, r in (("diag", 2), ("haar-diag", 3)):
        inst = block_instances()[name]
        asked.clear()
        descend(lift(inst, r))
        assert len(asked) == len(set(asked)) == 1 + r * inst.count, (name, r)


def test_no_subset_lattice_outlives_its_call(lattice_engine):
    inst = block_instances()["gauss"]
    mixedchar.mixed_char_poly(mixedchar.MixedInstance(3, tuple(
        np.outer(u, u.conj()) for u in inst.vectors)))
    for r in (2, 3):
        partition(inst, r)
    gc.collect()
    assert not [x for x in gc.get_objects()
                if isinstance(x, mixedchar._SubsetLattice)]


def test_partition_never_reaches_the_lift(monkeypatch):
    def lifted(*args, **kwargs):
        raise AssertionError("partition reached the lifted ensemble")

    monkeypatch.setattr(weaver, "lift", lifted)
    monkeypatch.setattr(interlace, "conditional_expected_poly", lifted)
    monkeypatch.setattr(mixedchar, "conditional_expected_poly", lifted)
    monkeypatch.setattr(mixedchar, "_subset_mixed", lifted)
    inst = gen_gaussian(2, 0.4, seed=3)
    for r in (1, 2, 3, 4):
        rep = partition(inst, r)
        assert rep.within_bound and len(rep.parts) == r
        assert sorted(i for part in rep.parts for i in part) == list(
            range(inst.count))
        assert math.isclose(rep.trace.final_root, r * max(rep.part_norms),
                            rel_tol=1e-12)
