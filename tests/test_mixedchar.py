"""Expected characteristic polynomials two ways: full enumeration against
the subset-expansion derivative formula, plus conditional tree polynomials
and the deterministic-vs-expected top root comparison."""

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from kspart import (
    CapacityError,
    FiniteSupportVector,
    Graph,
    MixedInstance,
    NumericPolicy,
    RandomVectorEnsemble,
    ValidationError,
    WeaverInstance,
    cohen_inequality_check,
    conditional_expected_poly,
    covariance,
    ensemble_instance,
    expected_char_poly_bruteforce,
    gen_diagonal,
    gen_from_graph,
    gen_gaussian,
    is_real_rooted,
    largest_root,
    lift,
    mixed_char_poly,
)
from kspart import exhaustive_minimum, exterior, linalg, mixedchar
from kspart.linalg import char_poly, char_poly_stack, isotropic_normalizer
from kspart.mixedchar import outcome_sums


def bernoulli_diagonal(n, delta):
    """1/delta copies per coordinate direction of the fair inclusion vector
    {0, sqrt(delta) e_i}; expected characteristic polynomial (x - 1/2)^n."""
    copies = round(1.0 / delta)
    vectors = []
    for i in range(n):
        atom = np.zeros(n)
        atom[i] = np.sqrt(delta)
        for _ in range(copies):
            vectors.append(FiniteSupportVector(
                [0.5, 0.5], np.stack([np.zeros(n), atom])))
    return RandomVectorEnsemble(n, tuple(vectors))


def random_ensemble(rng, d, m, atom_max):
    vectors = []
    for _ in range(m):
        l = int(rng.integers(1, atom_max + 1))
        probs = rng.dirichlet(np.ones(l))
        vals = 0.5 * (rng.standard_normal((l, d)) +
                      1j * rng.standard_normal((l, d)))
        vectors.append(FiniteSupportVector(probs, vals))
    return RandomVectorEnsemble(d, tuple(vectors))


def random_rank1_isotropic(rng, d, m):
    vecs = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    w = isotropic_normalizer(np.einsum("ij,ik->jk", vecs, vecs.conj()))
    vecs = vecs @ w.conj()  # row i becomes W v_i, so the outers sum to I
    mats = tuple(np.outer(v, v.conj()) for v in vecs)
    return MixedInstance(d, mats)


def test_covariance_bernoulli_inclusion():
    delta = 0.5
    atom = np.array([np.sqrt(delta), 0.0])
    v = FiniteSupportVector([0.5, 0.5], np.stack([np.zeros(2), atom]))
    want = np.zeros((2, 2))
    want[0, 0] = delta / 2.0
    assert np.allclose(covariance(v), want, atol=1e-15)


def test_covariance_deterministic():
    u = np.array([1.0 + 1j, 2.0])
    v = FiniteSupportVector.deterministic(u)
    assert np.allclose(covariance(v), np.outer(u, u.conj()), atol=1e-15)


def test_vector_validation():
    with pytest.raises(ValidationError):
        FiniteSupportVector([0.4, 0.4], np.zeros((2, 1)))  # sums to 0.8
    with pytest.raises(ValidationError):
        FiniteSupportVector([1.0, -0.0], np.zeros((2, 1)))
    with pytest.raises(ValidationError):
        FiniteSupportVector([1.0], np.zeros((2, 1)))
    with pytest.raises(ValidationError):
        RandomVectorEnsemble(2, (FiniteSupportVector.deterministic([1.0]),))


def test_bruteforce_diagonal_half_power():
    for n, delta in [(1, 1.0), (2, 0.5)]:
        e = bernoulli_diagonal(n, delta)
        p = expected_char_poly_bruteforce(e)
        want = np.polynomial.polynomial.polyfromroots([0.5] * n)
        assert np.max(np.abs(p - want)) <= 1e-12


def exact_char_poly(re, im=None):
    """det(xI - A) of a square matrix A = re + i im of Gaussian integers
    (im zero when omitted), ascending, by the Faddeev-LeVerrier recursion
    in integers: each c_k of such a matrix is a Gaussian integer, so every
    division by k is exact, and of a Hermitian one it is real."""
    d = len(re)
    im = im or [[0] * d for _ in range(d)]
    coeffs = [0] * d + [1]
    b_re = [[int(i == j) for j in range(d)] for i in range(d)]
    b_im = [[0] * d for _ in range(d)]
    for k in range(1, d + 1):
        m_re = [[sum(re[i][t] * b_re[t][j] - im[i][t] * b_im[t][j]
                     for t in range(d)) for j in range(d)] for i in range(d)]
        m_im = [[sum(re[i][t] * b_im[t][j] + im[i][t] * b_re[t][j]
                     for t in range(d)) for j in range(d)] for i in range(d)]
        c, rest = divmod(-sum(m_re[i][i] for i in range(d)), k)
        assert rest == 0 and sum(m_im[i][i] for i in range(d)) == 0
        coeffs[d - k] = c
        b_re = [[m_re[i][j] + (c if i == j else 0) for j in range(d)]
                for i in range(d)]
        b_im = m_im
    return coeffs


def exact_expected_char_poly(e):
    """E det(xI - sum v_i v_i*) of an ensemble, exactly: every outcome
    enumerated, its probabilities and the real and imaginary parts of its
    atoms read as the Fractions their floats are.  The parts are integers
    over one power of two, den, so each outcome's sum is a Gaussian
    integer matrix N over den^2, and the coefficient of x^(d - k) is N's
    over den^(2k)."""
    d = e.dim
    vectors = [([Fraction(float(p)) for p in v.probabilities],
                [[(Fraction(float(x.real)), Fraction(float(x.imag)))
                  for x in row] for row in v.values])
               for v in e.vectors]
    den = max((x.denominator for _, vals in vectors for row in vals
               for z in row for x in z), default=1)
    vectors = [(probs, [[(int(a * den), int(b * den)) for a, b in row]
                        for row in vals]) for probs, vals in vectors]
    total = [Fraction(0)] * (d + 1)
    for outcome in product(*(range(v.support_size) for v in e.vectors)):
        weight = Fraction(1)
        re = [[0] * d for _ in range(d)]
        im = [[0] * d for _ in range(d)]
        for (probs, vals), t in zip(vectors, outcome):
            weight *= probs[t]
            for i, (a, b) in enumerate(vals[t]):
                for j, (c, f) in enumerate(vals[t]):
                    re[i][j] += a * c + b * f  # v_i conj(v_j)
                    im[i][j] += b * c - a * f
        for k, c in enumerate(exact_char_poly(re, im)):
            total[k] += weight * Fraction(c, den ** (2 * (d - k)))
    return total


def test_bruteforce_matches_exact_rationals():
    rng = np.random.default_rng(211)
    probs = [[1.0], [0.5, 0.5], [0.25, 0.75], [1 / 3, 2 / 3],
             [0.5, 0.25, 0.25], [0.125, 0.375, 0.5], [0.2, 0.3, 0.5]]
    for trial in range(40):
        d = int(rng.integers(1, 6))  # d = 4 and 5 form products
        den = (4, 3, 8)[trial % 3]  # dyadic, then rational, atoms
        vectors = []
        for _ in range(int(rng.integers(1, 5))):
            p = probs[int(rng.integers(len(probs)))]
            vals = rng.integers(-4, 5, (len(p), d)) / den
            vectors.append(FiniteSupportVector(p, vals))
        e = RandomVectorEnsemble(d, tuple(vectors))
        want = exact_expected_char_poly(e)
        got = expected_char_poly_bruteforce(e)
        scale = max(abs(c) for c in want)
        assert max(abs(Fraction(float(g)) - w) for g, w in zip(got, want)) \
            <= Fraction(1, 10 ** 13) * scale


def test_bruteforce_single_and_no_vector():
    rng = np.random.default_rng(17)
    vals = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    one = RandomVectorEnsemble(4, (FiniteSupportVector([0.2, 0.3, 0.5],
                                                        vals),))
    want = sum(p * char_poly(np.outer(w, w.conj()))
               for p, w in zip([0.2, 0.3, 0.5], vals))
    assert np.max(np.abs(expected_char_poly_bruteforce(one) - want)) \
        <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(expected_char_poly_bruteforce(
        RandomVectorEnsemble(3, ())), [0.0, 0.0, 0.0, 1.0])


def test_bruteforce_blocks_stay_within_chunk(monkeypatch):
    rng = np.random.default_rng(29)
    e = ensemble_with_sizes(rng, 3, (3, 1, 4, 2, 5))
    # one characteristic polynomial per outcome, as before the rank-one leaves
    want = sum(outcome_sums(e, lambda first, w, s: w @ char_poly_stack(s),
                            0.0, "reference"))
    calls = []

    def recording(ms, vs, weights):
        calls.append(len(ms) * len(vs))
        return kernel(ms, vs, weights)

    kernel = linalg.rank_one_char_poly_sum
    monkeypatch.setattr(linalg, "rank_one_char_poly_sum", recording)
    for chunk in (4096, 7, 3, 1):  # the last vector's 5 atoms split below 5
        monkeypatch.setattr(mixedchar, "CHUNK", chunk)
        calls.clear()
        got = expected_char_poly_bruteforce(e)
        assert max(calls) <= chunk
        assert sum(calls) == e.leaf_count
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def per_outcome_sum(e):
    """E det(xI - sum v_i v_i*) with one characteristic polynomial per
    outcome, each weighted by its own probability."""
    return sum(outcome_sums(e, lambda first, w, s: w @ char_poly_stack(s),
                            0.0, "reference"))


@pytest.mark.parametrize("d", range(1, 7))
def test_bruteforce_matches_the_per_outcome_sum(d, monkeypatch):
    # d <= 2 forms no product; the widest vector (4 atoms) is not the last,
    # and one vector has a single atom.  The atoms are Gaussian rationals on
    # a dyadic grid, so the per-outcome sum is taken exactly
    rng = np.random.default_rng(700 + d)
    e = ensemble_with_sizes(rng, d, (3, 1, 4, 2, 4, 2))
    e = RandomVectorEnsemble(d, tuple(
        FiniteSupportVector(v.probabilities, np.round(v.values * 64) / 64)
        for v in e.vectors))
    want = exact_expected_char_poly(e)
    scale = max(abs(c) for c in want)
    # BLOCK_BYTES 1 takes one matrix a block
    for chunk, block_bytes in product((mixedchar.CHUNK, 7, 3, 1),
                                      (linalg.BLOCK_BYTES, 1)):
        monkeypatch.setattr(mixedchar, "CHUNK", chunk)
        monkeypatch.setattr(linalg, "BLOCK_BYTES", block_bytes)
        got = expected_char_poly_bruteforce(e)
        assert max(abs(Fraction(float(g)) - w) for g, w in zip(got, want)) \
            <= Fraction(1, 10 ** 14) * scale


def test_bruteforce_takes_the_lemma_on_the_widest_vector(monkeypatch):
    rng = np.random.default_rng(31)
    e = ensemble_with_sizes(rng, 3, (5, 1, 2))
    want = per_outcome_sum(e)
    calls = []

    def recording(ms, vs, weights):
        calls.append((len(ms), len(vs)))
        return kernel(ms, vs, weights)

    kernel = linalg.rank_one_char_poly_sum
    monkeypatch.setattr(linalg, "rank_one_char_poly_sum", recording)
    got = expected_char_poly_bruteforce(e)
    assert calls == [(2, 5)]  # 2 prefixes, not 10 with the last vector
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    calls.clear()  # ties go to the last of the widest
    expected_char_poly_bruteforce(ensemble_with_sizes(rng, 3, (2, 4, 3, 4)))
    assert calls == [(24, 4)]


def test_mixed_diagonal_half_power():
    for n, delta in [(1, 1.0), (2, 0.5), (3, 1.0 / 3.0)]:
        inst = ensemble_instance(bernoulli_diagonal(n, delta))
        p = mixed_char_poly(inst)
        want = np.polynomial.polynomial.polyfromroots([0.5] * n)
        assert np.max(np.abs(p - want)) <= 1e-12


def test_mixed_scalar_uniform():
    # m copies of the 1x1 matrix [1/m] give x - 1
    for m in (1, 2, 5):
        inst = MixedInstance(1, tuple(np.array([[1.0 / m]]) for _ in range(m)))
        assert np.allclose(mixed_char_poly(inst), [-1.0, 1.0], atol=1e-12)


def test_mixed_single_rank_one_is_char_poly():
    u = np.array([1.0, 1.0])
    inst = MixedInstance(2, (np.outer(u, u),))
    assert np.allclose(mixed_char_poly(inst), char_poly(np.outer(u, u)),
                       atol=1e-12)


def test_mixed_matches_bruteforce_on_random_ensembles():
    rng = np.random.default_rng(101)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        e = random_ensemble(rng, d, m, 3)
        brute = expected_char_poly_bruteforce(e)
        mixed = mixed_char_poly(ensemble_instance(e))
        scale = max(1.0, float(np.max(np.abs(brute))))
        assert np.max(np.abs(brute - mixed)) <= 1e-9 * scale


def test_mixed_is_monic_of_full_degree():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        e = random_ensemble(rng, d, int(rng.integers(1, 6)), 2)
        p = mixed_char_poly(ensemble_instance(e))
        assert p.shape == (d + 1,)
        assert abs(p[-1] - 1.0) < 1e-12


def test_mixed_real_rooted_beyond_rank_one():
    # PSD instances of arbitrary rank keep every root real
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 6))
        mats = []
        for _ in range(m):
            r = int(rng.integers(1, d + 1))
            b = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
            mats.append(0.3 * b @ b.conj().T)
        p = mixed_char_poly(MixedInstance(d, tuple(mats)))
        assert is_real_rooted(p).real_rooted


def test_conditional_scalar_inclusion():
    e = bernoulli_diagonal(1, 0.5)  # two vectors, atoms {0, sqrt(1/2)}
    root_poly = conditional_expected_poly(e, ())
    assert np.allclose(root_poly, [-0.5, 1.0], atol=1e-12)
    # pinning the first vector on: 1/2 * (x - 3/4)
    assert np.allclose(conditional_expected_poly(e, (1,)),
                       [-0.375, 0.5], atol=1e-12)
    # pinning it off: 1/2 * (x - 1/4)
    assert np.allclose(conditional_expected_poly(e, (0,)),
                       [-0.125, 0.5], atol=1e-12)


def test_conditional_tree_sum_and_leaves():
    rng = np.random.default_rng(31)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        e = random_ensemble(rng, d, int(rng.integers(1, 5)), 3)
        for k in range(len(e.vectors)):
            prefix = tuple(int(rng.integers(0, e.support_sizes[j]))
                           for j in range(k))
            parent = conditional_expected_poly(e, prefix)
            total = sum(
                conditional_expected_poly(e, prefix + (t,))
                for t in range(e.support_sizes[k]))
            scale = max(1.0, float(np.max(np.abs(parent))))
            assert np.max(np.abs(total - parent)) <= 1e-9 * scale
        # a full assignment reduces to one weighted outcome polynomial
        full = tuple(int(rng.integers(0, s)) for s in e.support_sizes)
        weight = 1.0
        outcome = np.zeros((d, d), dtype=np.complex128)
        for v, t in zip(e.vectors, full):
            weight *= v.probabilities[t]
            outcome += np.outer(v.values[t], v.values[t].conj())
        got = conditional_expected_poly(e, full)
        want = weight * char_poly(outcome)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, weight)


def test_conditional_rejects_bad_prefix():
    e = bernoulli_diagonal(1, 0.5)
    with pytest.raises(ValidationError):
        conditional_expected_poly(e, (0, 0, 0))
    with pytest.raises(ValidationError):
        conditional_expected_poly(e, (2,))


def no_kernels(monkeypatch):
    """Make the batched kernels fail, so that a refusal must come first."""
    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran before the capacity refusal")

    monkeypatch.setattr(linalg, "char_poly_stack", kernel)
    monkeypatch.setattr(np.linalg, "eigvalsh", kernel)
    monkeypatch.setattr(np.linalg, "eigh", kernel)
    monkeypatch.setattr(np.linalg, "det", kernel)
    monkeypatch.setattr(exterior, "_suffix_states", kernel)


def test_capacity_guards(monkeypatch):
    many = RandomVectorEnsemble(1, tuple(
        FiniteSupportVector([0.5, 0.5], [[0.0], [1.0]]) for _ in range(40)))
    square = RandomVectorEnsemble(24, tuple(
        FiniteSupportVector.deterministic(np.zeros(24)) for _ in range(24)))
    wide = ensemble_instance(square)
    no_kernels(monkeypatch)
    with pytest.raises(CapacityError, match="predicted work"):
        expected_char_poly_bruteforce(many)  # 2^40 outcomes
    with pytest.raises(CapacityError, match="predicted work"):
        mixed_char_poly(wide)  # 2^24 subsets
    with pytest.raises(CapacityError, match="predicted work"):
        conditional_expected_poly(square, (0,))


def test_work_cap_admits_many_small_matrices():
    # 26 subsets; a cap of 24 on the matrix count used to refuse this
    inst = MixedInstance(1, tuple(np.array([[1.0 / 25]]) for _ in range(25)))
    assert mixed_char_poly(inst) == pytest.approx([-1.0, 1.0], abs=1e-14)


def test_cohen_pinned_half_identities():
    inst = MixedInstance(2, (np.eye(2) / 2.0, np.eye(2) / 2.0))
    rep = cohen_inequality_check(inst)
    assert rep.holds
    assert abs(rep.sum_largest_root - 1.0) < 1e-9
    assert abs(rep.mixed_largest_root - (1.0 + 1.0 / np.sqrt(2.0))) < 1e-9


def test_cohen_holds_on_random_instances():
    rng = np.random.default_rng(53)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        mats = []
        for _ in range(m):
            r = int(rng.integers(1, d + 1))
            b = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
            mats.append(0.25 * b @ b.conj().T)
        assert cohen_inequality_check(MixedInstance(d, tuple(mats))).holds


def test_rank_one_isotropic_root_bound():
    # largest root of mu at most (1 + sqrt(max trace))^2
    rng = np.random.default_rng(61)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        m = int(rng.integers(d + 1, 8))
        inst = random_rank1_isotropic(rng, d, m)
        eps = max(float(np.trace(a).real) for a in inst.matrices)
        top = largest_root(mixed_char_poly(inst))
        assert top <= (1.0 + np.sqrt(eps)) ** 2 + 1e-7


def test_mixed_instance_requires_psd():
    with pytest.raises(ValidationError):
        MixedInstance(2, (np.diag([1.0, -0.5]),))


def test_policy_reaches_instance_and_vector_checks():
    loose = NumericPolicy(psd_rtol=1e-6, prob_sum_tol=1e-6)
    nearly_psd = np.diag([1.0, -1e-8])
    with pytest.raises(ValidationError):
        MixedInstance(2, (nearly_psd,))
    assert MixedInstance(2, (nearly_psd,), loose).matrices[0].shape == (2, 2)
    drifted = [0.5, 0.5 + 1e-8]
    with pytest.raises(ValidationError):
        FiniteSupportVector(drifted, np.zeros((2, 1)))
    v = FiniteSupportVector(drifted, np.zeros((2, 1)), loose)
    assert abs(float(np.sum(v.probabilities)) - 1.0) < 1e-15


# -- the subset lattice of both expansion engines ---------------------------

@pytest.mark.parametrize("m", range(10))
def test_subset_lattice_layout_and_rank(m):
    lex = {c: i for j in range(m + 1)
           for i, c in enumerate(combinations(range(m), j))}
    for size in range(m + 1):
        lat = mixedchar._subset_lattice(m, size)
        members = lat.members
        subsets = [tuple(int(e) for e in row if e < m) for row in members]
        assert sorted(subsets) == sorted(
            c for j in range(size + 1) for c in combinations(range(m), j))
        assert all(row[len(s):].tolist() == [m] * (size - len(s))
                   for row, s in zip(members, subsets))
        for j in range(size + 1):
            rows = lat.by_size[j]
            assert [subsets[i] for i in rows] == \
                list(combinations(range(m), j))
            # every position tuple of every length, the empty one included
            pos = [list(combinations(range(j), t)) for t in range(j + 1)]
            got = lat.sub_ranks(members[rows, :j], *(
                np.array(p, dtype=np.intp).reshape(len(p), t)
                for t, p in enumerate(pos)))
            assert np.array_equal(got[-1][:, 0], np.arange(len(rows)))
            for p, found in zip(pos, got):
                assert found.shape == (len(rows), len(p))
                for c, q in enumerate(p):
                    assert found[:, c].tolist() == [
                        lex[tuple(subsets[i][t] for t in q)] for i in rows]
        for k in range(m + 1):
            above = [i for i, s in enumerate(subsets) if min(s, default=m) >= k]
            # the j-subsets of range(k, m) are the last C(m - k, j) ranks
            for j in range(size + 1):
                ranks = sorted(lex[subsets[i]] for i in above
                               if len(subsets[i]) == j)
                assert ranks == list(range(math.comb(m, j) - math.comb(m - k, j),
                                           math.comb(m, j)))


# -- bit-for-bit reference for the subset expansion ------------------------

def reference_subset_mixed(mats, d):
    """The subset expansion as a plain loop, in the summation order that
    mixed_char_poly must reproduce bit for bit."""
    m = len(mats)
    subsets = []
    for k in range(min(m, d) + 1):
        subsets.extend(combinations(range(m), k))
    stack = np.zeros((len(subsets), d, d), dtype=np.complex128)
    for row, s in enumerate(subsets):
        for i in s:
            stack[row] -= mats[i]
    h = char_poly_stack(stack)
    coeff_of = {s: h[row] for row, s in enumerate(subsets)}
    mu = np.zeros(d + 1)
    mu[d] = 1.0
    for s in subsets:
        k = len(s)
        if k == 0:
            continue
        c_s = 0.0
        for r in range(k + 1):
            sign = -1.0 if (k - r) % 2 else 1.0
            for t in combinations(s, r):
                c_s += sign * coeff_of[t][d - k]
        mu[d - k] += c_s if k % 2 == 0 else -c_s
    return mu


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def random_psd_instance(rng, d, m):
    mats = []
    for _ in range(m):
        r = int(rng.integers(0, d + 1))
        b = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        mats.append(float(rng.uniform(0.05, 2.0)) * b @ b.conj().T)
    return MixedInstance(d, tuple(mats))


@pytest.mark.parametrize("d,m", [(3, 0), (3, 1), (2, 6), (4, 7), (5, 5),
                                 (6, 4), (1, 8)])
def test_expansion_bit_identical_to_loop(d, m, monkeypatch):
    rng = np.random.default_rng(1000 * d + m)
    for _ in range(3):
        inst = random_psd_instance(rng, d, m)
        want = reference_subset_mixed(list(inst.matrices), d)
        for chunk in (mixedchar.CHUNK, 3, 1):
            monkeypatch.setattr(mixedchar, "CHUNK", chunk)
            assert_bits_equal(mixed_char_poly(inst), want)


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def node_matrices(e, prefix):
    """Pinned atom outer products, then the remaining covariances."""
    mats = []
    for i, v in enumerate(e.vectors):
        if i < len(prefix):
            w = v.values[prefix[i]]
            mats.append(np.outer(w, w.conj()))
        else:
            mats.append(covariance(v))
    return mats


def ks_ensembles():
    diag = gen_diagonal(3, 1.0 / 3.0)
    rotated = WeaverInstance(
        3, diag.vectors @ haar_unitary(3, np.random.default_rng(5)).T,
        diag.delta)
    k5 = Graph(5, tuple((a, b, 1.0) for a in range(5)
                        for b in range(a + 1, 5)))
    return {
        "gauss-r2": lift(gen_gaussian(3, 0.25, seed=3), 2),
        "rotated-diag-r3": lift(rotated, 3),
        "k5-r2": lift(gen_from_graph(k5)[0], 2),
    }


@pytest.mark.parametrize("name", ["gauss-r2", "rotated-diag-r3", "k5-r2"])
def test_lifted_nodes_bit_identical_to_loop(name):
    e = ks_ensembles()[name]
    rng = np.random.default_rng(17)
    m = len(e.vectors)
    for length in (0, 1, m // 2, m - 1):
        prefix = tuple(int(rng.integers(0, s))
                       for s in e.support_sizes[:length])
        weight = 1.0
        for v, t in zip(e.vectors, prefix):
            weight *= float(v.probabilities[t])
        want = weight * reference_subset_mixed(node_matrices(e, prefix), e.dim)
        assert_bits_equal(conditional_expected_poly(e, prefix), want)


# -- bit-for-bit reference for the outcome enumerator -----------------------

def reference_outcome_sums(e):
    """Every outcome's sum and weight, in product order, gathered from its
    atom indices: each sum adds its atoms' outer products into zero in index
    order, each weight multiplies its probabilities into one."""
    sizes = e.support_sizes
    idx = np.array(list(product(*(range(s) for s in sizes))),
                   dtype=np.intp).reshape(e.leaf_count, len(sizes))
    sums = np.zeros((idx.shape[0], e.dim, e.dim), dtype=np.complex128)
    weights = np.ones(idx.shape[0])
    for i, v in enumerate(e.vectors):
        outer = np.einsum("aj,ak->ajk", v.values, v.values.conj())
        sums += outer[idx[:, i]]
        weights *= v.probabilities[idx[:, i]]
    return sums, weights, idx


def ensemble_with_sizes(rng, d, sizes):
    vectors = []
    for l in sizes:
        vals = 0.5 * (rng.standard_normal((l, d)) +
                      1j * rng.standard_normal((l, d)))
        vals[rng.random((l, d)) < 0.2] = 0.0
        vals.real[rng.random((l, d)) < 0.2] *= -0.0
        vals.imag[rng.random((l, d)) < 0.2] *= -0.0
        vectors.append(FiniteSupportVector(rng.dirichlet(np.ones(l)), vals))
    return RandomVectorEnsemble(d, tuple(vectors))


@pytest.mark.parametrize("sizes", [(3, 1, 5, 2), (7, 5, 1, 9, 3, 5, 2),
                                   (2, 4100), (5,), ()],
                         ids=["ragged", "over-chunk", "wide-vector",
                              "single", "empty"])
def test_outcome_sums_bit_identical_to_gather(sizes, monkeypatch):
    rng = np.random.default_rng(sum(sizes) + len(sizes))
    e = ensemble_with_sizes(rng, 3, sizes)
    want_sums, want_weights, idx = reference_outcome_sums(e)
    tops = np.linalg.eigvalsh(want_sums)[:, -1]
    best = int(np.argmin(tops))
    for chunk in (mixedchar.CHUNK, 3, 1):
        monkeypatch.setattr(mixedchar, "CHUNK", chunk)
        got = outcome_sums(e, lambda first, w, s: (first, w, s), 0.0, "test")
        assert [first for first, _, _ in got] == \
            list(np.cumsum([0] + [len(w) for _, w, _ in got[:-1]]))
        assert max(len(w) for _, w, _ in got) <= chunk
        assert_bits_equal(np.concatenate([s for _, _, s in got]), want_sums)
        assert_bits_equal(np.concatenate([w for _, w, _ in got]),
                          want_weights)
        assignment, value = exhaustive_minimum(e)
        assert assignment == tuple(int(t) for t in idx[best])
        assert_bits_equal(np.array(value), tops[best])
