"""Dense Hermitian kernel: determinants, characteristic polynomials,
Jacobi's directional derivative, PSD checks, and the isotropy normalizer."""

from fractions import Fraction
from itertools import permutations

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from kspart import (DeterminantEvaluator, Graph, MixedInstance,
                    SingularMatrixError, ValidationError, WeaverInstance,
                    gen_diagonal, gen_from_graph, gen_gaussian, linalg,
                    partition, weaver)
from kspart.linalg import (
    as_hermitian,
    char_poly,
    char_poly_stack,
    check_psd,
    det,
    isotropic_normalizer,
    jacobi_directional,
    operator_norm,
    rank_one_char_poly_sum,
    rank_one_char_polys,
)

from test_mixedchar import haar_unitary


def random_hermitian(rng, d, scale=1.0):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (a + a.conj().T) / 2.0


def test_as_hermitian_accepts_and_symmetrizes():
    a = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]])
    out = as_hermitian(a)
    assert np.array_equal(out, out.conj().T)
    # roundoff-level asymmetry is absorbed
    b = a.copy()
    b[0, 1] += 1e-15
    out = as_hermitian(b)
    assert np.allclose(out, out.conj().T)


def test_as_hermitian_rejects_asymmetry():
    with pytest.raises(ValidationError):
        as_hermitian([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        as_hermitian([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_det_empty_and_diagonal():
    assert det(np.zeros((0, 0))) == 1.0 + 0.0j
    assert abs(det(np.diag([2.0, 3.0])) - 6.0) < 1e-12


def test_char_poly_pinned_examples():
    # det(xI - diag(1,2)) = (x-1)(x-2) = x^2 - 3x + 2
    assert np.allclose(char_poly(np.diag([1.0, 2.0])), [2.0, -3.0, 1.0],
                       atol=1e-12)
    # the swap matrix has eigenvalues +-1
    assert np.allclose(char_poly([[0.0, 1.0], [1.0, 0.0]]), [-1.0, 0.0, 1.0],
                       atol=1e-12)


def test_char_poly_identity_and_empty():
    assert np.allclose(char_poly(np.eye(3)), [-1.0, 3.0, -3.0, 1.0],
                       atol=1e-12)
    assert np.array_equal(char_poly(np.zeros((0, 0))), [1.0])


def test_char_poly_matches_eigenvalue_route():
    # trace recursion against the eigenvalue product, two independent paths
    rng = np.random.default_rng(11)
    for _ in range(30):
        d = int(rng.integers(1, 7))
        a = random_hermitian(rng, d)
        p = char_poly(a)
        lam = np.linalg.eigvalsh(a)
        q = npp.polyfromroots(lam).real
        scale = max(1.0, float(np.max(np.abs(q))))
        assert np.max(np.abs(p - q)) <= 1e-9 * scale


def test_jacobi_directional_identity_case():
    # d/dt det(I + tB) at 0 equals tr B
    b = np.array([[2.0, 1.0], [0.0, 5.0]])
    assert abs(jacobi_directional(np.eye(2), b) - 7.0) < 1e-12


def test_jacobi_directional_matches_finite_difference():
    rng = np.random.default_rng(17)
    step = 1e-6
    for _ in range(20):
        d = int(rng.integers(1, 6))
        a = random_hermitian(rng, d) + 2.0 * d * np.eye(d)
        b = random_hermitian(rng, d)
        got = jacobi_directional(a, b)
        fd = (det(a + step * b) - det(a - step * b)) / (2.0 * step)
        assert abs(got - fd) <= 1e-5 * max(1.0, abs(got))


def test_jacobi_directional_rejects_singular_base():
    with pytest.raises(SingularMatrixError):
        jacobi_directional(np.diag([1.0, 0.0]), np.eye(2))


def test_operator_norm():
    a = np.diag([0.3, 0.7])
    assert abs(operator_norm(a) - 0.7) < 1e-12
    # indefinite input is flagged rather than absolute-valued
    with pytest.raises(ValidationError):
        operator_norm(np.diag([-2.0, 1.0]))


def test_check_psd():
    check_psd(np.diag([0.0, 1.0]))
    with pytest.raises(ValidationError):
        check_psd(np.diag([1.0, -1.0]))


def test_isotropic_normalizer_diagonal_example():
    w = isotropic_normalizer(np.diag([4.0, 9.0]))
    assert np.allclose(w, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)


def test_isotropic_normalizer_whitens_random_frames():
    rng = np.random.default_rng(29)
    for _ in range(15):
        d = int(rng.integers(1, 6))
        vecs = rng.standard_normal((2 * d + 1, d)) + \
            1j * rng.standard_normal((2 * d + 1, d))
        v = np.einsum("ij,ik->jk", vecs, vecs.conj())
        w = isotropic_normalizer(v)
        assert np.max(np.abs(w @ v @ w - np.eye(d))) <= 1e-9


def test_isotropic_normalizer_rejects_rank_deficiency():
    with pytest.raises(ValidationError):
        isotropic_normalizer(np.diag([1.0, 0.0]))


# -- the trace recursion with every product formed -------------------------

def reference_char_poly_stack(ms):
    """Faddeev-LeVerrier with all d products, M_1 = A I included; its
    c_1 .. c_{d-1} are what char_poly_stack must reproduce bit for bit."""
    ms = np.asarray(ms, dtype=np.complex128)
    d = ms.shape[-1]
    batch = ms.shape[:-2]
    coeffs = np.zeros(batch + (d + 1,), dtype=np.float64)
    coeffs[..., d] = 1.0
    if d == 0:
        return coeffs
    eye = np.eye(d, dtype=np.complex128)
    m_k = np.zeros_like(ms)
    c_k = np.ones(batch, dtype=np.complex128)
    for k in range(1, d + 1):
        m_k = ms @ (m_k + c_k[..., None, None] * eye)
        c_k = -np.trace(m_k, axis1=-2, axis2=-1) / k
        coeffs[..., d - k] = c_k.real
    return coeffs


def assert_matches_reference(stack):
    """c_1 .. c_{d-1} bit for bit, the leading 1, and c_d to rounding."""
    got, want = char_poly_stack(stack), reference_char_poly_stack(stack)
    assert got.shape == want.shape
    assert np.array_equal(got[..., 1:].view(np.int64),
                          want[..., 1:].view(np.int64))
    scale = np.maximum(1.0, np.max(np.abs(want), axis=-1))
    assert np.all(np.abs(got[..., 0] - want[..., 0]) <= 1e-12 * scale)


def random_hermitian_stack(rng, n, d, zeros=False):
    a = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    a = (a + a.conj().swapaxes(-1, -2)) / 2.0
    if zeros:  # zero entries of both signs
        a[rng.random((n, d, d)) < 0.3] = 0.0
        a.real[rng.random((n, d, d)) < 0.3] *= -0.0
        a.imag[rng.random((n, d, d)) < 0.3] *= -0.0
    return a


@pytest.mark.parametrize("d", range(10))
def test_char_poly_stack_bits_on_random_stacks(d):
    rng = np.random.default_rng(70 + d)
    assert_matches_reference(random_hermitian_stack(rng, 200, d))
    assert_matches_reference(random_hermitian_stack(rng, 200, d, zeros=True))
    signed_zeros = np.zeros((4, d, d), dtype=np.complex128)
    signed_zeros[1] = -0.0
    signed_zeros[2] = complex(-0.0, -0.0)
    signed_zeros[3] = complex(0.0, -0.0)
    assert_matches_reference(signed_zeros)
    assert_matches_reference(random_hermitian_stack(rng, 6, d)[0])


def descent_instances():
    diag = gen_diagonal(3, 1.0 / 3.0)
    haar = WeaverInstance(
        3, diag.vectors @ haar_unitary(3, np.random.default_rng(5)).T,
        diag.delta)
    k5 = gen_from_graph(Graph(5, tuple((a, b, 1.0) for a in range(5)
                                       for b in range(a + 1, 5))))[0]
    return {"gauss-r2": (gen_gaussian(3, 0.25, seed=0), 2),
            "haar-diag-r3": (haar, 3), "k5-r2": (k5, 2)}


@pytest.mark.parametrize("name", ["gauss-r2", "haar-diag-r3", "k5-r2"])
def test_char_poly_stack_bits_on_descent_stacks(name, monkeypatch):
    inst, r = descent_instances()[name]
    stacks = []

    def recording(ms):
        stacks.append(np.array(ms, dtype=np.complex128))
        return char_poly_stack(ms)

    monkeypatch.setattr(linalg, "char_poly_stack", recording)
    # the lattice engine's stacks; the state engine builds none
    monkeypatch.setattr(weaver, "_picks_states", lambda lattice, states: False)
    partition(inst, r)
    assert stacks
    for stack in stacks:
        assert_matches_reference(stack)


@pytest.mark.parametrize("d", [*range(1, 71), 130])
def test_pairwise_plus_zero_is_np_trace(d):
    # numpy's own order; fails if a numpy upgrade changes how it reduces
    rng = np.random.default_rng(300 + d)
    n = 50 if d <= 16 else 8
    random = ((rng.standard_normal((n, d, d))
               + 1j * rng.standard_normal((n, d, d)))
              * np.exp(rng.uniform(-30, 30, (n, d, d))))
    zeros = np.zeros((4, d, d), dtype=np.complex128)
    zeros[1] = -0.0
    zeros[2] = complex(-0.0, -0.0)
    zeros[3] = complex(0.0, -0.0)
    for stack in (random, zeros):
        got = linalg._pairwise(stack.diagonal(0, -2, -1).T, 0, d) + 0.0
        want = np.trace(stack, axis1=-2, axis2=-1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_char_poly_stack_blocks_give_the_same_bits(monkeypatch):
    rng = np.random.default_rng(41)
    stacks = [random_hermitian_stack(rng, n, d, zeros=z)
              for d in range(6) for n in (1, 7, 3000) for z in (False, True)]
    stacks.append(random_hermitian_stack(rng, 60, 4).reshape(3, 20, 4, 4))
    want = [char_poly_stack(s) for s in stacks]
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 1)  # one matrix a block
    for stack, w in zip(stacks, want):
        got = char_poly_stack(stack)
        assert got.shape == w.shape
        assert np.array_equal(got.view(np.int64), w.view(np.int64))


def gaussian_integer_det(a) -> Fraction:
    """det of a matrix of Gaussian integers by Leibniz's formula, exactly;
    its imaginary part must vanish (the matrix is Hermitian)."""
    d = len(a)
    re = im = 0
    for perm in permutations(range(d)):
        sign = -1 if sum(perm[i] > perm[j] for i in range(d)
                         for j in range(i + 1, d)) % 2 else 1
        pr, pi = 1, 0
        for i, j in enumerate(perm):
            x, y = int(a[i][j].real), int(a[i][j].imag)
            pr, pi = pr * x - pi * y, pr * y + pi * x
        re += sign * pr
        im += sign * pi
    assert im == 0
    return Fraction(re)


def test_char_poly_stack_constant_term_exact_on_integer_matrices():
    rng = np.random.default_rng(97)
    for d in range(1, 7):
        for _ in range(10):
            a = rng.integers(-3, 4, (d, d)) + 1j * rng.integers(-3, 4, (d, d))
            a = np.triu(a, 1)
            a = a + a.conj().T + np.diag(rng.integers(-4, 5, d))
            want = (-1) ** d * gaussian_integer_det(a)
            got = Fraction(float(char_poly_stack(a)[0]))
            assert abs(got - want) <= Fraction(1, 10 ** 12) * max(1, abs(want))


# -- rank-one leaves: the matrix determinant lemma --------------------------

def random_psd_stack(rng, n, d):
    """Hermitian PSD matrices with spectra about [0, 2], as outcome sums of
    an isotropic ensemble have."""
    g = (rng.standard_normal((n, d, 2 * d))
         + 1j * rng.standard_normal((n, d, 2 * d))) / np.sqrt(2 * d)
    return g @ g.conj().swapaxes(-1, -2)


def assert_leaves_match(stack, vs):
    got = rank_one_char_polys(stack, vs)
    outer = np.einsum("aj,ak->ajk", vs, vs.conj())
    want = char_poly_stack(stack[:, None] + outer[None])
    assert got.shape == want.shape
    scale = np.max(np.abs(want), axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("d", range(1, 9))
def test_rank_one_char_polys_match_char_poly_stack(d):
    rng = np.random.default_rng(500 + d)
    stack = random_psd_stack(rng, 300, d)
    vs = (rng.standard_normal((5, d))
          + 1j * rng.standard_normal((5, d))) / np.sqrt(2 * d)
    assert_leaves_match(stack, vs)
    assert_leaves_match(stack, vs[:1])  # a one-atom last vector
    vs[2] = 0.0  # a zero atom leaves det(xI - A) itself
    assert_leaves_match(stack, vs)
    assert np.array_equal(rank_one_char_polys(stack, vs)[:, 2],
                          rank_one_char_polys(stack, vs[2:3])[:, 0])
    # the empty prefix: a single zero sum, det(xI - v v*) = x^d - |v|^2 x^(d-1)
    zero = np.zeros((1, d, d), dtype=np.complex128)
    assert_leaves_match(zero, vs)
    want = np.zeros((len(vs), d + 1))
    want[:, d] = 1.0
    want[:, d - 1] = -np.sum(np.abs(vs) ** 2, axis=1)
    assert np.allclose(rank_one_char_polys(zero, vs)[0], want,
                       rtol=0.0, atol=1e-15)


def test_rank_one_char_polys_blocks(monkeypatch):
    rng = np.random.default_rng(43)
    stack = random_psd_stack(rng, 50, 3)
    vs = rng.standard_normal((4, 3)) + 0j
    want = rank_one_char_polys(stack, vs)
    # blocks hold 16 d^3 bytes a matrix: seven of 7, then 1
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 16 * 27 * 7)
    assert np.allclose(rank_one_char_polys(stack, vs), want, rtol=0.0,
                       atol=1e-14 * np.max(np.abs(want)))
    empty = rank_one_char_polys(np.zeros((0, 3, 3)), vs)
    assert empty.shape == (0, 4, 4)


@pytest.mark.parametrize("d", range(1, 9))
def test_rank_one_char_poly_sum_of_one_outcome_is_its_leaf(d):
    rng = np.random.default_rng(600 + d)
    stack = random_psd_stack(rng, 300, d)
    vs = (rng.standard_normal((5, d))
          + 1j * rng.standard_normal((5, d))) / np.sqrt(2 * d)
    leaves = rank_one_char_polys(stack, vs)
    for s, t in ((0, 0), (137, 3), (299, 4)):
        one_hot = np.zeros((300, 5))
        one_hot[s, t] = 1.0
        got = rank_one_char_poly_sum(stack, vs, one_hot)
        want = leaves[s, t]
        assert np.all(np.abs(got - want) <= 1e-12 * np.max(np.abs(want)))


NOT_HERMITIAN = "matrix is not Hermitian: deviation 2.500e-01 exceeds 1.0e-12 * scale"
NOT_PSD = "matrix is not PSD: smallest eigenvalue -5.000e-01"


@pytest.mark.parametrize("bad, mixed, determinant", [
    (np.array([[0.5, 0.25], [0.0, 0.5]]), NOT_HERMITIAN, NOT_HERMITIAN),
    (np.diag([1.0, -0.5]), NOT_PSD, None),
    (np.eye(3) / 2, "matrix 1 has dimension 3, instance has 2",
     "matrices must share a dimension"),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), "matrix has non-finite entries",
     "matrix has non-finite entries"),
], ids=["not-hermitian", "indefinite", "wrong-dimension", "non-finite"])
def test_stacked_validation_keeps_the_messages_of_one_matrix(
        bad, mixed, determinant):
    # the faulty matrix is at index 1 of 3; the evaluator checks symmetry
    # and the sizes, not definiteness
    good = np.diag([0.5, 0.5])
    mats = (good, bad, good)
    with pytest.raises(ValidationError) as err:
        MixedInstance(2, mats)
    assert str(err.value) == mixed
    if determinant is None:
        assert DeterminantEvaluator(mats).ranks == (2, 1, 2)
    else:
        with pytest.raises(ValidationError) as err:
            DeterminantEvaluator(mats)
        assert str(err.value) == determinant


def test_stacked_validation_raises_for_the_first_faulty_matrix():
    skew = np.array([[0.5, 0.25], [0.0, 0.5]])
    indefinite = np.diag([1.0, -0.5])
    with pytest.raises(ValidationError, match="not PSD"):
        linalg.hermitian_stack(np.stack([indefinite, skew]), psd=True)
    with pytest.raises(ValidationError, match="not Hermitian"):
        linalg.hermitian_stack(np.stack([indefinite, skew]))
    with pytest.raises(ValidationError, match="not Hermitian"):
        linalg.hermitian_stack(np.stack([skew, indefinite]), psd=True)
    # each matrix is held to its own scale: 1e-9 off symmetry passes next
    # to entries of 1e4 and fails next to entries of 1
    big = np.diag([1e4, 1e4]) + np.array([[0.0, 1e-9], [0.0, 0.0]])
    small = np.diag([1.0, 1.0]) + np.array([[0.0, 1e-9], [0.0, 0.0]])
    linalg.hermitian_stack(big[None])
    with pytest.raises(ValidationError, match="not Hermitian"):
        linalg.hermitian_stack(np.stack([big, small]))


def test_stacked_validation_matches_one_matrix_at_a_time():
    rng = np.random.default_rng(5)
    psd = np.stack([h @ h for h in (random_hermitian(rng, 4)
                                    for _ in range(6))])
    sym, ev = linalg.hermitian_stack(psd, psd=True)
    for one, a, e in zip(psd, sym, ev):
        assert np.array_equal(a, check_psd(one))
        assert np.array_equal(a, as_hermitian(one))
        assert np.array_equal(e, np.linalg.eigvalsh(as_hermitian(one)))
