"""Dense Hermitian kernel: determinants, characteristic polynomials,
Jacobi's directional derivative, PSD checks, and the isotropy normalizer."""

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from kspart import SingularMatrixError, ValidationError
from kspart.linalg import (
    as_hermitian,
    char_poly,
    check_psd,
    det,
    isotropic_normalizer,
    jacobi_directional,
    operator_norm,
)


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
