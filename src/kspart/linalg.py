"""Dense complex linear algebra kernels.

Matrices are plain numpy arrays (complex128).  Hermitian inputs are checked
against the policy tolerance and then symmetrized, so downstream code can rely
on exact conjugate symmetry.  Characteristic polynomials use ascending
coefficient order throughout the package.
"""
from __future__ import annotations

import numpy as np

from .policy import (
    DEFAULT_POLICY,
    NumericPolicy,
    SingularMatrixError,
    ValidationError,
)


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m.view(np.float64))):
        raise ValidationError("matrix has non-finite entries")
    return m


def as_complex_vector(entries) -> np.ndarray:
    v = np.asarray(entries, dtype=np.complex128)
    if v.ndim != 1:
        raise ValidationError(f"expected a vector, got shape {v.shape}")
    if v.size and not np.all(np.isfinite(v.view(np.float64))):
        raise ValidationError("vector has non-finite entries")
    return v


def as_hermitian(entries, policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Validate conjugate symmetry, then return the symmetrized matrix."""
    m = as_complex_matrix(entries)
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
    dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if dev > policy.hermitian_rtol * scale:
        raise ValidationError(
            f"matrix is not Hermitian: deviation {dev:.3e} exceeds "
            f"{policy.hermitian_rtol:.1e} * scale"
        )
    return (m + m.conj().T) / 2.0


def det(m) -> complex:
    """Determinant via pivoted elimination; the empty matrix has det 1."""
    a = as_complex_matrix(m)
    if a.shape[0] == 0:
        return 1.0 + 0.0j
    return complex(np.linalg.det(a))


def char_poly_stack(ms: np.ndarray) -> np.ndarray:
    """Characteristic polynomials of a stack of matrices, ascending coeffs.

    Faddeev-LeVerrier trace recursion: with M_1 = A and c_1 = -tr A, iterate
    M_{k+1} = A (M_k + c_k I), c_{k+1} = -tr(M_{k+1}) / (k+1); then
    det(xI - A) = x^d + c_1 x^{d-1} + ... + c_d.  Exact in the absence of
    rounding, but it divides by k at every step and rounding errors grow
    with d and with the spread of the spectrum.

    The matrices must be Hermitian: the coefficients are then real, and only
    the real part of each trace is kept, without a check.
    """
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


def char_poly(m, policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Characteristic polynomial det(xI - M) of a Hermitian matrix."""
    a = as_hermitian(m, policy)
    return char_poly_stack(a)


def _singularity_threshold(a: np.ndarray, policy: NumericPolicy) -> float:
    d = a.shape[0]
    if d == 0:
        return 0.0
    row = float(np.max(np.linalg.norm(a, axis=1)))
    return policy.singularity_rtol * max(row, 1e-300) ** d


def jacobi_directional(a, b, policy: NumericPolicy = DEFAULT_POLICY) -> complex:
    """Directional determinant derivative d/dt det(A + tB) at t=0.

    Jacobi's formula det(A) tr(A^{-1} B); A must be invertible.
    """
    am = as_complex_matrix(a)
    bm = as_complex_matrix(b)
    if am.shape != bm.shape:
        raise ValidationError("matrices must share a dimension")
    base = det(am)
    if abs(base) < _singularity_threshold(am, policy):
        raise SingularMatrixError(
            f"base determinant {abs(base):.3e} below the singularity threshold"
        )
    try:
        solved = np.linalg.solve(am, bm)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    return complex(base * np.trace(solved))


def operator_norm(m, policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """Largest eigenvalue of a PSD Hermitian matrix.

    Indefinite input (smallest eigenvalue below -psd_rtol * scale) is
    rejected rather than silently absolute-valued.
    """
    a = as_hermitian(m, policy)
    if a.shape[0] == 0:
        return 0.0
    ev = np.linalg.eigvalsh(a)
    scale = max(1.0, float(np.max(np.abs(ev))))
    if ev[0] < -policy.psd_rtol * scale:
        raise ValidationError(
            f"matrix is indefinite: smallest eigenvalue {ev[0]:.3e}"
        )
    return float(ev[-1])


def check_psd(m, policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Validate positive semidefiniteness; returns the symmetrized matrix."""
    a = as_hermitian(m, policy)
    if a.shape[0]:
        ev = np.linalg.eigvalsh(a)
        scale = max(1.0, float(np.max(np.abs(ev))))
        if ev[0] < -policy.psd_rtol * scale:
            raise ValidationError(
                f"matrix is not PSD: smallest eigenvalue {ev[0]:.3e}"
            )
    return a


def isotropic_normalizer(v, policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Inverse square root V^{-1/2} of a positive definite Hermitian V.

    Used to renormalize vector systems into isotropic position:
    W (sum v v*) W = I for W = V^{-1/2} with V = sum v v*.
    """
    a = as_hermitian(v, policy)
    if a.shape[0] == 0:
        return a.copy()
    lam, q = np.linalg.eigh(a)
    scale = max(1.0, float(np.max(np.abs(lam))))
    if lam[0] <= policy.rank_rtol * scale:
        raise ValidationError(
            f"matrix is rank-deficient at tolerance: smallest eigenvalue {lam[0]:.3e}"
        )
    w = (q * (1.0 / np.sqrt(lam))) @ q.conj().T
    return (w + w.conj().T) / 2.0
