"""Dense complex linear algebra kernels.

Matrices are plain numpy arrays (complex128).  Hermitian inputs are checked
against the policy tolerance and then symmetrized, so downstream code can rely
on exact conjugate symmetry.  Characteristic polynomials use ascending
coefficient order throughout the package; ``char_poly_stack`` forms them
for a whole stack at once, in cache-sized blocks, with its traces summed
in ``np.trace``'s own order so every bit matches the plain recursion.
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


BLOCK_BYTES = 1 << 18
"""Bytes of one block of a stack in ``char_poly_stack``: about 256 KiB per
array (1,024 matrices at d = 4), so each product and its temporaries stay
in cache instead of being faulted in again for every block."""


def _pairwise(x, lo: int, n: int):
    """x[lo] + ... + x[lo + n - 1], n >= 1, in the order of numpy's pairwise
    add-reduce on complex terms: one after another below 4 terms, in four
    lanes combined as (l0 + l1) + (l2 + l3) and then the rest one after
    another up to 64, and above that the first (n - n % 8) // 2 terms and
    the others on their own, then their sum.  The terms are complex scalars
    or arrays; adding 0.0, the reduction's start, then gives ``np.sum``'s
    bits, so ``_pairwise`` of a stack's diagonal columns plus 0.0 is its
    ``np.trace``."""
    if n < 4:
        s = x[lo]
        for i in range(lo + 1, lo + n):
            s = s + x[i]
        return s
    if n <= 64:
        lanes = [x[lo + j] for j in range(4)]
        end = lo + n - n % 4
        for i in range(lo + 4, end, 4):
            lanes = [a + x[i + j] for j, a in enumerate(lanes)]
        s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
        for i in range(end, lo + n):
            s = s + x[i]
        return s
    half = (n - n % 8) // 2
    return _pairwise(x, lo, half) + _pairwise(x, lo + half, n - half)


def char_poly_stack(ms: np.ndarray) -> np.ndarray:
    """Characteristic polynomials of a stack of matrices, ascending coeffs.

    Faddeev-LeVerrier trace recursion: with M_1 = A and c_1 = -tr A, iterate
    M_{k+1} = A (M_k + c_k I), c_{k+1} = -tr(M_{k+1}) / (k+1); then
    det(xI - A) = x^d + c_1 x^{d-1} + ... + c_d.  Exact in the absence of
    rounding, but it divides by k at every step and rounding errors grow
    with d and with the spread of the spectrum.

    A stack costs d - 2 batched matrix products (none for d <= 2): M_1 is A
    itself, and the last step needs only a trace, c_d = -tr(A B) / d with
    B = M_{d-1} + c_{d-1} I, taken as the elementwise sum of A_ij B_ji in
    O(d^2) per matrix.  c_1 .. c_{d-1} are bit-identical to the recursion
    that forms every product, M_1 = A I included, with ``np.trace``: taking
    A for A I and adding c_k to the diagonal for adding c_k I change only
    the signs of zero entries, which no nonzero sum sees, and a zero trace
    is +0 either way; each trace is ``_pairwise`` over the diagonal columns
    plus 0.0, numpy's own order, without a reduction per matrix.  Only c_d
    changes, in its last bits.  The stack is taken in blocks of about
    BLOCK_BYTES; no coefficient depends on the blocking.

    The matrices must be Hermitian: the coefficients are then real, and only
    the real part of each trace is kept, without a check.
    """
    ms = np.asarray(ms, dtype=np.complex128)
    d = ms.shape[-1]
    coeffs = np.zeros(ms.shape[:-2] + (d + 1,), dtype=np.float64)
    coeffs[..., d] = 1.0
    if d == 0:
        return coeffs
    flat = ms.reshape(-1, d, d)
    out = coeffs.reshape(-1, d + 1)
    step = max(1, BLOCK_BYTES // (16 * d * d))
    diag = np.arange(d)
    for lo in range(0, len(flat), step):
        a, c = flat[lo:lo + step], out[lo:lo + step]
        b = np.broadcast_to(np.eye(d, dtype=np.complex128), a.shape)  # B_0 = I
        for k in range(1, d):
            b = a.copy() if k == 1 else a @ b  # M_k = A B_{k-1}
            c_k = -(_pairwise(b.diagonal(0, -2, -1).T, 0, d) + 0.0) / k
            c[:, d - k] = c_k.real
            b[:, diag, diag] += c_k[:, None]  # B_k = M_k + c_k I
        c[:, 0] = -np.einsum("...ij,...ji->...", a, b).real / d
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
