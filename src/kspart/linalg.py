"""Dense complex linear algebra kernels.

Matrices are plain numpy arrays (complex128).  Hermitian inputs are checked
against the policy tolerance and then symmetrized, so downstream code can rely
on exact conjugate symmetry.  Characteristic polynomials use ascending
coefficient order throughout the package; ``char_poly_stack`` forms them
for a whole stack at once, in cache-sized blocks, with its traces summed
in ``np.trace``'s own order so every bit matches the plain recursion.
``rank_one_char_polys`` runs its own recursion on real float views, each
product one real batched ``matmul`` against the block's interleaved
embedding of A and iA, and keeps the adjugate coefficients, from which
each rank-one update's polynomial follows by the matrix determinant lemma;
no bit contract covers it, so the two recursions share no code.
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
        raise _not_hermitian(dev, policy)
    return (m + m.conj().T) / 2.0


def _not_hermitian(dev: float, policy: NumericPolicy) -> ValidationError:
    return ValidationError(
        f"matrix is not Hermitian: deviation {dev:.3e} exceeds "
        f"{policy.hermitian_rtol:.1e} * scale"
    )


def square_stack(matrices, d: int | None = None) -> np.ndarray | None:
    """The matrices as one complex (n, d, d) array if there is at least one
    and each is d x d, for the given d or for one they share; else None."""
    shapes = {np.shape(m) for m in matrices}
    if len(shapes) != 1:
        return None
    (shape,) = shapes
    if len(shape) != 2 or shape[0] != shape[1] or d not in (None, shape[0]):
        return None
    return np.asarray(matrices, dtype=np.complex128)


def hermitian_stack(ms: np.ndarray, policy: NumericPolicy = DEFAULT_POLICY,
                    psd: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Validate a stack (n, d, d) matrix by matrix, as ``as_hermitian``
    validates one, or ``check_psd`` with psd=True: each matrix is held to
    its own scale, and the first that fails raises that function's message.
    Returns the symmetrized stack and its eigenvalues, ascending, from one
    ``eigvalsh``."""
    d = ms.shape[-1]
    finite = np.isfinite(ms).all(axis=(1, 2))
    a = ms if finite.all() else np.where(finite[:, None, None], ms, 0.0)
    h = a.conj().swapaxes(1, 2)
    scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2), initial=0.0))
    dev = np.abs(a - h).max(axis=(1, 2), initial=0.0)
    a = (a + h) / 2.0
    ev = np.linalg.eigvalsh(a)
    ok = finite & (dev <= policy.hermitian_rtol * scale)
    if psd and d:
        top = np.maximum(1.0, np.abs(ev).max(axis=1))
        ok &= ~(ev[:, 0] < -policy.psd_rtol * top)
    if not ok.all():
        i = int(np.argmin(ok))
        if not finite[i]:
            raise ValidationError("matrix has non-finite entries")
        if not dev[i] <= policy.hermitian_rtol * scale[i]:
            raise _not_hermitian(float(dev[i]), policy)
        raise ValidationError(
            f"matrix is not PSD: smallest eigenvalue {ev[i, 0]:.3e}")
    return a, ev


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


def _leverrier(a: np.ndarray, c: np.ndarray):
    """One block of the Faddeev-LeVerrier recursion: c_k into c[:, d - k],
    k = 1 .. d, for the n Hermitian d x d matrices of a, d >= 1, each
    product a new array, as ``char_poly_stack``'s bit contract was measured
    with."""
    d = a.shape[-1]
    diag = np.arange(d)
    b = np.broadcast_to(np.eye(d, dtype=np.complex128), a.shape)  # B_0 = I
    for k in range(1, d):
        b = a.copy() if k == 1 else a @ b  # M_k = A B_{k-1}
        c_k = -(_pairwise(b.diagonal(0, -2, -1).T, 0, d) + 0.0) / k
        c[:, d - k] = c_k.real
        b[:, diag, diag] += c_k[:, None]  # B_k = M_k + c_k I
    c[:, 0] = -np.einsum("...ij,...ji->...", a, b).real / d


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
    for lo in range(0, len(flat), step):
        _leverrier(flat[lo:lo + step], out[lo:lo + step])
    return coeffs


def rank_one_char_polys(ms: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """det(xI - A - v v*) for every matrix A of the stack ms, shape (n, d, d),
    and every vector v of vs, shape (l, d): shape (n, l, d + 1), ascending.

    Matrix determinant lemma in adjugate form, which holds for singular
    xI - A too: det(xI - A - v v*) = det(xI - A) - v* adj(xI - A) v, and
    adj(xI - A) = sum_k B_k x^(d-1-k) with the adjugate coefficients
    B_0 = I, B_k = B_{k-1} A + c_k I of the Faddeev-LeVerrier recursion
    (B_{k-1} commutes with A), so one pass per matrix serves all its vectors.

    The pass runs on float views, (d, 2d) real per matrix.  For a block of
    matrices, E is the real (2d, 2d) embedding of each A whose rows 2k and
    2k + 1 are the float views of row k of A and of iA, so that
    view(B) @ E = view(B A) for any complex B: each product is one real
    batched ``matmul``.  The traces and the + c_k I updates read the real
    diagonal, every (2d + 2)-th float of a view, and c_d = -tr(A B_{d-1})/d
    is the dot product of the views of A and B_{d-1}, A being Hermitian.
    The quadratic forms v* B_k v = sum_ij Re(B_ij) Re(W_ij) + Im(B_ij)
    Im(W_ij), W = v v*, of a block are one real matrix product,
    (d n, 2 d^2) @ (2 d^2, l).  The matrices must be Hermitian; unlike
    ``char_poly_stack``, no bit contract covers the result.  A block holds
    about BLOCK_BYTES of adjugate coefficients, and the buffers are
    allocated once a call.
    """
    ms = np.ascontiguousarray(ms, dtype=np.complex128)
    vs = np.asarray(vs, dtype=np.complex128)
    d, n, l = vs.shape[1], len(ms), len(vs)
    leaves = np.zeros((n, l, d + 1))
    leaves[..., d] = 1.0
    if d == 0 or n == 0:
        return leaves
    w = 2 * d
    outer = np.ascontiguousarray(np.einsum("aj,ak->ajk", vs, vs.conj()))
    forms = outer.view(np.float64).reshape(l, d * w).T
    step = min(n, max(1, BLOCK_BYTES // (16 * d ** 3)))  # d matrices each
    emb = np.empty((step, d, 2, d), dtype=np.complex128)  # A, iA rows
    adj = np.empty((d, step, d * w))  # views of B_0 .. B_{d-1}, flattened
    adj[0] = np.eye(d, dtype=np.complex128).view(np.float64).reshape(-1)
    c = np.empty((step, d))  # c_k at [:, d - k]
    for lo in range(0, n, step):
        a = ms[lo:lo + step]
        b = len(a)
        if d > 2:  # the first product is M_2
            emb[:b, :, 0] = a
            np.multiply(a, 1j, out=emb[:b, :, 1])
            e = emb[:b].view(np.float64).reshape(b, w, w)
        flat = a.view(np.float64).reshape(b, d * w)
        for k in range(1, d):
            m = adj[k, :b]
            if k == 1:
                m[...] = flat  # M_1 = A
            else:
                np.matmul(adj[k - 1, :b].reshape(b, d, w), e,
                          out=m.reshape(b, d, w))  # M_k = B_{k-1} A
            diag = m[:, ::w + 2]
            c_k = diag.sum(axis=1) / -k
            c[:b, d - k] = c_k
            diag += c_k[:, None]  # B_k = M_k + c_k I
        c[:b, 0] = np.einsum("ij,ij->i", adj[d - 1, :b], flat) / -d
        q = (adj[:, :b].reshape(d * b, d * w) @ forms
             ).reshape(d, b, l)  # v* B_k v at [k, matrix, vector]
        leaves[lo:lo + b, :, :d] = c[:b, None] - q[::-1].transpose(1, 2, 0)
    return leaves


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
    return hermitian_stack(as_complex_matrix(m)[None], policy, psd=True)[0][0]


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
