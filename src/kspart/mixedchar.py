"""Expected characteristic polynomials of sums of independent random vectors.

The central object is the mixed characteristic polynomial of PSD matrices
A_1..A_m in dimension d,

    mu(x) = prod_i (1 - d/dz_i) det(xI + sum_i z_i A_i)  at z = 0,

which equals E det(xI - sum_i v_i v_i*) whenever the v_i are independent with
E v_i v_i* = A_i.  It is computed exactly (up to rounding) by a subset
expansion: det(xI + sum z_i A_i) is homogeneous of total degree d in (x, z),
so the coefficient of the multi-affine monomial prod_{i in S} z_i sits on
x^{d-|S|} and is extracted by the alternating sum

    g_S(x) = sum_{T subset S} (-1)^{|S|-|T|} det(xI + sum_{i in T} A_i);

contributions of z-degree >= 2 land strictly below x^{d-|S|} and are ignored.
This needs one characteristic polynomial per subset of size <= d and works
for PSD matrices of any rank.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from . import linalg, realpoly
from ._parallel import ordered_map
from .policy import DEFAULT_POLICY, NumericPolicy, ValidationError


@dataclass(frozen=True)
class FiniteSupportVector:
    """Random vector with finitely many atoms.

    probabilities: shape (l,), strictly positive, summing to 1 (renormalized
    when the drift is below prob_sum_tol, rejected beyond that).
    values: shape (l, d) complex atom values.
    policy: supplies prob_sum_tol; used at construction only, not stored.
    """

    probabilities: np.ndarray
    values: np.ndarray
    policy: InitVar[NumericPolicy] = DEFAULT_POLICY

    def __post_init__(self, policy: NumericPolicy):
        p = np.atleast_1d(np.asarray(self.probabilities, dtype=np.float64))
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 2:
            raise ValidationError(f"atom values must be 2-D, got shape {v.shape}")
        if p.shape[0] != v.shape[0] or p.shape[0] == 0:
            raise ValidationError("need one probability per atom, and at least one atom")
        if not np.all(np.isfinite(p)) or not np.all(np.isfinite(v.real)) \
                or not np.all(np.isfinite(v.imag)):
            raise ValidationError("non-finite atom data")
        if np.any(p <= 0):
            raise ValidationError("atom probabilities must be strictly positive")
        drift = abs(float(np.sum(p)) - 1.0)
        if drift > policy.prob_sum_tol:
            raise ValidationError(f"probabilities sum to 1 {drift:.3e} away from 1")
        p = p / np.sum(p)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def support_size(self) -> int:
        return self.values.shape[0]

    @classmethod
    def deterministic(cls, value) -> "FiniteSupportVector":
        v = linalg.as_complex_vector(value)
        return cls(np.array([1.0]), v[None, :])


@dataclass(frozen=True)
class RandomVectorEnsemble:
    """Independent finite-support random vectors sharing one dimension."""

    dim: int
    vectors: tuple[FiniteSupportVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(self.vectors))
        if self.dim < 1:
            raise ValidationError("ensemble dimension must be positive")
        for i, v in enumerate(self.vectors):
            if not isinstance(v, FiniteSupportVector):
                raise ValidationError(f"vector {i} is not a FiniteSupportVector")
            if v.dim != self.dim:
                raise ValidationError(
                    f"vector {i} has dimension {v.dim}, ensemble has {self.dim}"
                )

    @property
    def support_sizes(self) -> tuple[int, ...]:
        return tuple(v.support_size for v in self.vectors)

    @property
    def leaf_count(self) -> int:
        return math.prod(self.support_sizes) if self.vectors else 1


@dataclass(frozen=True)
class MixedInstance:
    """PSD matrices feeding the mixed characteristic polynomial.

    policy: tolerances of the PSD check; used at construction only.
    """

    dim: int
    matrices: tuple[np.ndarray, ...]
    policy: InitVar[NumericPolicy] = DEFAULT_POLICY

    def __post_init__(self, policy: NumericPolicy):
        mats = tuple(linalg.check_psd(m, policy) for m in self.matrices)
        for i, m in enumerate(mats):
            if m.shape[0] != self.dim:
                raise ValidationError(
                    f"matrix {i} has dimension {m.shape[0]}, instance has {self.dim}"
                )
        object.__setattr__(self, "matrices", mats)


def covariance(v: FiniteSupportVector) -> np.ndarray:
    """Second-moment matrix sum_j p_j w_j w_j* of a finite-support vector."""
    w = v.values
    c = (w.T * v.probabilities) @ w.conj()
    return (c + c.conj().T) / 2.0


def ensemble_covariances(e: RandomVectorEnsemble) -> list[np.ndarray]:
    return [covariance(v) for v in e.vectors]


def ensemble_instance(e: RandomVectorEnsemble,
                      policy: NumericPolicy = DEFAULT_POLICY) -> MixedInstance:
    return MixedInstance(e.dim, tuple(ensemble_covariances(e)), policy)


CHUNK = 4096
"""Matrices per ``char_poly_stack`` call in the subset expansion and the
outcome enumerator, so no stack holds more than CHUNK * D^2 entries."""

# Work model, in the units of NumericPolicy.work_cap (about a nanosecond
# each on the machine these were measured on, timing stacks of 4096):
POLY_WORK = 1_100
"""A characteristic polynomial of size D costs POLY_WORK * (D - 2), for its
D - 2 batched products and their traces, plus POLY_WORK_CUBE * D^3 (none
of the first for D <= 2): 0.12 us at D=2, 1.6 us at D=3, 3.2 us at D=4,
6.4 us at D=6, 12 us at D=8, 21 us at D=10, 65 us at D=16."""
POLY_WORK_CUBE = 15
TERM_WORK = 60
"""A signed term of the alternating sums; 50-120 ns a term over the
expansions with m = 16..20 and D = 6..10."""
GATHER_WORK = 5
"""A matrix entry added into an outcome sum, grown from its prefix's;
4-11 ns at D = 2..16."""


def _poly_work(dim: int) -> float:
    return POLY_WORK * max(dim - 2, 0) + POLY_WORK_CUBE * dim ** 3


def expansion_work(m: int, dim: int) -> float:
    """Predicted work of one subset expansion of m matrices of size dim:
    sum over k <= min(m, dim) of C(m, k) polynomials and C(m, k) 2^k terms."""
    return float(sum(math.comb(m, k) * (_poly_work(dim) + TERM_WORK * 2 ** k)
                     for k in range(min(m, dim) + 1)))


def outcome_sums(e: RandomVectorEnsemble, kernel, kernel_work: float,
                 what: str, policy: NumericPolicy = DEFAULT_POLICY) -> list:
    """kernel(first, weights, sums) over every outcome of e, in the order of
    product(*(range(s) for s in e.support_sizes)), at most CHUNK at a time.

    A call covers the consecutive outcomes first, first + 1, ...; sums holds
    their matrices sum_i v_i v_i* and weights their probabilities, and the
    results come back in outcome order.  The trailing vectors whose support
    sizes multiply to at most CHUNK form the inner block, and the vector
    before them is cut into slices that fill a chunk.  A call grows its sums
    from zero one vector at a time, in index order: by one atom of each
    leading vector, then by a slice of the cut vector and by every atom of
    the inner block.  Each outcome's sum so gets the same additions in the
    same order as adding its atoms' outer products into zero, and its weight
    the same products as multiplying its probabilities into one.

    The request is refused up front when leaves * (D^2 GATHER_WORK +
    kernel_work), kernel_work being the kernel's work per outcome, exceeds
    the work cap.
    """
    d, sizes, m = e.dim, e.support_sizes, len(e.vectors)
    policy.admit(math.prod(map(float, sizes)) * (d * d * GATHER_WORK
                                                 + kernel_work), what)
    outers = [
        np.einsum("aj,ak->ajk", v.values, v.values.conj())
        for v in e.vectors
    ]
    probs = [v.probabilities for v in e.vectors]
    inner, cut = 1, m  # vectors cut.. form the inner block
    while cut and inner * sizes[cut - 1] <= CHUNK:
        cut -= 1
        inner *= sizes[cut]
    width = [1] * cut + list(sizes[cut:])  # atoms of each vector in a chunk
    if cut:
        width[cut - 1] = CHUNK // inner

    def run_chunk(fixed):
        sums = np.zeros((1, d, d), dtype=np.complex128)
        weights = np.ones(1)
        first = 0
        for i, t in enumerate(fixed):
            atoms = slice(t, t + width[i])
            sums = (sums[:, None] + outers[i][None, atoms]).reshape(-1, d, d)
            weights = (weights[:, None] * probs[i][None, atoms]).reshape(-1)
            first = first * sizes[i] + t
        return kernel(first, weights, sums)

    lead = product(*(range(0, s, w) for s, w in zip(sizes, width)))
    return ordered_map(run_chunk, lead)


def expected_char_poly_bruteforce(
        e: RandomVectorEnsemble,
        policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """E det(xI - sum v_i v_i*) by enumerating every outcome of the ensemble.

    Independent oracle for the subset expansion; its work is capped.
    """
    def weighted_polys(first, weights, sums):
        return weights @ linalg.char_poly_stack(sums)

    total = np.zeros(e.dim + 1)
    for part in outcome_sums(e, weighted_polys, _poly_work(e.dim),
                             "brute-force oracle", policy):
        total += part
    return total


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class _SubsetLattice:
    """Subsets S of range(m) with |S| <= size, sorted by smallest element
    (the empty set last; by size, then in ``combinations`` order, within),
    so the subsets of range(k, m) are the rows from ``starts[k]`` on, and
    the rows of one size, in ascending order, are in ``combinations`` order.

    members: each subset's elements, ascending, padded with m; starts[k]
    for k <= m; by_size[j]: the rows of size j, ascending, so by_size[j] at
    a j-subset's lexicographic rank is its row, and the last C(n, j) of
    by_size[j] are the j-subsets of range(m - n, m), which the block
    engine's minors read from members; binom[n, j]: C(n, j) for n < m.
    Arrays are read-only because they are shared.
    """

    members: np.ndarray
    starts: np.ndarray
    by_size: tuple[np.ndarray, ...]
    binom: np.ndarray

    def sub_ranks(self, rows: np.ndarray, *positions: np.ndarray) -> list:
        """For each (count, j) array of ascending positions, the
        lexicographic rank among the j-subsets of range(m) of
        {S[q] : q in p} for each row S of rows (its elements, ascending)
        and each row p of the array, shape (len(rows), count).

        The j-subset e_0 < .. < e_{j-1} has rank
        C(m, j) - 1 - sum_t C(m - 1 - e_t, j - t), so the j-subsets of
        range(k, m) are the last C(m - k, j) ranks."""
        m = len(self.binom)
        table = self.binom[m - 1 - rows]  # C(m - 1 - S[q], b) at [S, q, b]
        found = []
        for pos in positions:
            count, j = pos.shape
            lex = np.full((len(rows), count), math.comb(m, j) - 1)
            for t in range(j):
                lex -= table[:, pos[:, t], j - t]
            found.append(lex)
        return found


@lru_cache(maxsize=64)
def _positions(k: int, r: int) -> np.ndarray:
    """``combinations(range(k), r)`` as a read-only (C(k, r), r) array;
    cached, since k is at most a lattice size, never m."""
    return _readonly(np.array(list(combinations(range(k), r)),
                              dtype=np.intp).reshape(math.comb(k, r), r))


@lru_cache(maxsize=64)
def _minor_rows(d: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """For the s-subsets J of range(d), in ``combinations`` order: the unit
    rows e_j, j not in J, as a read-only (C(d, s), d - s, d) array (the
    complements run through combinations order backwards), and J's
    bitmasks; cached, since they depend on (d, s) alone."""
    units = np.eye(d)[_positions(d, d - s)[::-1]]
    return _readonly(units), _readonly((1 << _positions(d, s)).sum(axis=1))


def _subset_lattice(m: int, size: int) -> _SubsetLattice:
    total = sum(math.comb(m, j) for j in range(size + 1))
    members = np.full((total, size), m, dtype=np.intp)
    sizes = np.zeros(total, dtype=np.intp)  # the empty set, last, is size 0
    starts, at = [], 0
    for s in range(m):
        starts.append(at)
        # smallest element s, then at most size - 1 of the m - 1 - s above it
        for j in range(1, size + 1):
            rest = list(combinations(range(s + 1, m), j - 1))
            members[at:at + len(rest), 0] = s
            members[at:at + len(rest), 1:j] = np.array(
                rest, dtype=np.intp).reshape(len(rest), j - 1)
            sizes[at:at + len(rest)] = j
            at += len(rest)
    starts.append(at)
    binom = np.array([[math.comb(n, j) for j in range(size + 1)]
                      for n in range(m)], dtype=np.intp).reshape(m, size + 1)
    return _SubsetLattice(
        members=_readonly(members), starts=_readonly(np.array(starts)),
        by_size=tuple(_readonly(np.flatnonzero(sizes == j))
                      for j in range(size + 1)),
        binom=_readonly(binom))


def _subset_mixed(mats: list[np.ndarray], d: int,
                  policy: NumericPolicy) -> np.ndarray:
    """Subset-expansion engine; mats are validated Hermitian PSD.

    Refused before any work when ``expansion_work(m, d)`` exceeds the work
    cap.  Subsets S of size k <= min(m, d) are the rows of
    ``_subset_lattice(m, min(m, d))``; row T of the stack holds
    -sum_{i in T} A_i, subtracted in index order from zero, and only CHUNK
    rows of the stack exist at a time.  The summation order is part of the
    contract: c_S adds sign * h_T[d-k] over T subset S by size, then in
    ``combinations(S, r)`` order, one term at a time, and mu[d-k] adds the
    signed c_S in ``combinations`` order.  Sequential ``cumsum`` keeps that
    order (``np.sum`` would sum pairwise), so every coefficient is
    bit-identical to the plain loop.

    ``partition`` does not run this engine; the order protects the lifted
    descent (``descend`` on ``weaver.lift``), the test oracle of
    ``partition``.  The descent compares the chosen child's largest root
    with its parent's within descent_slack (1e-8 by default), and a
    multiple root that rounding splits apart moves by about the square
    root of a last-bit change.  The regrouped expansion mu[d-k] = (-1)^k
    sum_j (-1)^(k-j) C(m-j, k-j) H_j[d-k], H_j summing h_T over |T| = j,
    is much cheaper but was measured 9-14 times less accurate against
    exact rationals on the r=3 lift of diag(3,1/3) (largest coefficient
    error over largest coefficient 2.9e-14 against 2.1e-15 at prefix (0,),
    1.5e-14 against 1.6e-15 at (0, 1), 9.4e-15 against 1.1e-15 at
    (0, 1, 2)), and with it the lifted descent of that instance raises
    DescentError at level 1.
    """
    m = len(mats)
    policy.admit(expansion_work(m, d), f"subset expansion of {m} matrices")
    kmax = min(m, d)
    lat = _subset_lattice(m, kmax)
    a = np.asarray(mats, dtype=np.complex128)
    # char_poly(-B_T) = det(xI + B_T) as an ascending coefficient vector,
    # h[k] holding the k-subsets T in combinations order
    h = []
    for k in range(kmax + 1):
        h.append(np.empty((len(lat.by_size[k]), d + 1)))
        for lo in range(0, len(h[k]), CHUNK):
            rows = lat.by_size[k][lo:lo + CHUNK]
            block = np.zeros((len(rows), d, d), dtype=np.complex128)
            for j in range(k):
                block -= a[lat.members[rows, j]]
            h[k][lo:lo + CHUNK] = linalg.char_poly_stack(block)
    mu = np.zeros(d + 1)
    mu[d] = 1.0
    for k in range(1, kmax + 1):
        # the 2^k subsets T of S, as positions in S: by size, then in
        # combinations order
        pos = [_positions(k, r) for r in range(k + 1)]
        sign = np.concatenate([np.full(len(p), -1.0 if (k - r) % 2 else 1.0)
                               for r, p in enumerate(pos)])
        rows = lat.by_size[k]
        c = np.empty(len(rows))
        # no per-step index table larger than a CHUNK of the stack
        step = max(1, 2 * CHUNK * d * d // 2 ** k)
        for lo in range(0, len(rows), step):
            ranks = lat.sub_ranks(lat.members[rows[lo:lo + step], :k], *pos)
            terms = np.concatenate([h[j][t, d - k] for j, t in enumerate(ranks)],
                                   axis=1)
            c[lo:lo + step] = np.cumsum(sign * terms, axis=1)[:, -1]
        if k % 2:
            c = -c
        mu[d - k] = np.cumsum(np.concatenate(([mu[d - k]], c)))[-1]
    return mu


def mixed_char_poly(inst: MixedInstance,
                    policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Mixed characteristic polynomial of a PSD instance, ascending coeffs."""
    return _subset_mixed(list(inst.matrices), inst.dim, policy)


def conditional_expected_poly(e: RandomVectorEnsemble, prefix,
                              policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Tree-node polynomial of the interlacing family.

    With the first k vectors pinned to the atoms named by ``prefix``, this is
    (prod of the pinned atom probabilities) times the mixed characteristic
    polynomial of the pinned outer products together with the covariances of
    the remaining vectors.  prefix = () recovers the expected characteristic
    polynomial of the whole ensemble; a full-length prefix gives the scaled
    characteristic polynomial of one outcome.  Every call runs its own
    subset expansion: a walk of the tree asks for each node once.
    """
    prefix = tuple(int(t) for t in prefix)
    if len(prefix) > len(e.vectors):
        raise ValidationError("prefix is longer than the ensemble")
    weight = 1.0
    mats = []
    for i, v in enumerate(e.vectors):
        if i >= len(prefix):
            mats.append(covariance(v))
            continue
        t = prefix[i]
        if not (0 <= t < v.support_size):
            raise ValidationError(f"prefix index {t} out of range for vector {i}")
        w = v.values[t]
        mats.append(np.outer(w, w.conj()))
        weight *= float(v.probabilities[t])
    return weight * _subset_mixed(mats, e.dim, policy)


@dataclass(frozen=True)
class CohenReport:
    """Comparison of the deterministic top eigenvalue with the mixed bound."""

    sum_largest_root: float
    mixed_largest_root: float
    holds: bool
    slack: float


def cohen_inequality_check(inst: MixedInstance,
                           policy: NumericPolicy = DEFAULT_POLICY) -> CohenReport:
    """Numerically confirm lambda_max(sum A_i) <= lambda_max(mu)."""
    total = np.zeros((inst.dim, inst.dim), dtype=np.complex128)
    for m in inst.matrices:
        total += m
    lhs = realpoly.largest_root(linalg.char_poly(total, policy), policy=policy)
    rhs = realpoly.largest_root(mixed_char_poly(inst, policy), policy=policy)
    return CohenReport(
        sum_largest_root=lhs,
        mixed_largest_root=rhs,
        holds=bool(lhs <= rhs + policy.cohen_slack),
        slack=policy.cohen_slack,
    )
