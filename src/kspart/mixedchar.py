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

The brute-force oracle checks that identity by enumerating every outcome of
the vectors.  For each sum S of the vectors but the widest, one
Faddeev-LeVerrier pass gives det(xI - S) and the adjugate coefficients of
xI - S, and the matrix determinant lemma

    det(xI - S - w w*) = det(xI - S) - w* adj(xI - S) w

gives the outcome of each atom w of the widest vector.  The lemma is exact
algebra on one outcome's matrix: no atom is pooled into a covariance and
every outcome's quadratic forms are weighted by its own probability, so the
oracle never uses the rank-one expectation step the subset expansion rests
on, and stays an independent check of it.
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
        stack = linalg.square_stack(self.matrices, self.dim)
        if stack is not None:  # one PSD test over the whole stack
            mats = tuple(linalg.hermitian_stack(stack, policy, psd=True)[0])
        else:  # each matrix on its own, then the dimensions
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
"""Lattice rows per ``char_poly_stack`` call of ``_subset_char_polys``
(the subset expansion and the lattice engine's closing), and outcomes
per kernel call of the outcome enumerator (in the brute-force
oracle, prefix sums times atoms of the widest vector per
``rank_one_char_poly_sum`` call), so no stack holds more than
CHUNK * D^2 entries."""

# Work model, in the units of NumericPolicy.work_cap (about a nanosecond
# each on the machine these were measured on, timing stacks of 4096):
POLY_WORK = 500
"""A characteristic polynomial of size D costs POLY_WORK * (D - 2), for its
D - 2 batched products and their traces, plus POLY_WORK_CUBE * D^3 (none
of the first for D <= 2): 0.76-1.4 us at D=4, 3.2-3.7 us at D=8 and
23-25 us at D=16, each D = 2..16 predicted at 1.0 to 2.1 times its time."""
POLY_WORK_CUBE = 7
TERM_WORK = 60
"""A signed term of the alternating sums; 50-120 ns a term over the
expansions with m = 16..20 and D = 6..10."""
GATHER_WORK = 5
"""A matrix entry added into an outcome sum, grown from its prefix's;
4-11 ns at D = 2..16."""
PASS_WORK = 8
"""A prefix of the brute-force oracle costs PASS_WORK * D^3 for its
Faddeev-LeVerrier pass in ``linalg.rank_one_char_poly_sum`` (its D - 2
real products, traces, diagonal updates and embedding), beside D^2
GATHER_WORK for its sum."""
FORM_WORK = 3
"""An outcome of the brute-force oracle costs FORM_WORK * D^2 beside its
share of its prefix's pass: the quadratic forms of D - 1 adjugate
coefficients in one matrix product and their weighted sum in another.
Fitted with PASS_WORK on a 2-core machine on ensembles of 2-atom vectors
and a last vector of 1-8 atoms, at D = 2, 4, 6, 8: 0.18-0.36 us a prefix
at D = 2, 0.58-0.81 us at D = 4, 1.7-2.3 us at D = 6 and 4.1-5.1 us at
D = 8, each predicted at 0.40-1.46 times its measured time.  At D = 2 a
kernel call's own overhead weighs most: a prefix costs 0.18 us when a
call takes 2,048 prefixes and 0.36 us when it takes 512."""


def _poly_work(dim: int) -> float:
    return POLY_WORK * max(dim - 2, 0) + POLY_WORK_CUBE * dim ** 3


def expansion_work(m: int, dim: int) -> float:
    """Predicted work of one subset expansion of m matrices of size dim:
    sum over k <= min(m, dim) of C(m, k) polynomials and C(m, k) 2^k terms."""
    return float(sum(math.comb(m, k) * (_poly_work(dim) + TERM_WORK * 2 ** k)
                     for k in range(min(m, dim) + 1)))


def outcome_sums(e: RandomVectorEnsemble, kernel, kernel_work: float,
                 what: str, policy: NumericPolicy = DEFAULT_POLICY,
                 chunk: int | None = None) -> list:
    """kernel(first, weights, sums) over every outcome of e, in the order of
    product(*(range(s) for s in e.support_sizes)), at most chunk (CHUNK by
    default) at a time.

    A call covers the consecutive outcomes first, first + 1, ...; sums holds
    their matrices sum_i v_i v_i* and weights their probabilities, and the
    results come back in outcome order.  The trailing vectors whose support
    sizes multiply to at most chunk form the inner block, and the vector
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
    chunk = CHUNK if chunk is None else chunk
    policy.admit(math.prod(map(float, sizes)) * (d * d * GATHER_WORK
                                                 + kernel_work), what)
    outers = [
        np.einsum("aj,ak->ajk", v.values, v.values.conj())
        for v in e.vectors
    ]
    probs = [v.probabilities for v in e.vectors]
    inner, cut = 1, m  # vectors cut.. form the inner block
    while cut and inner * sizes[cut - 1] <= chunk:
        cut -= 1
        inner *= sizes[cut]
    width = [1] * cut + list(sizes[cut:])  # atoms of each vector in a chunk
    if cut:
        width[cut - 1] = chunk // inner

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

    Independent oracle for the subset expansion; its work is capped.  The
    lemma vector is the one with the most atoms, the last of them on a
    tie.  The outcomes of the other vectors, in their order, are the
    prefix sums S of ``outcome_sums``; each atom w of the lemma vector then
    gives its own outcome's polynomial by the matrix determinant lemma,
    det(xI - S - w w*) = det(xI - S) - w* adj(xI - S) w, with one
    Faddeev-LeVerrier pass per S serving all the atoms, so the oracle runs
    leaf_count / (most atoms) passes.  ``linalg.rank_one_char_poly_sum``
    weighs and sums the outcomes inside the kernel: each outcome's
    quadratic forms enter times its own probability; no per-outcome array
    is formed.  The lemma is an identity of each outcome's own matrix,
    with no expectation in it: the atoms are never regrouped into the
    lemma vector's covariance, which is the rank-one expectation step the
    subset expansion rests on.

    Prefixes times atoms are taken at most CHUNK at a time.  The request is
    refused up front when its predicted work exceeds the work cap: for
    each prefix, D^2 GATHER_WORK, PASS_WORK * D^3 and FORM_WORK * D^2 for
    each atom of the lemma vector.
    """
    d = e.dim
    total = np.zeros(d + 1)
    if not e.vectors:
        total[d] = 1.0
        return total
    sizes = e.support_sizes
    at = len(sizes) - 1 - sizes[::-1].index(max(sizes))  # last of the widest
    lemma = e.vectors[at]
    head = e.vectors[:at] + e.vectors[at + 1:]
    cols = min(lemma.support_size, CHUNK)

    def leaf_sums(first, weights, sums):
        part = np.zeros(d + 1)
        for lo in range(0, lemma.support_size, cols):
            atoms = slice(lo, lo + cols)
            part += linalg.rank_one_char_poly_sum(
                sums, lemma.values[atoms],
                np.outer(weights, lemma.probabilities[atoms]))
        return part

    for part in outcome_sums(RandomVectorEnsemble(d, head), leaf_sums,
                             PASS_WORK * d ** 3
                             + FORM_WORK * lemma.support_size * d ** 2,
                             "brute-force oracle", policy,
                             chunk=max(1, CHUNK // cols)):
        total += part
    return total


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class _SubsetLattice:
    """Subsets S of range(m) with |S| <= size, sorted by smallest element
    (the empty set last; by size, then in ``combinations`` order, within),
    so the rows of one size, ascending, are in ``combinations`` order.

    members: each subset's elements, ascending, padded with m; by_size[j]:
    the rows of size j, ascending, so by_size[j] at a j-subset's
    lexicographic rank is its row; binom[n, j]: C(n, j) for n < m.
    Arrays are read-only because they are shared.
    """

    members: np.ndarray
    by_size: tuple[np.ndarray, ...]
    binom: np.ndarray

    def sub_ranks(self, rows: np.ndarray, *positions: np.ndarray) -> list:
        """For each (count, j) array of ascending positions, the
        lexicographic rank among the j-subsets of range(m) of
        {S[q] : q in p} for each row S of rows (its elements, ascending)
        and each row p of the array, shape (len(rows), count).

        The j-subset e_0 < .. < e_{j-1} has rank
        C(m, j) - 1 - sum_t C(m - 1 - e_t, j - t)."""
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


def _subset_lattice(m: int, size: int) -> _SubsetLattice:
    total = sum(math.comb(m, j) for j in range(size + 1))
    members = np.full((total, size), m, dtype=np.intp)
    sizes = np.zeros(total, dtype=np.intp)  # the empty set, last, is size 0
    at = 0
    for s in range(m):
        # smallest element s, then at most size - 1 of the m - 1 - s above it
        for j in range(1, size + 1):
            rest = list(combinations(range(s + 1, m), j - 1))
            members[at:at + len(rest), 0] = s
            members[at:at + len(rest), 1:j] = np.array(
                rest, dtype=np.intp).reshape(len(rest), j - 1)
            sizes[at:at + len(rest)] = j
            at += len(rest)
    binom = np.array([[math.comb(n, j) for j in range(size + 1)]
                      for n in range(m)], dtype=np.intp).reshape(m, size + 1)
    return _SubsetLattice(
        members=_readonly(members),
        by_size=tuple(_readonly(np.flatnonzero(sizes == j))
                      for j in range(size + 1)),
        binom=_readonly(binom))


def _subset_char_polys(lat: _SubsetLattice, top,
                       mats: np.ndarray) -> np.ndarray:
    """chi(top - B_S), chi(M) = det(xI - M) ascending, for every row S of
    the lattice, B_S = sum_{i in S} mats[i] added into zero in index order
    (a padded member adds a zero matrix); one ``char_poly_stack`` per CHUNK
    rows, so no stack holds more than CHUNK matrices."""
    d = mats.shape[1]
    padded = np.concatenate((mats, np.zeros((1, d, d), dtype=mats.dtype)))
    h = np.empty((len(lat.members), d + 1))
    for lo in range(0, len(h), CHUNK):
        members = lat.members[lo:lo + CHUNK]
        q = np.zeros((len(members), d, d), dtype=np.complex128)
        for t in range(members.shape[1]):
            q += padded[members[:, t]]
        h[lo:lo + len(q)] = linalg.char_poly_stack(top - q)
    return h


def _subset_mixed(mats: list[np.ndarray], d: int,
                  policy: NumericPolicy) -> np.ndarray:
    """Subset-expansion engine; mats are validated Hermitian PSD.

    Refused before any work when ``expansion_work(m, d)`` exceeds the work
    cap.  Subsets S of size k <= min(m, d) are the rows of
    ``_subset_lattice(m, min(m, d))``, and ``_subset_char_polys`` gives
    h_T = chi(0 - B_T), B_T = sum_{i in T} A_i added into zero in index
    order: the same floats, rounding being symmetric, as subtracting the
    A_i from zero in index order.  The summation order is part of the
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
    # h[k] holds the k-subsets T in combinations order
    polys = _subset_char_polys(
        lat, 0.0, np.asarray(mats, dtype=np.complex128).reshape(m, d, d))
    h = [polys[by_size] for by_size in lat.by_size]
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
