"""Isotropic vector systems and their r-way partitions.

A Weaver instance is a list of vectors u_1..u_m with sum u_i u_i* = I and
every ||u_i||^2 <= delta.  Lifting to r block copies turns the partition
problem into a descent through an interlacing family in dimension r*d: the
atom choices of the lifted ensemble are exactly the part labels, and a part's
norm is 1/r times the norm of its lifted block sum.  The resulting guarantee
is max part norm <= (1/sqrt(r) + sqrt(delta))^2.

A two-part partition never builds the lift.  Every lifted determinant
factors into two d x d blocks, so ``two_part_node_poly`` computes each node
polynomial from d x d characteristic polynomials of the vectors' subset sums
of size at most d, and ``descend`` walks those; at a leaf it takes the
eigenvalues of the two part sums.  Partitions into r >= 3 parts still
descend on the lift: a general-r version of the block formula, tried on
Haar-rotated diag(3, 1/3) with r = 3, split the node polynomials' triple
roots by about 2e-6, past the descent slack of 1e-8, and the descent raised
DescentError on every one of 120 seeds, against 2 of the 120 for the lifted
descent.  ``lift`` with ``descend`` stays as the oracle of the
two-part engine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg, realpoly
from ._parallel import chunked, ordered_map
from .interlace import (DescentTrace, NodeFamily, descend, descent_work,
                        roots_work)
from .mixedchar import (CHUNK, GATHER_WORK, FiniteSupportVector,
                        RandomVectorEnsemble, _expansion_tables, _readonly)
from .policy import DEFAULT_POLICY, NumericPolicy, ValidationError


@dataclass(frozen=True)
class WeaverInstance:
    """Vectors in isotropic position with a declared norm ceiling delta.

    The declared delta is advisory; validation and bounds recompute it from
    the vectors.
    """

    dim: int
    vectors: np.ndarray
    delta: float

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.complex128)
        if v.ndim != 2 or v.shape[1] != self.dim:
            raise ValidationError(
                f"vectors must have shape (m, {self.dim}), got {v.shape}"
            )
        if v.size and not (np.all(np.isfinite(v.real))
                           and np.all(np.isfinite(v.imag))):
            raise ValidationError("vectors contain non-finite entries")
        if not (float(self.delta) > 0):
            raise ValidationError("delta must be positive")
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "delta", float(self.delta))

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    def frame_matrix(self) -> np.ndarray:
        s = self.vectors.conj().T @ self.vectors
        return (s + s.conj().T) / 2.0

    def norms_squared(self) -> np.ndarray:
        return np.sum(np.abs(self.vectors) ** 2, axis=1)


@dataclass(frozen=True)
class ValidationReport:
    isotropy_deviation: float
    max_norm_sq: float
    delta_declared: float
    valid: bool


def measured_delta(inst: WeaverInstance) -> float:
    n = inst.norms_squared()
    return float(np.max(n)) if n.size else 0.0


def validate(inst: WeaverInstance,
             policy: NumericPolicy = DEFAULT_POLICY) -> ValidationReport:
    """Report-only check of isotropy and the declared norm ceiling."""
    dev_m = inst.frame_matrix() - np.eye(inst.dim)
    dev = float(np.max(np.abs(np.linalg.eigvalsh(dev_m)))) if inst.dim else 0.0
    mx = measured_delta(inst)
    ok = (dev <= policy.instance_isotropy_tol
          and mx <= inst.delta + policy.norm_bound_slack)
    return ValidationReport(
        isotropy_deviation=dev,
        max_norm_sq=mx,
        delta_declared=inst.delta,
        valid=bool(ok),
    )


def normalize_isotropy(inst: WeaverInstance,
                       policy: NumericPolicy = DEFAULT_POLICY) -> WeaverInstance:
    """Renormalize a near-isotropic instance by (sum u u*)^{-1/2}.

    Only small drifts are repairable; deviations above repair_isotropy_max
    are rejected as a different instance, not a rounding artifact.
    """
    rep = validate(inst, policy)
    if rep.isotropy_deviation > policy.repair_isotropy_max:
        raise ValidationError(
            f"isotropy deviation {rep.isotropy_deviation:.3e} exceeds the "
            f"repair ceiling {policy.repair_isotropy_max:.1e}"
        )
    w = linalg.isotropic_normalizer(inst.frame_matrix(), policy)
    vecs = inst.vectors @ w.T
    delta = float(np.max(np.sum(np.abs(vecs) ** 2, axis=1)))
    return WeaverInstance(inst.dim, vecs, delta)


def gen_diagonal(n: int, delta: float) -> WeaverInstance:
    """1/delta scaled copies of each basis vector; requires 1/delta integer."""
    if n < 1:
        raise ValidationError("dimension must be positive")
    if not (0 < delta <= 1):
        raise ValidationError("delta must lie in (0, 1]")
    k = 1.0 / delta
    if abs(k - round(k)) > 1e-9:
        raise ValidationError(f"1/delta = {k} is not an integer")
    k = int(round(k))
    vecs = np.zeros((n * k, n), dtype=np.complex128)
    row = 0
    for i in range(n):
        for _ in range(k):
            vecs[row, i] = math.sqrt(delta)
            row += 1
    return WeaverInstance(n, vecs, delta)


def gen_gaussian(n: int, delta: float, seed: int = 0,
                 policy: NumericPolicy = DEFAULT_POLICY) -> WeaverInstance:
    """Isotropized Gaussian sample: m = round(n/delta) vectors with
    E||v||^2 = delta, renormalized into exact isotropic position.

    The declared delta of the result is the measured max ||w||^2, which
    fluctuates around the requested value.  Up to three draws are attempted
    if the sample covariance is rank-deficient.
    """
    if n < 1:
        raise ValidationError("dimension must be positive")
    if not (0 < delta <= n):
        raise ValidationError("delta must lie in (0, n]")
    m = int(round(n / delta))
    if m < n:
        raise ValidationError(
            f"n/delta rounds to {m} < n vectors; the sample cannot be isotropic"
        )
    last_err: Exception | None = None
    for attempt in range(3):
        rng = np.random.default_rng((int(seed), attempt))
        v = rng.standard_normal((m, n)) * math.sqrt(delta / n)
        v = v.astype(np.complex128)
        cov = v.conj().T @ v
        try:
            w = linalg.isotropic_normalizer((cov + cov.conj().T) / 2.0, policy)
        except ValidationError as err:
            last_err = err
            continue
        vecs = v @ w.T
        measured = float(np.max(np.sum(np.abs(vecs) ** 2, axis=1)))
        return WeaverInstance(n, vecs, measured)
    raise ValidationError(
        f"gaussian sample covariance stayed rank-deficient after 3 draws: {last_err}"
    )


@dataclass(frozen=True)
class Graph:
    """Weighted undirected graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("graph needs at least one vertex")
        cleaned = []
        for a, b, w in self.edges:
            a, b, w = int(a), int(b), float(w)
            if a == b:
                raise ValidationError(f"self-loop at vertex {a}")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValidationError(f"edge ({a},{b}) out of range for n={self.n}")
            if not (w > 0 and math.isfinite(w)):
                raise ValidationError(f"edge ({a},{b}) has non-positive weight {w}")
            cleaned.append((a, b, w))
        object.__setattr__(self, "edges", tuple(cleaned))

    @classmethod
    def from_edge_text(cls, text: str) -> "Graph":
        """Parse 'a b weight' lines (0-indexed; weight optional, default 1)."""
        edges = []
        top = -1
        for lineno, line in enumerate(text.splitlines(), 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) not in (2, 3):
                raise ValidationError(
                    f"line {lineno}: expected 'a b weight', got {line!r}"
                )
            try:
                a, b = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise ValidationError(
                    f"line {lineno}: expected 'a b weight' with integer "
                    f"vertices, got {line!r}"
                ) from None
            top = max(top, a, b)
            edges.append((a, b, w))
        if not edges:
            raise ValidationError("edge list is empty")
        return cls(n=top + 1, edges=tuple(edges))


def laplacian(g: Graph) -> np.ndarray:
    l = np.zeros((g.n, g.n))
    for a, b, w in g.edges:
        l[a, a] += w
        l[b, b] += w
        l[a, b] -= w
        l[b, a] -= w
    return l


def _check_connected(g: Graph, policy: NumericPolicy, name: str = "graph") -> np.ndarray:
    l = laplacian(g)
    ev = np.linalg.eigvalsh(l)
    scale = max(1.0, float(np.max(np.abs(ev))))
    kernel = int(np.sum(np.abs(ev) <= policy.rank_rtol * scale))
    if kernel > 1:
        raise ValidationError(
            f"{name} is disconnected: Laplacian kernel dimension {kernel}"
        )
    return l


def _ones_complement_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the all-ones complement via Gram-Schmidt on
    e_0 - e_1, e_0 - e_2, ..., in that order."""
    cols = []
    for j in range(1, n):
        v = np.zeros(n)
        v[0] = 1.0
        v[j] = -1.0
        for c in cols:
            v = v - (c @ v) * c
        v = v / np.linalg.norm(v)
        cols.append(v)
    return np.array(cols).T if cols else np.zeros((n, 0))


@dataclass(frozen=True)
class GraphBasis:
    graph: Graph
    basis: np.ndarray
    reduced_laplacian: np.ndarray


def gen_from_graph(g: Graph,
                   policy: NumericPolicy = DEFAULT_POLICY) -> tuple[WeaverInstance, GraphBasis]:
    """Edge vectors of a connected graph in isotropic position.

    In the (n-1)-dimensional complement of the all-ones vector,
    u_e = (B^T L B)^{-1/2} B^T sqrt(w) (e_a - e_b); then sum u_e u_e* = I and
    ||u_e||^2 is the effective-resistance leverage of the edge.
    """
    if g.n < 2:
        raise ValidationError("need at least two vertices")
    l = _check_connected(g, policy)
    b = _ones_complement_basis(g.n)
    reduced = b.T @ l @ b
    reduced = (reduced + reduced.T) / 2.0
    w = linalg.isotropic_normalizer(reduced, policy).real
    vecs = np.zeros((len(g.edges), g.n - 1), dtype=np.complex128)
    for idx, (a, bb, wt) in enumerate(g.edges):
        e = np.zeros(g.n)
        e[a] = 1.0
        e[bb] = -1.0
        vecs[idx] = w @ (b.T @ (math.sqrt(wt) * e))
    delta = float(np.max(np.sum(np.abs(vecs) ** 2, axis=1)))
    inst = WeaverInstance(g.n - 1, vecs, delta)
    return inst, GraphBasis(graph=g, basis=b, reduced_laplacian=reduced)


def lift(inst: WeaverInstance, r: int,
         policy: NumericPolicy = DEFAULT_POLICY) -> RandomVectorEnsemble:
    """Random block-copy ensemble whose leaf choices are part labels.

    Each u_i becomes a random vector in dimension r*d taking the value
    sqrt(r) * (u_i in block k) with probability 1/r; its covariance is the
    block-diagonal spread of u_i u_i*, and the covariances sum to I_{rd}.
    """
    if int(r) < 1:
        raise ValidationError("r must be at least 1")
    r = int(r)
    d = inst.dim
    vectors = []
    for i in range(inst.count):
        atoms = np.zeros((r, r * d), dtype=np.complex128)
        for k in range(r):
            atoms[k, k * d:(k + 1) * d] = math.sqrt(r) * inst.vectors[i]
        vectors.append(FiniteSupportVector(np.full(r, 1.0 / r), atoms, policy))
    return RandomVectorEnsemble(r * d, tuple(vectors))


@dataclass(frozen=True)
class _SubsetLattice:
    """Subsets S of range(m) with |S| <= d, sorted by smallest element (the
    empty set last; by size, then in ``combinations`` order, within), so
    the subsets of range(k, m) are the rows from ``starts[k]`` on.

    members: each subset's elements, padded with m; sizes: |S|; upper,
    lower: the rows of S and of S minus i, one entry per i in S, grouped
    by i and then in the order of S's row; bounds[i]: where the group of i
    starts.  Arrays are read-only because they are shared.
    """

    members: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    bounds: np.ndarray


@lru_cache(maxsize=4)
def _subset_lattice(m: int, d: int) -> _SubsetLattice:
    kmax = min(m, d)
    # the subset expansion's layout: by size, then in combinations order
    tab = _expansion_tables(m, kmax)
    total = int(tab.offsets[-1])
    members = np.full((total, kmax), m, dtype=np.intp)
    for j, block in enumerate(tab.rows):
        members[tab.offsets[j]:tab.offsets[j + 1], :j] = block
    sizes = np.repeat(np.arange(kmax + 1), tab.sizes)
    low = members[:, 0] if kmax else np.full(total, m)
    order = np.argsort(low, kind="stable")
    row = np.empty_like(order)
    row[order] = np.arange(total)
    element, upper, lower = [], [], []
    for j in range(1, kmax + 1):
        block = tab.rows[j]
        for q in range(j):
            rest = np.delete(block, q, axis=1)
            # lexicographic rank of S minus its q-th element, as in the
            # expansion: C(m, r) - 1 - sum_t C(m - 1 - s_t, r - t)
            rank = np.full(len(block), tab.sizes[j - 1] - 1)
            for t in range(j - 1):
                rank -= tab.binom[m - 1 - rest[:, t], j - 1 - t]
            element.append(block[:, q])
            upper.append(row[tab.offsets[j] + np.arange(len(block))])
            lower.append(row[tab.offsets[j - 1] + rank])
    element, upper, lower = (np.concatenate(x) if x else
                             np.zeros(0, dtype=np.intp)
                             for x in (element, upper, lower))
    grouped = np.lexsort((upper, element))
    return _SubsetLattice(
        members=_readonly(members[order]), sizes=_readonly(sizes[order]),
        starts=_readonly(np.searchsorted(low[order], np.arange(m + 1))),
        upper=_readonly(upper[grouped]), lower=_readonly(lower[grouped]),
        bounds=_readonly(np.searchsorted(element[grouped],
                                         np.arange(m + 1))))


# Work model of the two-part engine, in the units of NumericPolicy.work_cap
# (see mixedchar), timed on nodes with n = 8..120 and d = 1..10:
SUBSET_WORK_PER_DIM = 700
"""A subset of a node's lattice costs SUBSET_WORK_PER_DIM * d +
SUBSET_WORK_CUBE * d^3 for its two characteristic polynomials, its gathers,
its share of the Moebius pass and its products: 1.0-1.2 us at d=2, 3.7 us
at d=3, 6.0 us at d=4, 8.1 us at d=5, 23 us at d=8, 46 us at d=10."""
SUBSET_WORK_CUBE = 40
NODE_WORK = 200_000
"""A node costs NODE_WORK + ELEMENT_WORK * n besides its subsets and its
root finding, n being its unpinned vectors (one Moebius step each): about
0.3 ms at n=8 and 1 ms at n=60."""
ELEMENT_WORK = 10_000


def _lattice_size(n: int, d: int) -> int:
    return sum(math.comb(n, j) for j in range(min(n, d) + 1))


def _node_work(n: int, d: int) -> float:
    return (NODE_WORK + ELEMENT_WORK * n + _lattice_size(n, d)
            * (SUBSET_WORK_PER_DIM * d + SUBSET_WORK_CUBE * d ** 3))


def two_part_work(m: int, d: int) -> float:
    """Predicted work of a two-part ``partition`` of m vectors in dimension
    d: the root node and two children at each level, each node costing
    ``_node_work`` and one root finding of degree 2d (the cache hit at
    level 0 is not counted on, and the two leaves, which take eigenvalues
    instead, are counted as nodes)."""
    node = lambda n: _node_work(n, d) + roots_work(2 * d)
    return float(node(m) + 2 * sum(node(n) for n in range(m)))


def _outer_products(inst: WeaverInstance) -> np.ndarray:
    """u_i u_i* for i < m, then one zero matrix, the padding that
    ``_SubsetLattice.members`` indexes."""
    u, d = inst.vectors, inst.dim
    return np.concatenate((np.einsum("mj,mk->mjk", u, u.conj()),
                           np.zeros((1, d, d), dtype=np.complex128)))


def _part_sums(outers: np.ndarray, prefix: tuple[int, ...]) -> np.ndarray:
    """P_0 and P_1: twice the outer products pinned to each block."""
    bases = np.zeros((2,) + outers.shape[1:], dtype=np.complex128)
    for i, t in enumerate(prefix):
        bases[t] += 2.0 * outers[i]
    return bases


def two_part_node_poly(inst: WeaverInstance, prefix,
                       policy: NumericPolicy = DEFAULT_POLICY,
                       cache: dict | None = None) -> np.ndarray:
    """Node polynomial of the two-part descent, from the d-dimensional
    vectors alone; it equals 2^k ``conditional_expected_poly(lift(inst, 2),
    prefix)`` for a prefix of length k, and is monic of degree 2d.

    The lifted covariances are I_2 (x) u u*, the pinned atoms fold into the
    block bases P_b = 2 sum_{i < k, prefix_i = b} u_i u_i*, and every lifted
    determinant factors into two blocks of size d (Marcus, Spielman and
    Srivastava, "Interlacing families II").  With U = {k..m-1},
    C = P_1 + sum_{i in U} u_i u_i* and chi(M) = det(xI - M),

        mu = sum_{S subset U, |S| <= d} (-1)^|S| g(S) chi(C - sum_{i in S} u_i u_i*),
        g(S) = sum_{T subset S} (-1)^{|S|-|T|} chi(P_0 - sum_{i in T} u_i u_i*),

    where g(S) has degree d - |S|: the coefficients above it are rounding
    noise and are dropped.  The sum over the second block's subsets closes
    into one characteristic polynomial because the determinant is affine in
    each rank-one term.  The polynomials come from ``char_poly_stack``
    passes over the subsets, g from a Moebius pass over them, and mu from
    the (d + 1)^2 dot products of their coefficient columns.  The block
    swap leaves mu unchanged, so ``cache`` keys on the unordered pair
    {P_0, P_1} and the unpinned vectors.
    """
    prefix = tuple(int(t) for t in prefix)
    m, d, k = inst.count, inst.dim, len(prefix)
    if k > m or any(t not in (0, 1) for t in prefix):
        raise ValidationError(f"prefix {prefix} is not a two-part prefix of "
                              f"{m} vectors")
    policy.admit(_node_work(m - k, d), f"two-part node over {m - k} vectors")
    outers = _outer_products(inst)
    return _node_poly(inst, outers, _part_sums(outers, prefix), k, cache)


def _node_poly(inst: WeaverInstance, outers: np.ndarray, bases: np.ndarray,
               k: int, cache: dict | None) -> np.ndarray:
    """``two_part_node_poly`` at a prefix of length k with part sums bases,
    given ``_outer_products(inst)``."""
    m, d = inst.count, inst.dim
    b0, b1 = bases[0].tobytes(), bases[1].tobytes()
    key = (min(b0, b1), max(b0, b1), inst.vectors[k:].tobytes())
    if cache is not None and key in cache:
        return cache[key]
    p0, p1 = (bases[0], bases[1]) if b0 <= b1 else (bases[1], bases[0])
    top = p1.copy()
    for i in range(k, m):
        top += outers[i]
    lat = _subset_lattice(m, d)
    start = lat.starts[k]
    rows = lat.members.shape[0] - start
    g = np.empty((rows, d + 1))
    h = np.empty((rows, d + 1))
    # chi(P_0 - Q) and chi(C - Q) in one stack of at most CHUNK matrices
    step = max(1, CHUNK // 2)
    for lo in range(0, rows, step):
        members = lat.members[start + lo:start + lo + step]
        q = np.zeros((members.shape[0], d, d), dtype=np.complex128)
        for t in range(members.shape[1]):
            q += outers[members[:, t]]
        both = linalg.char_poly_stack(np.concatenate((p0 - q, top - q)))
        g[lo:lo + len(q)], h[lo:lo + len(q)] = np.split(both, 2)
    # Moebius pass, one element at a time: g(S) -= g(S - i) for S with i
    for i in range(k, m):
        a, b = lat.bounds[i], lat.bounds[i + 1]
        c = a + np.searchsorted(lat.upper[a:b], start)
        g[lat.upper[c:b] - start] -= g[lat.lower[c:b] - start]
    sizes = lat.sizes[start:]
    g[np.arange(d + 1) > d - sizes[:, None]] = 0.0
    g[sizes % 2 == 1] *= -1.0
    products = np.einsum("sa,sb->ab", g, h)
    mu = np.zeros(2 * d + 1)
    for j in range(d + 1):
        mu[j:j + d + 1] += products[j]
    if cache is not None:
        cache[key] = mu
    return mu


def _two_part_family(inst: WeaverInstance,
                     policy: NumericPolicy) -> NodeFamily:
    """The two-part descent tree.  Inner nodes take the roots of
    ``two_part_node_poly``.  A leaf's polynomial is chi(P_0) chi(P_1), so
    its roots are the eigenvalues of the two part sums, taken exactly: from
    the coefficients, a double eigenvalue shared by both parts is a
    fourfold root that rounding scatters by about 1e-4, and roots of close
    eigenvalues carry errors up to about 3e-8.

    The outer products are built once, and a child's part sums are its
    parent's plus 2 u_k u_k*, added in ``_part_sums``' order.
    """
    m = inst.count
    outers = _outer_products(inst)
    sums = {(): _part_sums(outers, ())}

    def part_sums(prefix):
        if prefix not in sums:
            bases = part_sums(prefix[:-1]).copy()
            bases[prefix[-1]] += 2.0 * outers[len(prefix) - 1]
            sums[prefix] = bases
        return sums[prefix]

    def node(prefix, cache):
        bases = part_sums(prefix)
        if len(prefix) < m:
            return realpoly.roots(_node_poly(inst, outers, bases, len(prefix),
                                             cache), policy)
        values, counts = np.unique(np.linalg.eigvalsh(bases),
                                   return_counts=True)
        return realpoly.RootList(values, counts)

    return NodeFamily((2,) * m, node)


def improved_bound_r2(delta: float) -> float:
    """Two-part bound 1/2 + sqrt(delta (1 - delta)), valid for delta <= 1/2."""
    if not (0 <= delta <= 0.5):
        raise ValidationError("the improved two-part bound needs delta in [0, 1/2]")
    return float(0.5 + math.sqrt(delta * (1.0 - delta)))


@dataclass(frozen=True)
class PartitionReport:
    r: int
    delta_measured: float
    parts: tuple[tuple[int, ...], ...]
    part_norms: tuple[float, ...]
    bound_general: float
    bound_r2_improved: float | None
    root_of_empty: float
    within_bound: bool
    trace: DescentTrace


def partition(inst: WeaverInstance, r: int,
              policy: NumericPolicy = DEFAULT_POLICY,
              threads: int = 1) -> PartitionReport:
    """Partition the vectors into r parts by interlacing-family descent.

    For r = 2 the descent walks ``two_part_node_poly`` and, at the leaves,
    the eigenvalues of the two part sums; otherwise it runs on the lifted
    ensemble.  Either way the chosen child of each vector is its part
    label.  Each part norm is checked against (1/sqrt(r) + sqrt(delta))^2
    with delta recomputed from the vectors.
    The request is refused before any work when the descent's predicted
    work exceeds the work cap.
    """
    r = int(r)
    m, d = inst.count, inst.dim
    if r == 2 and d < 1:
        raise ValidationError("dimension must be positive")
    policy.admit(two_part_work(m, d) if r == 2
                 else descent_work((r,) * m, r * d),
                 f"partition of {m} vectors into {r} parts")
    rep = validate(inst, policy)
    if not rep.valid:
        raise ValidationError(
            f"instance failed validation: isotropy deviation "
            f"{rep.isotropy_deviation:.3e}, max norm {rep.max_norm_sq:.6g} "
            f"vs declared delta {rep.delta_declared:.6g}"
        )
    delta = rep.max_norm_sq
    family = (_two_part_family(inst, policy) if r == 2
              else lift(inst, r, policy))
    trace = descend(family, policy, threads=threads)
    parts = tuple(
        tuple(i for i, c in enumerate(trace.final_assignment) if c == k)
        for k in range(r)
    )
    norms = []
    for part in parts:
        s = np.zeros((d, d), dtype=np.complex128)
        for i in part:
            s += np.outer(inst.vectors[i], inst.vectors[i].conj())
        norms.append(linalg.operator_norm(s, policy) if d else 0.0)
    bound = (1.0 / math.sqrt(r) + math.sqrt(delta)) ** 2
    improved = None
    if r == 2 and delta <= 0.5 + policy.norm_bound_slack:
        improved = improved_bound_r2(min(delta, 0.5))
    return PartitionReport(
        r=r,
        delta_measured=delta,
        parts=parts,
        part_norms=tuple(float(x) for x in norms),
        bound_general=float(bound),
        bound_r2_improved=improved,
        root_of_empty=trace.root_of_empty,
        within_bound=bool(max(norms) <= bound + policy.partition_slack),
        trace=trace,
    )


def spectral_approx_check(g: Graph, h: Graph,
                          policy: NumericPolicy = DEFAULT_POLICY) -> tuple[float, float]:
    """Tightest (kappa1, kappa2) with kappa1 x^T L_H x <= x^T L_G x <=
    kappa2 x^T L_H x on the all-ones complement.

    Both graphs must share the vertex set and be connected; the kappas are
    the extreme generalized eigenvalues of the reduced pair.
    """
    if g.n != h.n:
        raise ValidationError("graphs must share a vertex set")
    lg = _check_connected(g, policy, "first graph")
    lh = _check_connected(h, policy, "second graph")
    b = _ones_complement_basis(g.n)
    rg = b.T @ lg @ b
    rh = b.T @ lh @ b
    w = linalg.isotropic_normalizer((rh + rh.T) / 2.0, policy).real
    m = w @ ((rg + rg.T) / 2.0) @ w
    ev = np.linalg.eigvalsh((m + m.T) / 2.0)
    return float(ev[0]), float(ev[-1])


@dataclass(frozen=True)
class ExperimentStats:
    """Monte-Carlo summary of uniformly random r-way partitions."""

    trials: int
    r: int
    threshold: float
    max_norms: np.ndarray
    successes: np.ndarray
    success_frequency: float | None
    mono_free: np.ndarray | None
    mono_free_frequency: float | None
    analytic_mono_free: float | None


def _diagonal_directions(inst: WeaverInstance) -> np.ndarray | None:
    """Vector -> basis direction map, or None if any vector is not a
    (scaled) basis vector."""
    v = np.abs(inst.vectors)
    if v.size == 0:
        return None
    dirs = np.argmax(v, axis=1)
    for i in range(inst.count):
        support = np.sum(v[i] > 1e-12 * max(1.0, float(np.max(v[i]))))
        if support != 1:
            return None
    return dirs


# Work model of the experiment, in the units of NumericPolicy.work_cap (see
# mixedchar), timed over 2000 trials each on instances with m = 2..80,
# d = 1..40 and r = 2..4 (115 us a trial at m=12, d=3, r=2; 0.85 ms at
# m=80, d=40, r=2):
TRIAL_WORK = 100_000
"""Seeding a trial's generator and drawing its labels."""
PART_WORK = 10_000
"""A part's sum and eigenvalue call, besides GATHER_WORK per matrix entry
of its m outer products."""
DIRECTION_WORK = 10_000
"""A basis direction's check on a diagonal instance."""


def random_partition_experiment(inst: WeaverInstance, r: int = 2,
                                trials: int = 1000, seed: int = 0,
                                threshold: float = 1.0,
                                policy: NumericPolicy = DEFAULT_POLICY,
                                threads: int = 1) -> ExperimentStats:
    """Assign each vector to a uniform part, per trial, and tally outcomes.

    success means max part norm strictly below the threshold (default 1, the
    full frame norm).  For diagonal instances the fraction of trials in which
    no basis direction landed entirely in part 0 is reported next to the
    analytic value (1 - r^(-copies))^directions; with r = 2 and 1/delta
    copies per direction that is (1 - 2^(-1/delta))^n.  Per-trial seeds
    derive from (seed, trial index), so results do not depend on threading.
    The request is refused before any trial when its predicted work exceeds
    the work cap.
    """
    if int(r) < 1:
        raise ValidationError("r must be at least 1")
    if trials < 0:
        raise ValidationError("trials must be nonnegative")
    r = int(r)
    m, d = inst.count, inst.dim
    dirs = _diagonal_directions(inst)
    per_trial = TRIAL_WORK + r * (PART_WORK + GATHER_WORK * m * d * d)
    if dirs is not None:
        per_trial += DIRECTION_WORK * d
    policy.admit(trials * per_trial,
                 f"random partition experiment of {trials} trials")
    analytic = None
    if dirs is not None and m:
        counts = np.bincount(dirs, minlength=d)
        counts = counts[counts > 0]
        if counts.size and np.all(counts == counts[0]):
            analytic = float((1.0 - r ** (-float(counts[0]))) ** counts.size)
    if trials == 0:
        empty = np.array([])
        return ExperimentStats(
            trials=0, r=r, threshold=float(threshold), max_norms=empty,
            successes=np.array([], dtype=bool), success_frequency=None,
            mono_free=(np.array([], dtype=bool) if dirs is not None else None),
            mono_free_frequency=None, analytic_mono_free=analytic,
        )
    outers = np.einsum("mj,mk->mjk", inst.vectors, inst.vectors.conj())

    def run_chunk(trial_ids):
        norms = np.empty(len(trial_ids))
        mono = np.empty(len(trial_ids), dtype=bool)
        for row, trial in enumerate(trial_ids):
            rng = np.random.default_rng((int(seed), int(trial)))
            labels = rng.integers(0, r, size=m)
            top = 0.0
            for k in range(r):
                sel = labels == k
                if not np.any(sel):
                    continue
                s = np.tensordot(sel.astype(float), outers, axes=(0, 0))
                ev = np.linalg.eigvalsh((s + s.conj().T) / 2.0)
                top = max(top, float(ev[-1]))
            norms[row] = top
            if dirs is not None:
                in_part0 = labels == 0
                mono[row] = True
                for direction in np.unique(dirs):
                    members = dirs == direction
                    if np.all(in_part0[members]):
                        mono[row] = False
                        break
        return norms, mono

    results = ordered_map(run_chunk, chunked(range(trials), 256), threads=threads)
    max_norms = np.concatenate([x[0] for x in results])
    successes = max_norms < float(threshold)
    mono_free = None
    mono_freq = None
    if dirs is not None:
        mono_free = np.concatenate([x[1] for x in results])
        mono_freq = float(np.mean(mono_free))
    return ExperimentStats(
        trials=trials, r=r, threshold=float(threshold), max_norms=max_norms,
        successes=successes, success_frequency=float(np.mean(successes)),
        mono_free=mono_free, mono_free_frequency=mono_freq,
        analytic_mono_free=analytic,
    )
