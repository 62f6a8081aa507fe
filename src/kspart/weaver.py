"""Isotropic vector systems and their r-way partitions.

A Weaver instance is a list of vectors u_1..u_m with sum u_i u_i* = I and
every ||u_i||^2 <= delta.  Lifting to r block copies turns the partition
problem into a descent through an interlacing family in dimension r*d: the
atom choices of the lifted ensemble are exactly the part labels, and a part's
norm is 1/r times the norm of its lifted block sum.  The resulting guarantee
is max part norm <= (1/sqrt(r) + sqrt(delta))^2.

``partition`` never builds the lift.  Its nodes pin the first k vectors,
which fold into the block bases P_b = r sum_{i < k, prefix_i = b} u_i u_i*,
and every lifted determinant factors into r blocks of size d (Marcus,
Spielman and Srivastava, "Interlacing families II").  Each block is
multiaffine in the unpinned vectors U, so by Leibniz a node polynomial is

    sum over disjoint S_0 .. S_{r-2} in U, |S_b| <= d, of
        prod_b F_b(S_b) chi(P_{r-1} + sum_{i in U - union S_b} u_i u_i*),

chi(M) = det(xI - M), the last block closing the sum over its own subsets.
With P_b = Q_b diag(lam_b) Q_b* and W_b = Q_b* U, Cauchy-Binet gives

    F_b(S) = (-1)^|S| sum_{J in [d], |J| = |S|} |det W_b[J, S]|^2
             prod_{j not in J} (x - lam_{b,j}),

a signed nonnegative combination of minors, so nothing nearly equal is
subtracted, and F_b(S) = 0 for |S| > d, so F_b is kept by subset size;
each minor is the determinant of W_b's columns at S bordered by unit
vectors, S read straight off the subset lattice's rows of its size.
``block_node_poly`` grows the products of the F blocks one block at a
time over the splits of each union, on subset lattice rows, and closes
them with d x d characteristic polynomials of subset sums.  ``descend``
walks those nodes one level per pass: child t pins u_k to block t, so
its unions are a suffix of its parent's lattice rows, its s-subsets the
last of its parent's, and it keeps every F_b but F_t.  One pass closes
on two bases in one characteristic-polynomial stack per chunk, lets child
r - 1 keep its parent's product, builds children 0 .. r - 2 one after
another, each taking its new block in one ``eigh`` and one ``det`` per
chunk and growing its own product, and finds the r children's roots in
one eigenvalue call; every row is computed as for a fresh node, so each
node polynomial equals ``block_node_poly`` bit for bit.  A leaf takes the
eigenvalues of the r part sums.  ``lift`` with ``descend`` on the
ensemble stays as library API and as the oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, realpoly
from .interlace import DescentTrace, NodeFamily, descend, roots_work
from .mixedchar import (CHUNK, GATHER_WORK, FiniteSupportVector,
                        RandomVectorEnsemble, _minor_rows, _positions,
                        _subset_lattice, _SubsetLattice)
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


# Work model of the block engine, in the units of NumericPolicy.work_cap
# (see mixedchar), fitted to 28 partitions of gen_gaussian(d, d/m) with
# (d, r, m) from (1, 2, 60), (4, 2, 40), (2, 3, 40), (3, 3, 20), (2, 4, 16)
# to (1, 20, 5), each predicted within a factor of 2; with one pass per
# level, 18 partitions from (1, 2, 60) to (1, 20, 8) and (2, 4, 31) are
# predicted at 0.57 to 1.62 times their measured time:
BLOCK_WORK = 330_000
"""A node's fixed cost per block."""
ROW_WORK = 5
"""A closing-lattice row costs ROW_WORK * r d^3."""
MINOR_WORK = 2_000
"""A minor |det W[J, S]|^2 and its term of F(S)."""
SPLIT_WORK = 17
"""A split W = A + S of the growth at step b costs SPLIT_WORK times its
(b d + 1)(d + 1) coefficient products and its |W| rank steps."""


def _node_work(n: int, d: int, r: int, chains: int = 1,
               tops: int = 1) -> int:
    """Work of one pass over the lattice rows of n unpinned vectors that
    takes r - 1 F blocks, grows chains products of them and closes on
    tops bases: a fresh node has one chain and one top, a level of
    siblings r - 1 chains and two tops."""
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
        # the later steps split the same unions, into wider products
        later = r - 1 - b
        splits += (count * (d + 1) * later * ((b + r - 2) * d + 2) // 2
                   + later * ranks)
        break
    return (r * BLOCK_WORK + tops * rows * ROW_WORK * r * d ** 3
            + (r - 1) * minors * MINOR_WORK + chains * splits * SPLIT_WORK)


def block_work(m: int, d: int, r: int) -> float:
    """Predicted work of an r-part ``partition`` of m vectors in dimension
    d: the root node in full, with one root finding of degree r d, then
    one pass per level, each taking the r - 1 new F blocks, the r - 1
    grown products and the two closing bases of the r children and r
    root findings, n being the children's unpinned vectors (the leaves,
    which take eigenvalues instead, count as a level)."""
    level = lambda n: (_node_work(n, d, r, r - 1, 2)
                       + r * roots_work(r * d))
    return float(min(_node_work(m, d, r) + roots_work(r * d)
                     + sum(level(n) for n in range(m)), 10 ** 300))


def _node_tables(inst: WeaverInstance, r: int) -> tuple:
    """What every node of the r-part descent reads: u_i u_i* for i < m and
    a zero matrix, the padding of ``_SubsetLattice.members``; and the
    lattice of the unions of the first r - 1 blocks, on whose rows products
    and closings live and whose rows of size s <= d are the subsets of F's
    minors.  Built once."""
    u, m, d = inst.vectors, inst.count, inst.dim
    outers = np.concatenate((np.einsum("mj,mk->mjk", u, u.conj()),
                             np.zeros((1, d, d), dtype=np.complex128)))
    return outers, _subset_lattice(m, min(m, (r - 1) * d))


def _part_sums(outers: np.ndarray, prefix: tuple[int, ...],
               r: int) -> np.ndarray:
    """P_0 .. P_{r-1}: r times the outer products pinned to each block."""
    bases = np.zeros((r,) + outers.shape[1:], dtype=np.complex128)
    for i, t in enumerate(prefix):
        bases[t] += r * outers[i]
    return bases


def block_node_poly(inst: WeaverInstance, prefix, r: int,
                    policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Node polynomial of the r-part descent at a prefix of length k, by
    the block formula of the module docstring; it equals r^k
    ``conditional_expected_poly(lift(inst, r), prefix)`` and is monic of
    degree r d.  Blocks are taken in label order."""
    prefix = tuple(int(t) for t in prefix)
    r = int(r)
    m, d, k = inst.count, inst.dim, len(prefix)
    if r < 1 or k > m or any(not 0 <= t < r for t in prefix):
        raise ValidationError(f"prefix {prefix} is not a prefix of labels "
                              f"below {r} of {m} vectors")
    policy.admit(_node_work(m - k, d, r), f"block node over {m - k} vectors")
    tables = _node_tables(inst, r)
    return _node(inst, tables, _part_sums(tables[0], prefix, r), k)[0]


def _minor_polys(inst: WeaverInstance, base: np.ndarray, n: int,
                 lat: _SubsetLattice) -> list[np.ndarray]:
    """F of a base P by subset size: for s <= min(d, n), F(S) of the
    s-subsets S of the last n vectors in ``combinations`` order, the last
    C(n, s) rows of ``lat.by_size[s]``, so S's lexicographic rank minus
    C(m, s) reads it.  One ``eigh`` diagonalises P, and one ``det`` per
    chunk of subsets takes det W[J, S] for every s-subset J of range(d), in
    ``combinations`` order, as the determinant of the rows of W transposed
    at S over the unit rows e_j, j not in J."""
    d = base.shape[0]
    lam, basis = np.linalg.eigh(base)
    wt = inst.vectors @ basis.conj()  # W transposed
    # prod_{j not in J} (x - lam_j) for every J in range(d), at J's bitmask
    comp = np.zeros((1, d + 1))
    comp[0, 0] = 1.0
    for j in range(d):
        times = np.zeros_like(comp)
        times[:, 1:] = comp[:, :-1]
        comp = np.concatenate((times - lam[j] * comp, comp))
    f = [comp[:1]]  # the empty set
    for s in range(1, min(d, n) + 1):
        units, masks = _minor_rows(d, s)
        rows = lat.by_size[s][-math.comb(n, s):]
        weights = np.empty((len(rows), len(masks)))
        step = max(1, CHUNK // len(masks))
        for lo in range(0, len(rows), step):
            at = lat.members[rows[lo:lo + step], :s]
            mats = np.empty((len(at), len(masks), d, d), dtype=np.complex128)
            mats[:, :, :s] = wt.take(at, axis=0)[:, None]
            mats[:, :, s:] = units
            weights[lo:lo + step] = np.abs(np.linalg.det(mats)) ** 2
        terms = (-1.0) ** s * weights[..., None] * comp[masks]
        # reduceat's x_0 + (x_1 + ...) per S keeps the bits; a J loop does not
        f.append(np.add.reduceat(terms.reshape(-1, d + 1),
                                 np.arange(0, weights.size, len(masks))))
    return f


def _grow(g: np.ndarray | list, f: list[np.ndarray], b: int,
          lat: _SubsetLattice, start: int) -> np.ndarray:
    """G'(W) = sum of G(A) F(S) over the splits W = A + S with |S| <= d and
    |A| <= b d, for the lattice rows W from start: F by subset size, and G
    indexed by row - start, or at b = 1 G = F_0 by subset size; the splits
    of a union add by the size of S, each size summed over S's positions
    in ``combinations`` order, and no terms array holds more than CHUNK
    splits."""
    d = f[0].shape[1] - 1
    width = b * d + 1
    out = np.zeros((lat.members.shape[0] - start, width + d))
    for w in range(min(lat.members.shape[1], (b + 1) * d) + 1):
        unions = lat.by_size[w][np.searchsorted(lat.by_size[w], start):]
        if not unions.size:  # nor any larger unions
            break
        for s in range(max(0, w - b * d), min(w, d) + 1):
            # complements run through combinations order backwards
            pos, rest = _positions(w, s), _positions(w, w - s)[::-1]
            step = max(1, CHUNK // len(pos))
            for lo in range(0, len(unions), step):
                at = unions[lo:lo + step]
                part, a = lat.sub_ranks(lat.members[at, :w], pos, rest)
                part = f[s][part - len(lat.by_size[s])]
                a = (g[w - s][a - len(lat.by_size[w - s])] if b == 1
                     else g[lat.by_size[w - s][a] - start])
                terms = np.zeros(part.shape[:2] + (width + d,))
                for c in range(d + 1):
                    terms[..., c:c + width] += a * part[..., c:c + 1]
                out[at - start] += terms.sum(axis=1)
    return out


def _chain(fs: list[list[np.ndarray]], lat: _SubsetLattice,
           start: int) -> np.ndarray:
    """prod_b F_b on the lattice rows from start, grown one block at a
    time from one node's blocks fs = F_0 .. F_{r-2} by subset size; with
    no block (r = 1) it is 1, the product over the empty union."""
    rows = lat.members.shape[0] - start
    if not fs:
        return np.ones((rows, 1))
    g = fs[0]
    if len(fs) == 1:  # r = 2: F_0 itself, moved onto the lattice rows
        g = np.zeros((rows, fs[0][0].shape[1]))
        for f, at in zip(fs[0], lat.by_size):
            g[at[len(at) - len(f):] - start] = f
    for b in range(1, len(fs)):
        g = _grow(g, fs[b], b, lat, start)
    return g


def _closing(tables: tuple, tops: np.ndarray, start: int) -> list[np.ndarray]:
    """chi(C - sum_{i in W} u_i u_i*) for each C of a stack tops and each
    lattice row W from start: one ``char_poly_stack`` per chunk of rows
    over every top."""
    outers, lat = tables
    d = outers.shape[1]
    rows = lat.members.shape[0] - start
    h = [np.empty((rows, d + 1)) for _ in tops]
    step = max(1, CHUNK // len(tops))
    for lo in range(0, rows, step):
        members = lat.members[start + lo:start + lo + step]
        q = np.zeros((members.shape[0], d, d), dtype=np.complex128)
        for t in range(members.shape[1]):
            q += outers[members[:, t]]
        for x, y in zip(h, linalg.char_poly_stack(tops[:, None] - q)):
            x[lo:lo + len(q)] = y
    return h


def _close(g: np.ndarray, h: np.ndarray, r: int) -> np.ndarray:
    """The node polynomial sum_W G(W) chi_W from its grown products g and
    closing polynomials h."""
    d = h.shape[1] - 1
    products = np.einsum("sa,sb->ab", g, h)
    mu = np.zeros(r * d + 1)
    for j in range(g.shape[1]):
        mu[j:j + d + 1] += products[j]
    return mu


def _node(inst: WeaverInstance, tables: tuple, bases: np.ndarray,
          k: int) -> tuple:
    """``block_node_poly`` at a prefix of length k with part sums bases,
    given ``_node_tables(inst, r)``, with the F blocks and the grown
    product its children reuse."""
    m, r = inst.count, bases.shape[0]
    outers, lat = tables
    start = lat.starts[k]
    fs = [_minor_polys(inst, base, m - k, lat) for base in bases[:-1]]
    g = _chain(fs, lat, start)
    # the closing block: chi(C - sum_{i in W} u_i u_i*), C = P_{r-1} + sum_U
    tops = bases[-1:].copy()
    for i in range(k, m):
        tops += outers[i]
    return _close(g, _closing(tables, tops, start)[0], r), fs, g


def _block_family(inst: WeaverInstance, r: int,
                  policy: NumericPolicy) -> NodeFamily:
    """The r-part descent tree on ``block_node_poly``, one level per pass
    (see the module docstring).  A node's state is its prefix length k,
    its part sums, the F blocks its children read by subset size, and its
    grown product over the lattice rows from ``starts[k]``, which its
    children slice.  At r = 2 a child replaces F_0 or keeps the grown
    product, so no state keeps an F block.
    A leaf's roots are the eigenvalues of the r part sums, exact where the
    coefficients of prod_b chi(P_b) scatter a multiple root (by about 1e-4
    for a double eigenvalue shared by two parts).  ``_node_tables`` are
    built once for the tree and freed with it."""
    m = inst.count
    tables = _node_tables(inst, r)
    outers, lat = tables
    kept = r - 1 if r > 2 else 0  # the F blocks a state keeps

    def root():
        bases = _part_sums(outers, (), r)
        mu, fs, g = _node(inst, tables, bases, 0)
        return realpoly.root_lists([mu], policy)[0], (0, bases, fs[:kept], g)

    def children(state):
        k, bases, fs, g = state
        kids = np.repeat(bases[None], r, axis=0)
        for t in range(r):
            kids[t, t] += r * outers[k]
        if k + 1 == m:
            return [(realpoly.RootList(*np.unique(np.linalg.eigvalsh(kid),
                                                  return_counts=True)), None)
                    for kid in kids]
        start = lat.starts[k + 1]
        n, g = m - k - 1, g[start - lat.starts[k]:]
        fs = [[x[len(x) - math.comb(n, s):] for s, x in enumerate(f[:n + 1])]
              for f in fs]  # each size's suffix
        # children 0 .. r - 2 close on P_{r-1}, child r - 1 on that plus
        # r u_k u_k* (at r = 1 the first goes unused)
        tops = np.array([bases[-1], kids[-1, -1]])
        for i in range(k + 1, m):
            tops += outers[i]
        h = _closing(tables, tops, start)
        # child r - 1 keeps its parent's product: it closes first, so its
        # closing polynomials are gone before the others' products grow
        last = _close(g, h.pop(), r)
        polys, states = [], []
        for t in range(r - 1):  # one child's intermediate products at a time
            blocks = (fs[:t] + [_minor_polys(inst, kids[t, t], n, lat)]
                      + fs[t + 1:])
            grown = _chain(blocks, lat, start)
            polys.append(_close(grown, h[0], r))
            states.append((k + 1, kids[t], blocks[:kept], grown))
        found = realpoly.root_lists(polys + [last], policy)
        states.append((k + 1, kids[-1], fs, g))
        return list(zip(found, states))

    return NodeFamily((r,) * m, root, children)


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
              policy: NumericPolicy = DEFAULT_POLICY) -> PartitionReport:
    """Partition the vectors into r parts by interlacing-family descent.

    The descent walks ``block_node_poly`` and, at the leaves, the
    eigenvalues of the r part sums; the chosen child of each vector is its
    part label.  Each part norm is checked against (1/sqrt(r) +
    sqrt(delta))^2 with delta recomputed from the vectors.
    The request is refused before any work when ``block_work`` exceeds the
    work cap.
    """
    r = int(r)
    m, d = inst.count, inst.dim
    if r < 1 or d < 1:
        raise ValidationError("r and the dimension must be positive")
    policy.admit(block_work(m, d, r),
                 f"partition of {m} vectors into {r} parts")
    rep = validate(inst, policy)
    if not rep.valid:
        raise ValidationError(
            f"instance failed validation: isotropy deviation "
            f"{rep.isotropy_deviation:.3e}, max norm {rep.max_norm_sq:.6g} "
            f"vs declared delta {rep.delta_declared:.6g}"
        )
    delta = rep.max_norm_sq
    trace = descend(_block_family(inst, r, policy), policy)
    parts = tuple(
        tuple(i for i, c in enumerate(trace.final_assignment) if c == k)
        for k in range(r)
    )
    norms = []
    for part in parts:
        s = np.zeros((d, d), dtype=np.complex128)
        for i in part:
            s += np.outer(inst.vectors[i], inst.vectors[i].conj())
        norms.append(linalg.operator_norm(s, policy))
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


def random_partition_experiment(
        inst: WeaverInstance, r: int = 2, trials: int = 1000, seed: int = 0,
        threshold: float = 1.0,
        policy: NumericPolicy = DEFAULT_POLICY) -> ExperimentStats:
    """Assign each vector to a uniform part, per trial, and tally outcomes.

    success means max part norm strictly below the threshold (default 1, the
    full frame norm).  For diagonal instances the fraction of trials in which
    no basis direction landed entirely in part 0 is reported next to the
    analytic value (1 - r^(-copies))^directions; with r = 2 and 1/delta
    copies per direction that is (1 - 2^(-1/delta))^n.  Per-trial seeds
    derive from (seed, trial index), so any trial can be rerun alone.
    The request is refused before any trial when its predicted work exceeds
    the work cap.
    """
    if int(r) < 1:
        raise ValidationError("r must be at least 1")
    if trials < 0:
        raise ValidationError("trials must be nonnegative")
    if not math.isfinite(threshold):
        raise ValidationError("threshold must be finite")
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
    outers = np.einsum("mj,mk->mjk", inst.vectors, inst.vectors.conj())
    max_norms = np.empty(trials)
    mono_free = None if dirs is None else np.empty(trials, dtype=bool)
    for trial in range(trials):
        rng = np.random.default_rng((int(seed), trial))
        labels = rng.integers(0, r, size=m)
        top = 0.0
        for k in range(r):
            sel = labels == k
            if not np.any(sel):
                continue
            s = np.tensordot(sel.astype(float), outers, axes=(0, 0))
            ev = np.linalg.eigvalsh((s + s.conj().T) / 2.0)
            top = max(top, float(ev[-1]))
        max_norms[trial] = top
        if dirs is not None:
            in_part0 = labels == 0
            mono_free[trial] = True
            for direction in np.unique(dirs):
                members = dirs == direction
                if np.all(in_part0[members]):
                    mono_free[trial] = False
                    break
    successes = max_norms < float(threshold)
    mono_freq = None
    if dirs is not None and trials:
        mono_freq = float(np.mean(mono_free))
    return ExperimentStats(
        trials=trials, r=r, threshold=float(threshold), max_norms=max_norms,
        successes=successes,
        success_frequency=float(np.mean(successes)) if trials else None,
        mono_free=mono_free, mono_free_frequency=mono_freq,
        analytic_mono_free=analytic,
    )
