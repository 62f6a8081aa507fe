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
Spielman and Srivastava, "Interlacing families II").  A node polynomial is

    prod_{i >= k} (1 - d/dz_i) prod_b det(xI - P_b + sum_i z_i u_i u_i*)

at z = 0, and two engines compute it.  ``partition`` and
``block_node_poly`` run the one whose closed-form work model
(``state_work`` or ``block_work``) predicts less work, and refuse the
request only when both exceed the work cap.

The state engine (``exterior``) contracts a suffix state, whose size
C(2d, d)^r does not grow with m, with one coefficient block per part sum;
its nodes are formed in t = x - 1 and their roots come back plus 1.  Its
stored states cost 16 bytes an entry and count BYTE_WORK a byte against
the work cap, so it is admitted only where they fit.

The lattice engine.  Each block is multiaffine in the unpinned vectors
U, so by Leibniz a node polynomial is

    sum over disjoint S_0 .. S_{r-2} in U, |S_b| <= d, of
        prod_b F_b(S_b) chi(P_{r-1} + sum_{i in U - union S_b} u_i u_i*),

chi(M) = det(xI - M), the last block closing the sum over its own subsets.
With P_b = Q_b diag(lam_b) Q_b* and W_b = Q_b* U, Cauchy-Binet gives

    F_b(S) = (-1)^|S| sum_{J in [d], |J| = |S|} |det W_b[J, S]|^2
             prod_{j not in J} (x - lam_{b,j}),

a signed nonnegative combination of minors, so nothing nearly equal is
subtracted, and F_b(S) = 0 for |S| > d, so F_b is kept by subset size;
each minor is the determinant of the s x s submatrix W_b[J, S], S read
straight off the subset lattice's rows of its size.  The products of
the F blocks grow one block at a time over the splits of each union, on
subset lattice rows, and close with d x d characteristic polynomials of
subset sums, from the subset expansion's own kernel on the lattice
(``mixedchar._subset_char_polys``).  A node at prefix length k reads
only the lattice of its own n = m - k unpinned vectors, which the r
children of a level share, and ``descend`` asks for each child as a
fresh node, one after another.  A node's rows number sum_{j <= (r-1) d}
C(n, j), so this engine is cheaper only at small m with large d r: K5 at
r = 3 or 4, or gauss(6, 3/4) (m = 8).  Its work, summed over the levels,
is priced in closed form (``block_work``).

Either engine's leaves take the eigenvalues of the r part sums.  On a
2-core machine (Python 3.11, numpy 2.4) the state engine partitions
gauss(3, 1/4) (m = 12) in about 6 ms, and gauss(d, d/m) at (d, r, m) =
(3, 2, 140), (4, 2, 64), (2, 3, 69), (3, 3, 29) and (2, 4, 31) in 0.04
to 0.1 s; (3, 2, 2000) takes 0.6 to 0.8 s.  The lattice engine
partitions K5 in about 0.1 s at r = 3 and 0.24 s at r = 4.
``lift`` with ``descend`` on the ensemble stays as library API and as the
oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, realpoly
from .exterior import (BYTE_WORK, LEVEL_WORK, _complement_polys, _leaves,
                       _part_sums, _state_family, _state_node, _state_work,
                       state_bytes, state_work)
from .interlace import DescentTrace, NodeFamily, descend, roots_work
from .mixedchar import (CHUNK, GATHER_WORK, FiniteSupportVector,
                        RandomVectorEnsemble, _positions, _subset_char_polys,
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


def gen_count(kind: str, n: int, delta: float) -> float:
    """The vectors ``gen_diagonal`` (kind "diagonal", n round(1/delta)) or
    ``gen_gaussian`` (kind "gaussian", round(n/delta)) makes for n and
    delta, infinite when the quotient overflows, after the checks of n and
    delta that the generator makes first: known before any allocation."""
    if n < 1:
        raise ValidationError("dimension must be positive")
    gaussian = kind == "gaussian"
    if not (0 < delta <= (n if gaussian else 1)):
        raise ValidationError(
            f"delta must lie in (0, {'n' if gaussian else 1}]")
    per = (n if gaussian else 1) / delta
    if not math.isfinite(per):
        return math.inf
    return float(round(per) * (1 if gaussian else n))


def gen_diagonal(n: int, delta: float) -> WeaverInstance:
    """1/delta scaled copies of each basis vector; requires 1/delta integer.
    Refused before allocating, as ``gen_gaussian`` is, when the vectors
    would take more bytes than ``DEFAULT_POLICY``'s cap admits."""
    count = gen_count("diagonal", n, delta)
    DEFAULT_POLICY.admit(BYTE_WORK * 16.0 * count * n,
                         f"diagonal instance of {count:.3g} vectors")
    k = 1.0 / delta
    if abs(k - round(k)) > 1e-9:
        raise ValidationError(f"1/delta = {k} is not an integer")
    k = int(round(k))
    vecs = np.zeros((n * k, n), dtype=np.complex128)
    vecs[np.arange(n * k), np.arange(n).repeat(k)] = math.sqrt(delta)
    return WeaverInstance(n, vecs, delta)


def gen_gaussian(n: int, delta: float, seed: int = 0,
                 policy: NumericPolicy = DEFAULT_POLICY) -> WeaverInstance:
    """Isotropized Gaussian sample: m = round(n/delta) vectors with
    E||v||^2 = delta, renormalized into exact isotropic position.

    The declared delta of the result is the measured max ||w||^2, which
    fluctuates around the requested value.  Up to three draws are attempted
    if the sample covariance is rank-deficient.  The request is refused
    before any draw when the m x n complex vectors would take more bytes
    than the work cap admits at BYTE_WORK a byte.
    """
    count = gen_count("gaussian", n, delta)
    policy.admit(BYTE_WORK * 16.0 * count * n,
                 f"gaussian instance of {count:.3g} vectors")
    m = int(count)
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
# to (1, 20, 5), each predicted within a factor of 2; K5 at r = 3 and 4 and
# gauss(d, d/m) at (d, r, m) = (6, 2, 8), (8, 2, 16) and (5, 3, 14), each
# node built afresh, are predicted at 1.2 to 2.3 times their measured time:
BLOCK_WORK = 330_000
"""A node's fixed cost per block."""
ROW_WORK = 5
"""A closing-lattice row costs ROW_WORK * r d^3."""
MINOR_WORK = 2_000
"""A minor |det W[J, S]|^2 and its term of F(S)."""
SPLIT_WORK = 17
"""A split W = A + S of the growth at step b costs SPLIT_WORK times its
(b d + 1)(d + 1) coefficient products and its |W| rank steps."""


def _splits(w: int, b: int, d: int) -> range:
    """The sizes of S in the splits W = A + S, |W| = w, of growth step b."""
    return range(max(0, w - b * d), min(w, d) + 1)


def _node_row(d: int, r: int, top: int) -> list[int]:
    """a[w] for w <= min(top, (r - 1) d): _node_work(n, d, r) = r BLOCK_WORK
    + sum_w a[w] C(n, w) for n <= top.  A w-subset costs a closing row,
    C(d, w) minors in each of the r - 1 F blocks and, at each growth step
    b, the C(w, s) splits of ``_splits``; no step before (w - 1) // d
    splits it, and from the first with b d >= w on each takes them all."""
    row = []
    for w in range(min(top, (r - 1) * d) + 1):
        x = ROW_WORK * r * d ** 3 + (r - 1) * MINOR_WORK * math.comb(d, w)
        for b in range(max(1, (w - 1) // d), r - 1):
            c = SPLIT_WORK * sum(math.comb(w, s) for s in _splits(w, b, d))
            if b * d >= w:  # steps b .. r - 2: an arithmetic series
                later = r - 1 - b  # (d + 1)((b + r - 2) d + 2) is even
                x += c * later * ((d + 1) * ((b + r - 2) * d + 2) // 2 + w)
                break
            x += c * ((b * d + 1) * (d + 1) + w)
        row.append(x)
    return row


def _node_work(n: int, d: int, r: int) -> int:
    """Work of one node over the lattice rows of n unpinned vectors: its
    r - 1 F blocks, their grown product and its closing (``_node_row``);
    10^300 from 2^1000 rows on, which it has once min(n, (r - 1) d) >= 1000."""
    if min(n, (r - 1) * d) >= 1000:
        return 10 ** 300
    return r * BLOCK_WORK + sum(x * math.comb(n, w)
                                for w, x in enumerate(_node_row(d, r, n)))


def block_work(m: int, d: int, r: int) -> float:
    """Predicted work of an r-part ``partition`` of m vectors in dimension
    d: the root node, then r fresh nodes per level, n being the children's
    unpinned vectors, each node with one root finding of degree r d (the
    leaves, which take eigenvalues instead, count as a level).  In closed
    form, on one row of ``_node_row``: the levels n < m sum C(n, w) to
    C(m, w + 1)."""
    if min(m, (r - 1) * d) >= 1000:
        return 1e300
    work = (1 + r * m) * (r * BLOCK_WORK + roots_work(r * d)) + sum(
        x * (math.comb(m, w) + r * math.comb(m, w + 1))
        for w, x in enumerate(_node_row(d, r, m)))
    return float(min(work, 10 ** 300))


def block_node_poly(inst: WeaverInstance, prefix, r: int,
                    policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Node polynomial of the r-part descent at a prefix of length k, in
    x, on the engine that predicts less work for one node (see the module
    docstring); it equals r^k ``conditional_expected_poly(lift(inst, r),
    prefix)`` and is monic of degree r d.  Blocks are taken in label
    order."""
    prefix = tuple(int(t) for t in prefix)
    r = int(r)
    m, d, k = inst.count, inst.dim, len(prefix)
    if r < 1 or k > m or any(not 0 <= t < r for t in prefix):
        raise ValidationError(f"prefix {prefix} is not a prefix of labels "
                              f"below {r} of {m} vectors")
    n = m - k
    if _admit(_node_work(n, d, r), _state_work(n, d, r, 1) + LEVEL_WORK,
              state_bytes(1, d, r), policy, f"block node over {n} vectors"):
        return _state_node(inst.vectors, prefix, r, 0.0)
    u = inst.vectors
    bases = _part_sums(np.einsum("mj,mk->mjk", u, u.conj()), prefix, r)
    return _node(u, bases, _subset_lattice(n, min(n, (r - 1) * d)))


def _minor_polys(u: np.ndarray, base: np.ndarray,
                 lat: _SubsetLattice) -> list[np.ndarray]:
    """F of a base P by subset size: for s <= min(d, n), F(S) of the
    s-subsets S of the last n vectors of u, n being the lattice's, in
    ``combinations`` order, the rows ``lat.by_size[s]``.  One ``eigh``
    diagonalises P, and one ``det`` per chunk of subsets takes the s x s
    minors det W[J, S] for every s-subset J of range(d), in
    ``combinations`` order, from the rows of W transposed at S and its
    columns at J; W transposed from the last n of u alone may differ in
    bits."""
    d, n = base.shape[0], len(lat.binom)
    lam, basis = np.linalg.eigh(base)
    wt = (u @ basis.conj())[len(u) - n:]  # W transposed
    comp = _complement_polys(lam)
    f = [comp[:1]]  # the empty set
    for s in range(1, min(d, n) + 1):
        cols = _positions(d, s)
        rows = lat.by_size[s]
        weights = np.empty((len(rows), len(cols)))
        step = max(1, CHUNK // len(cols))
        for lo in range(0, len(rows), step):
            at = lat.members[rows[lo:lo + step], :s]
            minors = np.linalg.det(wt[at[:, None, :, None], cols[:, None]])
            weights[lo:lo + step] = np.abs(minors) ** 2
        terms = (-1.0) ** s * weights[..., None] * comp[(1 << cols).sum(1)]
        # reduceat's x_0 + (x_1 + ...) per S keeps the bits; a J loop does not
        f.append(np.add.reduceat(terms.reshape(-1, d + 1),
                                 np.arange(0, weights.size, len(cols))))
    return f


def _grow(g: np.ndarray, f: list[np.ndarray], b: int,
          lat: _SubsetLattice) -> np.ndarray:
    """G'(W) = sum of G(A) F(S) over the splits W = A + S with |S| <= d and
    |A| <= b d, for the lattice rows W: F by subset size and G on the
    lattice rows; the splits of a union add by the size of S, each size
    summed over S's positions in ``combinations`` order, and no terms
    array holds more than CHUNK splits."""
    d = f[0].shape[1] - 1
    width = b * d + 1
    out = np.zeros((lat.members.shape[0], width + d))
    for w in range(min(lat.members.shape[1], (b + 1) * d) + 1):
        unions = lat.by_size[w]
        for s in _splits(w, b, d):
            # complements run through combinations order backwards
            pos, rest = _positions(w, s), _positions(w, w - s)[::-1]
            step = max(1, CHUNK // len(pos))
            for lo in range(0, len(unions), step):
                at = unions[lo:lo + step]
                part, a = lat.sub_ranks(lat.members[at, :w], pos, rest)
                part, a = f[s][part], g[lat.by_size[w - s][a]]
                terms = np.zeros(part.shape[:2] + (width + d,))
                for c in range(d + 1):
                    terms[..., c:c + width] += a * part[..., c:c + 1]
                out[at] += terms.sum(axis=1)
    return out


def _node(u: np.ndarray, bases: np.ndarray,
          lat: _SubsetLattice) -> np.ndarray:
    """``block_node_poly`` on the lattice engine at the part sums bases of
    a prefix of length k of the vectors u, given the lattice of the n =
    m - k unpinned ones: sum_W G(W) chi_W over the lattice rows W, G the
    product of the F blocks (F_0 put on the rows, then grown; 1 with no
    block) and chi_W = chi(C - sum_{i in W} u_i u_i*), C = P_{r-1} +
    sum_{i >= k} u_i u_i*, from ``_subset_char_polys``."""
    r, d, n = len(bases), u.shape[1], len(lat.binom)
    rows = lat.members.shape[0]
    outers = np.einsum("mj,mk->mjk", u[len(u) - n:], u[len(u) - n:].conj())
    g = np.ones((rows, 1))
    if r > 1:
        f = _minor_polys(u, bases[0], lat)
        g = np.zeros((rows, d + 1))
        g[np.concatenate(lat.by_size[:len(f)])] = np.concatenate(f)
    for b in range(1, r - 1):
        g = _grow(g, _minor_polys(u, bases[b], lat), b, lat)
    top = bases[-1].copy()
    for outer in outers:
        top += outer
    h = _subset_char_polys(lat, top, outers)
    products = np.einsum("sa,sb->ab", g, h)
    mu = np.zeros(r * d + 1)
    for j in range(g.shape[1]):
        mu[j:j + d + 1] += products[j]
    return mu


def _block_family(inst: WeaverInstance, r: int,
                  policy: NumericPolicy) -> NodeFamily:
    """The r-part descent tree on the lattice engine.  A node's state is
    its prefix, each child is a fresh ``_node`` (the r of a level share a
    lattice), and a leaf takes ``_leaves`` of its part sums."""
    u, m, d = inst.vectors, inst.count, inst.dim
    outers = np.einsum("mj,mk->mjk", u, u.conj())

    def root():
        lat = _subset_lattice(m, min(m, (r - 1) * d))
        node = _node(u, _part_sums(outers, (), r), lat)
        return realpoly.top_roots([node], policy)[0], ()

    def children(prefix):
        kids = [prefix + (t,) for t in range(r)]
        bases = [_part_sums(outers, kid, r) for kid in kids]
        if len(prefix) + 1 == m:
            return _leaves(np.array(bases))
        n = m - len(prefix) - 1
        lat = _subset_lattice(n, min(n, (r - 1) * d))
        found = realpoly.top_roots([_node(u, x, lat) for x in bases], policy)
        return list(zip(found, kids))

    return NodeFamily((r,) * m, root, children)


def _picks_states(lattice: float, states: float) -> bool:
    """Whether a request whose suffix states fit runs on the state engine:
    when that predicts less work than the lattice engine."""
    return states < lattice


def _admit(lattice: float, states: float, nbytes: float,
           policy: NumericPolicy, what: str) -> bool:
    """Admit a request on the engine that predicts less work, and say
    whether that is the state engine.  The state engine holds max(states,
    BYTE_WORK nbytes) against the cap, so it is admitted only when its
    stored states fit too; the request is refused, with the smaller
    figure, when neither engine is under the cap."""
    held = max(states, nbytes * BYTE_WORK)
    if held <= policy.work_cap and _picks_states(lattice, states):
        return True
    policy.admit(lattice if held <= policy.work_cap else min(lattice, held),
                 what)
    return False


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

    The descent walks the node polynomials on the engine that predicts
    less work, ``state_work`` or ``block_work``, and, at the leaves, the
    eigenvalues of the r part sums; the chosen child of each vector is its
    part label.  Each part norm is checked against (1/sqrt(r) +
    sqrt(delta))^2 with delta recomputed from the vectors.
    The request is refused before any work when neither engine is under
    the work cap.
    """
    r = int(r)
    m, d = inst.count, inst.dim
    if r < 1 or d < 1:
        raise ValidationError("r and the dimension must be positive")
    use_states = _admit(block_work(m, d, r), state_work(m, d, r),
                        state_bytes(m, d, r), policy,
                        f"partition of {m} vectors into {r} parts")
    rep = validate(inst, policy)
    if not rep.valid:
        raise ValidationError(
            f"instance failed validation: isotropy deviation "
            f"{rep.isotropy_deviation:.3e}, max norm {rep.max_norm_sq:.6g} "
            f"vs declared delta {rep.delta_declared:.6g}"
        )
    delta = rep.max_norm_sq
    family = (_state_family(inst.vectors, r, policy) if use_states
              else _block_family(inst, r, policy))
    trace = descend(family, policy)
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
