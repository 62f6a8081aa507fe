"""Isotropic vector systems and their r-way partitions.

A Weaver instance is a list of vectors u_1..u_m with sum u_i u_i* = I and
every ||u_i||^2 <= delta.  Lifting to r block copies turns the partition
problem into a descent through an interlacing family in dimension r*d: the
atom choices of the lifted ensemble are exactly the part labels, and a part's
norm is 1/r times the norm of its lifted block sum.  The resulting guarantee
is max part norm <= (1/sqrt(r) + sqrt(delta))^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from ._parallel import chunked, ordered_map
from .interlace import DescentTrace, descend, descent_work
from .mixedchar import FiniteSupportVector, RandomVectorEnsemble
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

    The descent runs on the lifted ensemble; the chosen atom of each lifted
    vector is its part label.  Each part norm is checked against
    (1/sqrt(r) + sqrt(delta))^2 with delta recomputed from the vectors.
    The request is refused before any work when the descent's predicted
    work exceeds the work cap.
    """
    r = int(r)
    policy.admit(descent_work((r,) * inst.count, r * inst.dim),
                 f"partition of {inst.count} vectors into {r} parts")
    rep = validate(inst, policy)
    if not rep.valid:
        raise ValidationError(
            f"instance failed validation: isotropy deviation "
            f"{rep.isotropy_deviation:.3e}, max norm {rep.max_norm_sq:.6g} "
            f"vs declared delta {rep.delta_declared:.6g}"
        )
    delta = rep.max_norm_sq
    ens = lift(inst, r, policy)
    trace = descend(ens, policy, threads=threads)
    parts = tuple(
        tuple(i for i, c in enumerate(trace.final_assignment) if c == k)
        for k in range(r)
    )
    d = inst.dim
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
    """
    if int(r) < 1:
        raise ValidationError("r must be at least 1")
    if trials < 0:
        raise ValidationError("trials must be nonnegative")
    r = int(r)
    m, d = inst.count, inst.dim
    dirs = _diagonal_directions(inst)
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
