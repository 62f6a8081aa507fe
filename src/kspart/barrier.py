"""Multivariate barrier functions and root-bound certificates.

For a real stable polynomial p and a point z above its roots (p stays
positive on z plus the nonnegative orthant), the barrier in direction i is
Phi^i_p(z) = (d_i p)(z) / p(z).  Two facts drive the root bound for
P(y) = det(sum_i y_i A_i) with rank-one PSD A_i summing to the identity:
applying (1 - d_i) keeps a point with Phi^i < 1 above the roots, and
shifting by delta e_j after applying (1 - d_j) does not increase any
barrier once Phi^j <= 1 - 1/delta.  Iterating over all m directions from
the starting point (sqrt(eps) + eps) * 1 with step delta = 1 + sqrt(eps)
shows every root of the mixed characteristic polynomial is at most
(1 + sqrt(eps))^2 when every trace is at most eps.

P is multiaffine in y for rank-one A_i, so derivatives are exact unit-step
differences, d_i f (y) = f(y + e_i) - f(y), and (1 - d_i) f (y) = f(y - e_i).
Applying the operators for a set S therefore gives P_S(y) = P(y - 1_S),
which is again multiaffine and costs one determinant per point, and z is
above the roots of P_S exactly when z - 1_S is above the roots of P.  The
certificate visits m + 1 levels; each evaluates m + 1 determinants and
decides above-roots with one ``eigvalsh``.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp

from . import linalg
from .mixedchar import MixedInstance
from .policy import (
    CapabilityError,
    CapacityError,
    DEFAULT_POLICY,
    NumericPolicy,
    PoleError,
    ValidationError,
)


class Evaluator:
    """Pointwise-evaluable multivariate polynomial interface."""

    nvars: int

    def value(self, y) -> float:
        raise NotImplementedError

    def value_many(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return np.array([self.value(p) for p in pts])

    def derivative(self, y, i: int,
                   policy: NumericPolicy = DEFAULT_POLICY) -> float:
        """(d_i p)(y) by a central difference with one Richardson pass; the
        step is fd_step_scale * (1 + |y_i|)."""
        y = np.asarray(y, dtype=np.float64)

        def along(s: float) -> float:
            pt = y.copy()
            pt[i] += s
            return self.value(pt)

        return _richardson(along, 0.0,
                           policy.fd_step_scale * (1.0 + abs(float(y[i]))))

    def apply_one_minus_partial(self, i: int) -> "Evaluator":
        raise CapabilityError(
            f"{type(self).__name__} cannot apply (1 - d_i) operators"
        )


def _richardson(f, x: float, h: float) -> float:
    """f'(x) from central differences at steps h and h/2, combined by one
    Richardson extrapolation pass (exact for polynomials of degree <= 4)."""
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + h / 2.0) - f(x - h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


class CallableEvaluator(Evaluator):
    """Wrap a plain callable; derivatives are the base class's Richardson
    central differences."""

    def __init__(self, fn, nvars: int):
        self._fn = fn
        self.nvars = int(nvars)

    def value(self, y) -> float:
        return float(self._fn(np.asarray(y, dtype=np.float64)))


class PolynomialEvaluator(Evaluator):
    """Dense coefficient-grid polynomial; axis k carries powers of y_k."""

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=np.float64)
        if c.ndim < 1:
            raise ValidationError("coefficient grid must have at least one axis")
        self.coeffs = c
        self.nvars = c.ndim

    def value(self, y) -> float:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.nvars,):
            raise ValidationError(
                f"point has shape {y.shape}, expected ({self.nvars},)"
            )
        arr = self.coeffs
        for yi in y:
            arr = npp.polyval(yi, arr)
        return float(arr)

    def derivative(self, y, i: int,
                   policy: NumericPolicy = DEFAULT_POLICY) -> float:
        """Exact: the polyder grid along axis i, evaluated at y."""
        d = npp.polyder(self.coeffs, axis=i)
        return PolynomialEvaluator(d).value(y)

    def apply_one_minus_partial(self, i: int) -> "PolynomialEvaluator":
        d = npp.polyder(self.coeffs, axis=i)
        pad = [(0, self.coeffs.shape[k] - d.shape[k]) for k in range(d.ndim)]
        return PolynomialEvaluator(self.coeffs - np.pad(d, pad))


class DeterminantEvaluator(Evaluator):
    """P_S(y) = prod_{i in S} (1 - d_i) det(sum_i y_i A_i), evaluated exactly.

    With every A_i of rank at most one, P is affine in each y_i, so
    (1 - d_i) P (y) = P(y - e_i) and P_S(y) = P(y - 1_S): one determinant
    per point whatever the size of S.  Matrices of higher rank are accepted
    for the plain determinant (S empty) but refuse operator application.
    S starts empty; ``apply_one_minus_partial`` returns the evaluator with
    one more index in ``applied``.
    """

    def __init__(self, matrices, policy: NumericPolicy = DEFAULT_POLICY):
        mats = tuple(linalg.as_hermitian(m, policy) for m in matrices)
        if not mats:
            raise ValidationError("need at least one matrix")
        d = mats[0].shape[0]
        for m in mats:
            if m.shape[0] != d:
                raise ValidationError("matrices must share a dimension")
        self.matrices = mats
        self.dim = d
        self.nvars = len(mats)
        self.applied: tuple[int, ...] = ()
        self._policy = policy
        ranks = []
        for m in mats:
            ev = np.linalg.eigvalsh(m)
            scale = max(1.0, float(np.max(np.abs(ev))))
            ranks.append(int(np.sum(ev > policy.rank_rtol * scale)))
        self.ranks = tuple(ranks)
        self.all_rank_one = all(r <= 1 for r in ranks)
        total = np.zeros((d, d), dtype=np.complex128)
        for m in mats:
            total += m
        self.isotropic = bool(
            np.max(np.abs(total - np.eye(d))) <= policy.ensemble_isotropy_tol
        )
        self._stack = np.stack(mats)

    def matrix_at(self, y) -> np.ndarray:
        """sum_i y_i A_i, for one point or a stack of points."""
        y = np.asarray(y, dtype=np.float64)
        return np.tensordot(y, self._stack, axes=(y.ndim - 1, 0))

    def base_point(self, y) -> np.ndarray:
        """y - 1_S, the point where P takes the value P_S(y)."""
        y = np.array(y, dtype=np.float64)
        y[..., list(self.applied)] -= 1.0
        return y

    def value_many(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.shape[1] != self.nvars:
            raise ValidationError(
                f"points have {pts.shape[1]} coordinates, expected {self.nvars}"
            )
        return np.linalg.det(self.matrix_at(self.base_point(pts))).real

    def value(self, y) -> float:
        return float(self.value_many(np.asarray(y, dtype=np.float64)[None, :])[0])

    def derivative(self, y, i: int,
                   policy: NumericPolicy = DEFAULT_POLICY) -> float:
        """(d_i P_S)(y), exactly.

        With every rank at most one, P_S is affine in y_i and the unit-step
        difference P_S(y + e_i) - P_S(y) is the derivative.  Otherwise no
        operator can have been applied, and Jacobi's formula
        det(M) tr(M^{-1} A_i) with M = sum_j y_j A_j gives it; it raises
        SingularMatrixError where M is singular at the policy's threshold.
        """
        y = np.asarray(y, dtype=np.float64)
        if self.all_rank_one:
            shifted = y.copy()
            shifted[i] += 1.0
            vals = self.value_many(np.stack([y, shifted]))
            return float(vals[1] - vals[0])
        return float(np.real(linalg.jacobi_directional(
            self.matrix_at(y), self._stack[i], policy)))

    def apply_one_minus_partial(self, i: int) -> "DeterminantEvaluator":
        """The evaluator of (1 - d_i) P_S; shares this one's validated
        matrices, ranks and isotropy flag."""
        i = int(i)
        if not (0 <= i < self.nvars):
            raise ValidationError(f"operator index {i} out of range")
        if i in self.applied:
            raise ValidationError(f"operator {i} already applied")
        if not self.all_rank_one:
            raise CapabilityError(
                "operator application needs rank-one matrices; "
                f"ranks are {self.ranks}"
            )
        if len(self.applied) + 1 > self._policy.operator_cap:
            raise CapacityError(
                f"operator count {len(self.applied) + 1} exceeds the cap "
                f"{self._policy.operator_cap}"
            )
        child = copy.copy(self)
        child.applied = tuple(sorted(self.applied + (i,)))
        return child


@dataclass(frozen=True)
class BivariateFixture:
    """Worked bivariate example: a real stable cubic-in-y polynomial p and
    its companion q = (1 - d_y) p, for exercising the barrier probes."""

    p: PolynomialEvaluator
    q: PolynomialEvaluator


def bivariate_fixture() -> BivariateFixture:
    # coefficient grid, axis 0 = powers of x, axis 1 = powers of y
    grid = np.array([
        [4.0, 17.0, 14.0, 1.0],
        [12.0, 29.0, 13.0, 0.0],
        [8.0, 8.0, 0.0, 0.0],
    ])
    p = PolynomialEvaluator(grid)
    return BivariateFixture(p=p, q=p.apply_one_minus_partial(1))


def barrier_value(p: Evaluator, z, i: int,
                  policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """Phi^i_p(z) = (d_i p)(z) / p(z); rejects evaluation at a zero of p.

    The policy sets the pole tolerance and reaches the derivative (the
    difference step of sampled evaluators, the singularity threshold of
    Jacobi's formula)."""
    z = np.asarray(z, dtype=np.float64)
    val = p.value(z)
    if abs(val) <= policy.pole_tol:
        raise PoleError(f"p(z) = {val:.3e} is within {policy.pole_tol:.1e} of 0")
    return p.derivative(z, i, policy) / val


@dataclass(frozen=True)
class AboveRootsEvidence:
    """Positivity of p on z plus the nonnegative orthant.

    exact=True only for the PSD test on determinant evaluators; sampled ray
    probes are evidence, not proof.  A witness point accompanies failure.
    """

    above: bool
    exact: bool
    witness: tuple[float, ...] | None
    points_checked: int


PROBE_RAYS = 32
PROBE_REACH = 4.0
PROBE_GRID = 8
PROBE_SEED = 0


def above_roots_probe(p: Evaluator, z,
                      policy: NumericPolicy = DEFAULT_POLICY) -> AboveRootsEvidence:
    """Probe whether z lies above the roots of p.

    For a determinant evaluator P_S(y) = P(y - 1_S) the PSD condition
    sum_i (z - 1_S)_i A_i > 0 is checked first; it is sufficient always,
    and for instances resolving the identity it is also necessary (the
    witness z - lambda_min * 1 is a zero of P_S), making the answer exact in
    both directions.  Otherwise p is sampled at z and at PROBE_GRID points
    up to distance PROBE_REACH along each coordinate axis and each of
    PROBE_RAYS random nonnegative unit rays drawn with PROBE_SEED; the
    answer is then evidence, not proof.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (p.nvars,):
        raise ValidationError(f"point has shape {z.shape}, expected ({p.nvars},)")
    if isinstance(p, DeterminantEvaluator):
        ev = np.linalg.eigvalsh(p.matrix_at(p.base_point(z)))
        if ev[0] > 0.0:
            return AboveRootsEvidence(True, True, None, 1)
        if p.isotropic:
            witness = tuple(float(c) for c in (z - ev[0] * np.ones(p.nvars)))
            return AboveRootsEvidence(False, True, witness, 1)
    dirs = [np.eye(p.nvars)[j] for j in range(p.nvars)]
    rng = np.random.default_rng(PROBE_SEED)
    for _ in range(PROBE_RAYS):
        d = rng.random(p.nvars)
        norm = float(np.linalg.norm(d))
        if norm > 0:
            dirs.append(d / norm)
    steps = np.linspace(0.0, PROBE_REACH, PROBE_GRID + 1)[1:]
    points = [z]
    for d in dirs:
        for s in steps:
            points.append(z + s * d)
    vals = p.value_many(np.array(points))
    for point, val in zip(points, vals):
        if not val > 0.0:
            return AboveRootsEvidence(
                False, False, tuple(float(c) for c in point), len(points)
            )
    return AboveRootsEvidence(True, False, None, len(points))


@dataclass(frozen=True)
class LemmaAboveReport:
    phi: float
    premise: AboveRootsEvidence
    conclusion: AboveRootsEvidence

    @property
    def passed(self) -> bool:
        return self.premise.above and self.conclusion.above


def lemma_above_check(p: Evaluator, z, i: int,
                      policy: NumericPolicy = DEFAULT_POLICY) -> LemmaAboveReport:
    """Check: z above roots of p and Phi^i_p(z) < 1 imply z is above the
    roots of p - d_i p."""
    z = np.asarray(z, dtype=np.float64)
    premise = above_roots_probe(p, z, policy=policy)
    if not premise.above:
        raise ValidationError(f"z is not above the roots of p: {premise}")
    phi = barrier_value(p, z, i, policy)
    if not phi < 1.0:
        raise ValidationError(f"Phi^{i} = {phi:.6g} is not below 1")
    q = p.apply_one_minus_partial(i)
    conclusion = above_roots_probe(q, z, policy=policy)
    return LemmaAboveReport(phi=phi, premise=premise, conclusion=conclusion)


@dataclass(frozen=True)
class BarrierShiftRow:
    direction: int
    before: float
    after: float
    ok: bool


@dataclass(frozen=True)
class LemmaBarrierReport:
    delta: float
    phi_j: float
    premise: AboveRootsEvidence
    rows: tuple[BarrierShiftRow, ...]

    @property
    def passed(self) -> bool:
        return self.premise.above and all(r.ok for r in self.rows)


def lemma_barrier_check(p: Evaluator, z, j: int, delta: float,
                        policy: NumericPolicy = DEFAULT_POLICY) -> LemmaBarrierReport:
    """Check: once Phi^j_p(z) <= 1 - 1/delta, every barrier of q = p - d_j p
    at z + delta e_j stays at or below the corresponding barrier of p at z."""
    if delta <= 0:
        raise ValidationError("delta must be positive")
    z = np.asarray(z, dtype=np.float64)
    premise = above_roots_probe(p, z, policy=policy)
    if not premise.above:
        raise ValidationError(f"z is not above the roots of p: {premise}")
    phi_j = barrier_value(p, z, j, policy)
    if phi_j > 1.0 - 1.0 / delta + policy.certificate_slack:
        raise ValidationError(
            f"Phi^{j} = {phi_j:.6g} exceeds 1 - 1/delta = {1.0 - 1.0 / delta:.6g}"
        )
    q = p.apply_one_minus_partial(j)
    shifted = z.copy()
    shifted[j] += delta
    rows = []
    for i in range(p.nvars):
        before = barrier_value(p, z, i, policy)
        after = barrier_value(q, shifted, i, policy)
        tol = policy.probe_tol * (1.0 + abs(before))
        rows.append(BarrierShiftRow(i, before, after, bool(after <= before + tol)))
    return LemmaBarrierReport(
        delta=float(delta), phi_j=phi_j, premise=premise, rows=tuple(rows)
    )


@dataclass(frozen=True)
class ProbeRow:
    delta: float
    phi: float
    slope: float
    monotone_ok: bool
    convex_ok: bool


@dataclass(frozen=True)
class MonotoneConvexReport:
    phi_at_z: float
    rows: tuple[ProbeRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.monotone_ok and r.convex_ok for r in self.rows)


def monotonicity_convexity_probe(p: Evaluator, z, i: int, j: int, deltas,
                                 policy: NumericPolicy = DEFAULT_POLICY) -> MonotoneConvexReport:
    """Above the roots, Phi^i is non-increasing and convex along +e_j.

    Checks Phi^i(z + d e_j) <= Phi^i(z) and the tangent-line inequality
    Phi^i(z + d e_j) <= Phi^i(z) + d * (d_j Phi^i)(z + d e_j) for each d.
    The slope is a finite difference of barrier values with one Richardson
    pass.
    """
    z = np.asarray(z, dtype=np.float64)
    phi0 = barrier_value(p, z, i, policy)
    rows = []
    for d in deltas:
        d = float(d)
        if d <= 0:
            raise ValidationError("probe offsets must be positive")
        zd = z.copy()
        zd[j] += d
        phi_d = barrier_value(p, zd, i, policy)

        def along(s: float) -> float:
            pt = z.copy()
            pt[j] += s
            return barrier_value(p, pt, i, policy)

        slope = _richardson(along, d, policy.fd_step_scale * (1.0 + abs(d)))
        tol = policy.probe_tol * (1.0 + abs(phi0))
        rows.append(ProbeRow(
            delta=d, phi=phi_d, slope=slope,
            monotone_ok=bool(phi_d <= phi0 + tol),
            convex_ok=bool(phi_d <= phi0 + d * slope + tol),
        ))
    return MonotoneConvexReport(phi_at_z=phi0, rows=tuple(rows))


def ks_bound(eps: float) -> float:
    """Root bound (1 + sqrt(eps))^2 for trace spread eps."""
    if not (eps >= 0):
        raise ValidationError("eps must be nonnegative")
    return float((1.0 + np.sqrt(eps)) ** 2)


@dataclass(frozen=True)
class CertificateStep:
    level: int
    point: tuple[float, ...]
    barriers: tuple[float, ...]
    max_barrier: float
    above: AboveRootsEvidence


@dataclass(frozen=True)
class BarrierCertificate:
    """Step-by-step record of the barrier induction.

    valid=True means every recorded barrier stayed at or below phi and every
    step kept above-roots evidence; the roots of the mixed characteristic
    polynomial are then bounded by t + delta = (1 + sqrt(eps))^2.
    """

    epsilon: float
    t: float
    phi: float
    delta: float
    bound: float
    steps: tuple[CertificateStep, ...]
    valid: bool
    aborted_at: int | None = None


def build_certificate(inst: MixedInstance, epsilon: float | None = None,
                      policy: NumericPolicy = DEFAULT_POLICY) -> BarrierCertificate:
    """Run the barrier induction on a rank-one instance resolving the identity.

    Starting from t * 1 with t = sqrt(eps) + eps, apply (1 - d_k) and step
    delta = 1 + sqrt(eps) along e_k for k = 1..m, recording every barrier
    value and exact above-roots evidence.  epsilon defaults to the largest
    trace.
    Instances with a matrix of rank two or more are refused: the exact
    multiaffine evaluation underpinning the certificate does not apply.
    """
    mats = list(inst.matrices)
    m = len(mats)
    if m == 0:
        raise ValidationError("certificate needs at least one matrix")
    if m > policy.operator_cap:
        raise CapacityError(
            f"{m} operator applications exceed the cap {policy.operator_cap}"
        )
    ev = DeterminantEvaluator(mats, policy)
    if not ev.all_rank_one:
        raise CapabilityError(
            f"certificate path requires rank-one matrices; ranks {ev.ranks}"
        )
    if not ev.isotropic:
        raise ValidationError(
            "certificate requires the matrices to sum to the identity"
        )
    traces = [float(np.trace(a).real) for a in mats]
    eps = max(traces) if epsilon is None else float(epsilon)
    if eps <= 0:
        raise ValidationError("epsilon must be positive")
    t = float(np.sqrt(eps) + eps)
    delta = float(1.0 + np.sqrt(eps))
    phi = float(eps / (eps + np.sqrt(eps)))
    bound = t + delta
    x = np.full(m, t)
    steps = []
    valid = True
    aborted_at = None
    current = ev
    for level in range(m + 1):
        pts = np.vstack([x, x + np.eye(m)])
        vals = current.value_many(pts)
        if abs(vals[0]) <= policy.pole_tol or vals[0] < 0:
            valid = False
            aborted_at = level
            break
        barriers = tuple((vals[1 + i] - vals[0]) / vals[0] for i in range(m))
        above = above_roots_probe(current, x, policy=policy)
        max_barrier = max(barriers)
        steps.append(CertificateStep(
            level=level,
            point=tuple(float(c) for c in x),
            barriers=barriers,
            max_barrier=float(max_barrier),
            above=above,
        ))
        if max_barrier > phi + policy.certificate_slack or not above.above:
            valid = False
        if level < m:
            current = current.apply_one_minus_partial(level)
            x = x.copy()
            x[level] += delta
    return BarrierCertificate(
        epsilon=eps, t=t, phi=phi, delta=delta, bound=bound,
        steps=tuple(steps), valid=valid, aborted_at=aborted_at,
    )
