"""Univariate real polynomials: derivative operators, roots, interlacing.

Polynomials are 1-D float arrays of ascending coefficients.  Root finding
follows the companion-matrix route with one Newton polish per root, then
clusters nearby roots into multiplicities; ``root_lists`` takes several
polynomials through one eigenvalue call, and ``roots`` is its case of
one.  A polynomial that fails the real-rootedness check raises
RootednessError carrying the offending imaginary magnitude.  Inside it
every evaluation is Horner's rule on Python floats (on plain arrays for
the polish), by ``npp.polyval``'s operations, so it gives numpy's bits
without numpy's per-call overhead.

No function takes a per-call tolerance, sample count or seed: those come
from the NumericPolicy argument or the module constant COMBO_SEED (the
sampled tests).  shrunk_power_largest_root needs none: its bisection runs
until the bracket cannot narrow.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npp

from .linalg import _pairwise
from .policy import (
    DEFAULT_POLICY,
    NumericPolicy,
    RootednessError,
    ValidationError,
)

COMBO_SEED = 0


def as_poly(coeffs) -> np.ndarray:
    """Coerce to an ascending coefficient array, trimming trailing zeros."""
    p = np.atleast_1d(np.asarray(coeffs, dtype=np.float64))
    if p.ndim != 1:
        raise ValidationError(f"expected 1-D coefficients, got shape {p.shape}")
    if p.size and not np.all(np.isfinite(p)):
        raise ValidationError("polynomial has non-finite coefficients")
    p = npp.polytrim(p)
    return p


def degree(p) -> int:
    """Degree after trimming; the zero polynomial reports -1."""
    q = as_poly(p)
    if q.size == 1 and q[0] == 0.0:
        return -1
    return q.size - 1


def poly_eval(p, x):
    return npp.polyval(x, as_poly(p))


def from_roots(root_values) -> np.ndarray:
    """Monic polynomial with the given roots (ascending coefficients)."""
    r = np.atleast_1d(np.asarray(root_values, dtype=np.float64))
    if not np.all(np.isfinite(r)):
        raise ValidationError("roots must be finite")
    if r.size == 0:
        return np.array([1.0])
    return npp.polyfromroots(r)


def one_minus_c_derivative(p, c: float) -> np.ndarray:
    """Apply (1 - c d/dx) to p."""
    if not math.isfinite(c):
        raise ValidationError("c must be finite")
    q = as_poly(p)
    if q.size == 1:
        return q.copy()
    d = npp.polyder(q)
    return npp.polysub(q, float(c) * d)


def laguerre_expected(n: int, applications: int, delta: float) -> np.ndarray:
    """(1 - delta d/dx)^applications applied to x^n, in closed form: the
    coefficient of x^(n-j) is c_{n-j} delta^j, c being
    ``_shrunk_power_coeffs(n, applications)``, taken exactly and rounded
    once, so the cost does not grow with the number of applications."""
    if n < 0 or applications < 0:
        raise ValidationError("degree and application count must be nonnegative")
    if not (0 <= delta < float("inf")):
        raise ValidationError("shrinkage constant must be nonnegative and finite")
    exact = Fraction(delta)
    try:
        return np.array([float(c * exact ** (n - k)) for k, c in
                         enumerate(_shrunk_power_coeffs(n, applications))])
    except OverflowError:
        raise ValidationError("a coefficient exceeds the float range") from None


def gaussian_expected_poly(dim: int, delta: float) -> np.ndarray:
    """Expected characteristic polynomial of an isotropized Gaussian half-sample.

    For dim-dimensional vectors with E||v||^2 = delta (per-coordinate variance
    delta/dim) a rank-one update contributes one factor (1 - (delta/dim) d/dx),
    and half of the n/delta vectors gives n/(2 delta) applications to x^dim.
    The mean of the resulting root distribution is 1/2.
    """
    if dim < 1:
        raise ValidationError("dimension must be positive")
    if not (0 < delta <= dim):
        raise ValidationError("delta must lie in (0, dim]")
    applications = int(round(dim / (2.0 * delta)))
    return laguerre_expected(dim, applications, delta / dim)


def _shrunk_power_coeffs(n: int, a: int) -> list[int]:
    """Ascending integer coefficients of (1 - d/dy)^a y^n, which are
    c_{n-j} = (-1)^j C(a, j) n!/(n-j)!."""
    coeffs = [0] * (n + 1)
    falling = 1  # n!/(n-j)!
    for j in range(min(n, a) + 1):
        coeffs[n - j] = (-1) ** j * math.comb(a, j) * falling
        falling *= n - j
    return coeffs


# Work model of shrunk_power_largest_root, in the units of
# NumericPolicy.work_cap (see policy), timed at k = 5 .. 100000 (0.7 ms at
# k = 50, 0.33 s at k = 20000, 1.9 s at k = 100000), each predicted within
# a factor of 1.3:
PIVOT_WORK = 300
"""One pivot of a Sturm count."""


def shrunk_power_largest_root(n: int, applications: int, delta: float) -> float:
    """Largest root of (1 - delta d/dx)^applications x^n.

    Substituting x = delta*y turns the operator into (1 - d/dy), and up to
    sign and a power of y, (1 - d/dy)^a y^n is a Laguerre polynomial
    L_k^(alpha) with k = min(n, a) and alpha = |n - a|.  Its zeros are the
    eigenvalues of the k x k Jacobi matrix with diagonal 2i + alpha + 1 and
    off-diagonal sqrt((i + 1)(i + 1 + alpha)), all in (0, Gershgorin
    bound].  Bisection on the Sturm count of that matrix (its negative
    pivots below x) halves the bracket until the midpoint equals an end,
    one O(k) count per halving, and returns the upper end.  The predicted
    work, PIVOT_WORK per pivot, is admitted against DEFAULT_POLICY first.
    """
    n = int(n)
    applications = int(applications)
    if n < 1 or applications < 0:
        raise ValidationError("need n >= 1 and applications >= 0")
    if not (0.0 < delta < float("inf")):
        raise ValidationError("delta must be positive and finite")
    if 2 * n * applications > sys.float_info.max:
        # the pivots' products i (i + alpha) reach n applications, a float
        raise ValidationError("2 n applications exceeds the float range")
    if applications == 0:
        return 0.0
    k, alpha = min(n, applications), float(abs(n - applications))
    # the top zero is at least the mean zero k + alpha, a quarter of the
    # bound, so the bracket narrows to one ulp of it in mant_dig + 3 halvings
    DEFAULT_POLICY.admit(k * (sys.float_info.mant_dig + 3) * PIVOT_WORK,
                         f"largest root of a degree-{k} Laguerre polynomial")
    lo, hi = 0.0, 2 * k + alpha + 2.0 * math.sqrt(k * (k + alpha))
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        q, below = 1.0, 0
        for i in range(k):
            # a zero pivot counts as -0, so the next one is +inf
            q = 2 * i + alpha + 1 - mid - (i * (i + alpha) / q if q
                                           else -math.inf)
            below += q <= 0
        if below == k:
            hi = mid
        else:
            lo = mid
    return hi * float(delta)


@dataclass(frozen=True)
class RootList:
    """Sorted distinct real roots with multiplicities."""

    values: np.ndarray
    multiplicities: np.ndarray

    def expand(self) -> np.ndarray:
        """Roots repeated by multiplicity, ascending."""
        if self.values.size == 0:
            return np.array([])
        return np.repeat(self.values, self.multiplicities)

    @property
    def total(self) -> int:
        return int(np.sum(self.multiplicities)) if self.values.size else 0


@dataclass(frozen=True)
class RealRootedness:
    real_rooted: bool
    max_imag: float


def _nonzero_poly(p) -> np.ndarray:
    """as_poly(p), refusing the zero polynomial, which has no root set."""
    q = as_poly(p)
    if q.size == 1 and q[0] == 0.0:
        raise ValidationError("the zero polynomial has no root set")
    return q


def _horner(c: list, x):
    """``npp.polyval(x, c)`` for a list c of Python floats, by its own
    operations: c[-1] + x*0, then c[-i] + acc*x.  x is a Python float or
    a plain array."""
    acc = c[-1] + x * 0
    for a in c[-2::-1]:
        acc = a + acc * x
    return acc


def _derivatives(c: list) -> list[list]:
    """c and its derivatives down to a constant, each by ``npp.polyder``'s
    operations (j * c[j])."""
    out = [c]
    while len(out[-1]) > 1:
        d = out[-1]
        out.append([j * d[j] for j in range(1, len(d))])
    return out


def _companion_roots(qs) -> list[np.ndarray]:
    """``npp.polyroots`` of trimmed polynomials of degree >= 1, given as a
    list of arrays or as the rows of one.  Those of one degree n >= 2 share
    one ``np.linalg.eigvals`` call over their stacked ``npp.polycompanion``
    matrices, each made real when its roots are and sorted as ``polyroots``
    does."""
    n = qs[0].size - 1
    if n < 2 or any(q.size != n + 1 for q in qs):
        return [npp.polyroots(q) for q in qs]
    mats = np.zeros((len(qs), n, n))
    mats[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    stack = np.array(qs)
    mats[:, :, -1] -= stack[:, :-1] / stack[:, -1:]
    out = []
    for w in np.linalg.eigvals(mats):
        if not w.imag.any():
            w = w.real
        w.sort()
        out.append(w)
    return out


def _polished_roots(derivs: list[list], raw: np.ndarray) -> np.ndarray:
    """Companion-matrix roots raw of ``derivs[0]`` with one Newton polish
    each."""
    c = derivs[0]
    vals = _horner(c, raw)
    slopes = _horner(derivs[1], raw)
    safe = np.abs(slopes) > 1e-300
    polished = raw.copy()
    polished[safe] = raw[safe] - vals[safe] / slopes[safe]
    # keep the polish only where it did not wander
    worse = np.abs(_horner(c, polished)) > np.abs(vals)
    polished[worse] = raw[worse]
    return polished


def _mean(pts: list[complex]) -> complex:
    """``complex(np.mean(pts))`` by numpy's operations: the pairwise sum
    plus 0.0, then complex division by n + 0j, which scales (re + im*0)
    and (im - re*0) by 1/n."""
    n = len(pts)
    s = _pairwise(pts, 0, n) + 0.0
    return complex((s.real + s.imag * 0.0) * (1.0 / n),
                   (s.imag - s.real * 0.0) * (1.0 / n))


def _greedy_clusters(croots: np.ndarray, radius: float) -> list[list[complex]]:
    """Group roots whose running centroid stays within radius.

    Input order is (re, im)-sorted so conjugate pairs land adjacently and a
    conjugate-closed cluster has an exactly real mean.
    """
    order = np.lexsort((croots.imag, croots.real))
    pts = croots[order].astype(np.complex128).tolist()
    clusters = [[pts[0]]]
    for z in pts[1:]:
        last = clusters[-1]
        c = last[0] if len(last) == 1 else _mean(last)
        if abs(z - c) <= radius:
            last.append(z)
        else:
            clusters.append([z])
    return clusters


def _try_real_clustering(derivs, croots, radius, policy):
    """One clustering attempt for c = derivs[0], a coefficient list, and
    its ``_derivatives``; (values, mults) or None.

    Accepts when every cluster mean is real within real_root_imag_rtol and
    the residual of c at the mean is at evaluation-noise level for
    coefficients of this size.
    A genuine multiple root passes (cluster means cancel the companion-matrix
    ring noise to machine precision); a merged pair of distinct roots leaves
    a residual far above noise and is refused, so coarser radii cannot paper
    over genuinely complex roots.
    """
    c = derivs[0]
    absc = [abs(a) for a in c]
    values, mults = [], []
    for cluster in _greedy_clusters(croots, radius):
        # a singleton's mean: + 0.0 turns -0.0 into 0.0, as np.mean does
        m = cluster[0] + 0.0 if len(cluster) == 1 else _mean(cluster)
        if abs(m.imag) > policy.real_root_imag_rtol * (1.0 + abs(m.real)):
            return None
        x = _polish_multiple(derivs, m.real, len(cluster), 2.0 * radius)
        noise = policy.root_residual_rtol * _horner(absc, max(1.0, abs(x)))
        if abs(_horner(c, x)) > max(noise, 1e-250):
            return None
        values.append(x)
        mults.append(len(cluster))
    return values, mults


def _polish_multiple(derivs: list[list], x: float, k: int,
                     leash: float) -> float:
    """Newton-polish a k-fold root candidate on the (k-1)-th derivative.

    A k-fold root of c = derivs[0] is a simple root there, so the cluster
    mean (accurate only to a fractional power of the noise) sharpens to
    near machine precision.  Movement is leashed to the cluster scale; a step that fails
    to reduce the derivative magnitude is discarded.
    """
    # k is at most the degree, so derivs[k] exists
    dk, dk1 = derivs[k - 1], derivs[k]
    start = x
    fx = _horner(dk, x)
    for _ in range(3):
        den = _horner(dk1, x)
        if abs(den) < 1e-300:
            break
        xn = x - fx / den
        if abs(xn - start) > leash + 1e-30:
            break
        fxn = _horner(dk, xn)
        if abs(fxn) < abs(fx):
            x, fx = xn, fxn
        else:
            break
    return x


def _root_clustering(q, policy, raw):
    """Real clustering of the roots of a trimmed q of degree >= 1, given
    its companion-matrix roots raw; ((values, mults) or None, max_imag)."""
    derivs = _derivatives(q.tolist())
    croots = _polished_roots(derivs, raw)
    scale = 1.0 + float(np.max(np.abs(croots)))
    max_imag = float(np.max(np.abs(croots.imag)))
    # escalate the merge radius half a decade at a time: a multiplicity-k
    # root scatters over a ring of radius about eps**(1/k), so high
    # multiplicities need coarse merges while simple roots accept early
    floor = max(policy.root_merge_rtol, 1e-12)
    radius = floor * scale
    while radius <= 0.101 * scale:
        got = _try_real_clustering(derivs, croots, radius, policy)
        if got is not None:
            return got, max_imag
        radius *= 3.1622776601683795
    return None, max_imag


def is_real_rooted(p, policy: NumericPolicy = DEFAULT_POLICY) -> RealRootedness:
    """Check all roots are real, allowing multiple-root cluster noise; a
    cluster mean counts as real within policy.real_root_imag_rtol."""
    q = _nonzero_poly(p)
    if q.size == 1:
        return RealRootedness(True, 0.0)
    got, max_imag = _root_clustering(q, policy, _companion_roots([q])[0])
    return RealRootedness(got is not None, max_imag)


def roots(p, policy: NumericPolicy = DEFAULT_POLICY) -> RootList:
    """Real roots with multiplicities; raises RootednessError if no
    noise-consistent real clustering of the computed roots exists, with
    cluster means real within policy.real_root_imag_rtol."""
    return root_lists([p], policy)[0]


def root_lists(ps, policy: NumericPolicy = DEFAULT_POLICY) -> list[RootList]:
    """``roots`` of each polynomial of ps, in order; the companion matrices
    of the non-constant ones share one ``_companion_roots`` call, which
    gives each the bits of its own."""
    qs = [_nonzero_poly(p) for p in ps]
    live = [q for q in qs if q.size > 1]
    raws = iter(_companion_roots(live) if live else [])
    out = []
    for q in qs:
        if q.size == 1:
            out.append(RootList(np.array([]), np.array([], dtype=int)))
            continue
        got, max_imag = _root_clustering(q, policy, next(raws))
        if got is None:
            raise RootednessError(
                f"polynomial is not real-rooted: max imaginary part "
                f"{max_imag:.3e}", max_imag)
        values, mults = got
        order = np.argsort(values)
        out.append(RootList(np.asarray(values)[order],
                            np.asarray(mults, dtype=int)[order]))
    return out


def largest_root(p, policy: NumericPolicy = DEFAULT_POLICY) -> float:
    r = roots(p, policy)
    if r.values.size == 0:
        raise ValidationError("constant polynomial has no largest root")
    return float(r.values[-1])


def interlaces(g, f, policy: NumericPolicy = DEFAULT_POLICY) -> bool:
    """Weak interlacing: deg g = deg f - 1 and the roots alternate
    beta_1 <= alpha_1 <= beta_2 <= ... <= beta_n, with slack
    policy.interlace_rtol relative to the largest root magnitude."""
    gp, fp = as_poly(g), as_poly(f)
    if degree(fp) < 1 or degree(gp) != degree(fp) - 1:
        raise ValidationError(
            f"degree mismatch: {degree(gp)} vs {degree(fp)} (need one less)"
        )
    if gp[-1] <= 0 or fp[-1] <= 0:
        raise ValidationError("leading coefficients must be positive")
    alpha = roots(gp, policy).expand()
    beta = roots(fp, policy).expand()
    allr = np.concatenate([alpha, beta]) if alpha.size else beta
    slack = policy.interlace_rtol * (1.0 + float(np.max(np.abs(allr))))
    for i in range(alpha.size):
        if alpha[i] < beta[i] - slack or alpha[i] > beta[i + 1] + slack:
            return False
    return True


def common_interlacing_test(fs, policy: NumericPolicy = DEFAULT_POLICY) -> bool:
    """Sampled test for a common interlacing of same-degree polynomials.

    Checks real-rootedness of the uniform average, every pairwise midpoint,
    and policy.combo_samples random convex combinations drawn with
    COMBO_SEED; their companion matrices go through one eigenvalue call.
    A failure is definitive (no common interlacing); a pass is evidence,
    not proof.
    """
    polys = [as_poly(f) for f in fs]
    if len(polys) == 0:
        raise ValidationError("need at least one polynomial")
    degs = {degree(p) for p in polys}
    if len(degs) != 1 or degs == {-1}:
        raise ValidationError("polynomials must share a positive degree")
    d = degs.pop()
    if d < 1:
        raise ValidationError("polynomials must share a positive degree")
    for i, p in enumerate(polys):
        if p[-1] <= 0:
            raise ValidationError(f"polynomial {i} must have a positive leading coefficient")
        if not is_real_rooted(p, policy).real_rooted:
            raise ValidationError(f"polynomial {i} is not real-rooted")
    if len(polys) == 1:
        return True
    stack = np.array(polys)
    combos = [np.mean(stack, axis=0)]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            combos.append((stack[i] + stack[j]) / 2.0)
    rng = np.random.default_rng(COMBO_SEED)
    for _ in range(policy.combo_samples):
        lam = rng.dirichlet(np.ones(len(polys)))
        combos.append(lam @ stack)
    # convex combinations keep a positive leading coefficient, so their
    # rows need no trimming
    combos = np.array(combos)
    if not np.all(np.isfinite(combos)):
        raise ValidationError("polynomial has non-finite coefficients")
    for q, raw in zip(combos, _companion_roots(combos)):
        if _root_clustering(q, policy, raw)[0] is None:
            return False
    return True


@dataclass(frozen=True)
class SeparationReport:
    """Location of the lone window root of a sum of sign-aligned polynomials."""

    window: tuple[float, float]
    individual_roots: tuple[float, ...]
    sum_root: float
    bracket: tuple[float, float]
    ok: bool


def separate_check(fs, s: float, t: float,
                   policy: NumericPolicy = DEFAULT_POLICY) -> SeparationReport:
    """Verify the one-root-in-a-window argument for a sum of polynomials.

    Preconditions, checked per polynomial: exactly one root (with
    multiplicity) inside [s, t], and all values at s share a sign, as do all
    values at t.  The sum then has exactly one root in the window, located
    between the smallest and largest of the individual window roots.
    Every root test, the sum's and the bracket's included, is widened by
    interlace_rtol relative to the tested polynomial's largest root.
    """
    polys = [as_poly(f) for f in fs]
    if not polys:
        raise ValidationError("need at least one polynomial")
    if not (s < t):
        raise ValidationError("window must satisfy s < t")

    def in_window(p):
        found = roots(p, policy).expand()
        slack = policy.interlace_rtol * (
            1.0 + float(np.max(np.abs(found), initial=0.0)))
        return found[(found >= s - slack) & (found <= t + slack)], slack

    window_roots = []
    sign_s: list[int] = []
    sign_t: list[int] = []
    problems = []
    for i, p in enumerate(polys):
        inside, _ = in_window(p)
        if inside.size != 1:
            problems.append(f"polynomial {i}: {inside.size} roots in window, expected 1")
            continue
        window_roots.append(float(inside[0]))
        cmax = float(np.max(np.abs(p)))
        for point, store in ((s, sign_s), (t, sign_t)):
            val = float(npp.polyval(point, p))
            zero_scale = 1e-12 * cmax * max(1.0, abs(point)) ** degree(p)
            store.append(0 if abs(val) <= zero_scale else (1 if val > 0 else -1))
    if problems:
        raise ValidationError("; ".join(problems))
    for name, signs in (("s", sign_s), ("t", sign_t)):
        nz = {x for x in signs if x != 0}
        if len(nz) > 1:
            raise ValidationError(f"values at {name} do not share a sign: {signs}")
    total = polys[0]
    for p in polys[1:]:
        total = npp.polyadd(total, p)
    sum_inside, slack = in_window(total)
    lo, hi = float(min(window_roots)), float(max(window_roots))
    ok = sum_inside.size == 1 and lo - slack <= sum_inside[0] <= hi + slack
    return SeparationReport(
        window=(float(s), float(t)),
        individual_roots=tuple(window_roots),
        sum_root=float(sum_inside[0]) if sum_inside.size else float("nan"),
        bracket=(lo, hi),
        ok=bool(ok),
    )


def hko_test(f, g, policy: NumericPolicy = DEFAULT_POLICY) -> bool:
    """Sampled converse-pair test: every nonnegative combination a f + b g
    drawn (four fixed pairs and policy.combo_samples angles drawn with
    COMBO_SEED) is real-rooted.  Failure is definitive, success is
    evidence."""
    fp, gp = as_poly(f), as_poly(g)
    for name, p in (("f", fp), ("g", gp)):
        if degree(p) < 1:
            raise ValidationError(f"{name} must be non-constant")
        if not is_real_rooted(p, policy).real_rooted:
            raise ValidationError(f"{name} is not real-rooted")
    rng = np.random.default_rng(COMBO_SEED)
    pairs = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5)]
    theta = rng.uniform(0.0, np.pi / 2.0, size=policy.combo_samples)
    pairs.extend(zip(np.cos(theta), np.sin(theta)))
    for a, b in pairs:
        combo = as_poly(npp.polyadd(a * fp, b * gp))
        if degree(combo) < 1:
            continue
        if not is_real_rooted(combo, policy).real_rooted:
            return False
    return True
