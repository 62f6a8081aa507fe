"""Univariate real-rooted polynomial layer: shrink operator, root
extraction with multiplicities, interlacing tests, and the one-root-window
separation argument."""

import math
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from kspart import (
    DEFAULT_POLICY,
    Graph,
    NumericPolicy,
    RootList,
    RootednessError,
    ValidationError,
    WeaverInstance,
    common_interlacing_test,
    from_roots,
    gaussian_expected_poly,
    gen_diagonal,
    gen_from_graph,
    gen_gaussian,
    hko_test,
    interlaces,
    is_real_rooted,
    laguerre_expected,
    largest_root,
    one_minus_c_derivative,
    partition,
    poly_eval,
    realpoly,
    roots,
    separate_check,
    shrunk_power_largest_root,
)
from kspart.realpoly import COMBO_SEED, _shrunk_power_coeffs, as_poly

from test_mixedchar import haar_unitary


def cubic(a, b, c, scale=0.03):
    return scale * from_roots([a, b, c])


# the three plotted cubics sharing the root at 7
FIGURE_CUBICS = [cubic(0.0, 3.0, 7.0), cubic(-3.0, 2.0, 7.0),
                 cubic(-2.0, 4.0, 7.0)]


def test_from_roots_and_eval():
    p = from_roots([1.0, 2.0])
    assert np.allclose(p, [2.0, -3.0, 1.0])
    assert abs(poly_eval(p, 0.0) - 2.0) < 1e-15
    assert abs(poly_eval(p, 1.0)) < 1e-15


def test_one_minus_c_derivative_examples():
    # x^n - delta*n*x^(n-1)
    p = np.zeros(4)
    p[3] = 1.0
    q = one_minus_c_derivative(p, 0.1)
    assert np.allclose(q, [0.0, 0.0, -0.3, 1.0])
    # p = x^2, c = 1 has roots {0, 2}
    q = one_minus_c_derivative([0.0, 0.0, 1.0], 1.0)
    assert np.allclose(q, [0.0, -2.0, 1.0])
    # second application: (1 - d*d/dx)(x^2 - 2dx) = x^2 - 4dx + 2d^2
    d = 0.25
    q = one_minus_c_derivative([0.0, -2.0 * d, 1.0], d)
    assert np.allclose(q, [2.0 * d * d, -4.0 * d, 1.0])
    # constants pass through
    assert np.allclose(one_minus_c_derivative([3.0], 5.0), [3.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_shift_or_root_is_refused(bad):
    for p in ([3.0], [0.0, 0.0, 1.0]):
        with pytest.raises(ValidationError, match="finite"):
            one_minus_c_derivative(p, bad)
    for r in ([bad], [1.0, bad, 2.0]):
        with pytest.raises(ValidationError, match="finite"):
            from_roots(r)


def test_laguerre_expected_examples():
    assert np.allclose(laguerre_expected(1, 1, 0.3), [-0.3, 1.0])
    assert np.allclose(laguerre_expected(2, 1, 0.3), [0.0, -0.6, 1.0])
    p = laguerre_expected(2, 2, 0.1)
    assert np.allclose(p, [0.02, -0.4, 1.0])
    want = np.array([0.2 - math.sqrt(0.02), 0.2 + math.sqrt(0.02)])
    assert np.allclose(roots(p).expand(), want, atol=1e-10)
    # zero applications leave x^n alone
    assert np.allclose(laguerre_expected(3, 0, 0.5), [0.0, 0.0, 0.0, 1.0])


def test_laguerre_expected_closed_form():
    # small cases agree with applying the operator one step at a time
    for n in range(7):
        for a in range(9):
            for delta in (0.0, 0.1, 0.3, 1.0, 2.5):
                want = np.zeros(n + 1)
                want[n] = 1.0
                for _ in range(a):
                    want = one_minus_c_derivative(want, delta)
                np.testing.assert_allclose(laguerre_expected(n, a, delta),
                                           want, rtol=1e-12, atol=1e-12)
    # 2e9 applications cost no more than two: (x - 1/2)^4, nearly
    p = gaussian_expected_poly(4, 1e-9)
    np.testing.assert_allclose(p, from_roots([0.5] * 4), rtol=1e-8)
    with pytest.raises(ValidationError):
        laguerre_expected(4, 10 ** 200, 1.0)
    with pytest.raises(ValidationError):
        laguerre_expected(2, 1, float("nan"))


def test_roots_multiplicities():
    rl = roots([0.25, -1.0, 1.0])  # (x - 1/2)^2
    assert rl.total == 2
    assert len(rl.values) == 1
    assert abs(rl.values[0] - 0.5) < 1e-9
    assert rl.multiplicities[0] == 2

    rl = roots(from_roots([1.0, 1.0, 1.0, 2.0, 2.0]))
    assert tuple(rl.multiplicities) == (3, 2)
    assert np.allclose(rl.values, [1.0, 2.0], atol=1e-6)
    assert np.allclose(rl.expand(), [1.0, 1.0, 1.0, 2.0, 2.0], atol=1e-6)


def test_roots_simple_and_errors():
    assert np.allclose(roots([-1.0, 0.0, 1.0]).expand(), [-1.0, 1.0])
    with pytest.raises(RootednessError):
        roots([1.0, 0.0, 1.0])  # x^2 + 1
    with pytest.raises(ValidationError):
        roots([0.0])


def test_largest_root_examples():
    assert abs(largest_root([-1.0, 1.0]) - 1.0) < 1e-12
    assert abs(largest_root([2.0, -3.0, 1.0]) - 2.0) < 1e-9
    # (x - 1/2)^n
    for n in (1, 2, 3, 4):
        p = from_roots([0.5] * n)
        assert abs(largest_root(p) - 0.5) < 1e-7


def test_is_real_rooted():
    ok = is_real_rooted(from_roots([1.0, 2.0, 3.0]))
    assert ok.real_rooted and ok.max_imag <= 1e-12
    bad = is_real_rooted([1.0, 0.0, 1.0])
    assert not bad.real_rooted
    assert abs(bad.max_imag - 1.0) < 1e-9
    # (x-1)^2 + (x+1)^2 is positive on the whole real line
    p = np.polynomial.polynomial.polyadd(
        np.convolve([-1.0, 1.0], [-1.0, 1.0]),
        np.convolve([1.0, 1.0], [1.0, 1.0]))
    assert not is_real_rooted(p).real_rooted


def test_interlaces_examples():
    assert interlaces([-1.0, 1.0], [0.0, -2.0, 1.0])        # x-1 vs x(x-2)
    assert not interlaces([-3.0, 1.0], [2.0, -3.0, 1.0])    # root 3 outside [1,2]
    with pytest.raises(ValidationError):
        interlaces([-1.0, 1.0], from_roots([1.0, 2.0, 3.0]))


def test_interlace_slack_follows_the_policy():
    g = [-(2.0 + 1e-6), 1.0]            # root 1e-6 above the top root of f
    f = from_roots([1.0, 2.0])
    assert not interlaces(g, f)
    assert interlaces(g, f, policy=NumericPolicy(interlace_rtol=1e-5))


def test_interlaces_rolle_property():
    rng = np.random.default_rng(5)
    for _ in range(40):
        deg = int(rng.integers(2, 8))
        p = from_roots(np.sort(rng.uniform(-3.0, 3.0, deg)))
        dp = np.polynomial.polynomial.polyder(p) / deg
        assert interlaces(dp, p)


def test_common_interlacing_figure_cubics():
    assert common_interlacing_test(FIGURE_CUBICS)


def test_common_interlacing_negative_pair():
    # average of x^2 and (x+1)^2 is x^2 + x + 1/2, discriminant -1
    fs = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 1.0])]
    assert not common_interlacing_test(fs)
    with pytest.raises(ValidationError):
        common_interlacing_test([np.array([0.0, 1.0]), np.array([0.0, 0.0, 1.0])])


def test_common_interlacing_duplicate():
    f = from_roots([0.0, 2.0, 5.0])
    assert common_interlacing_test([f, f])


def test_separate_check_figure_cubics():
    rep = separate_check(FIGURE_CUBICS, 1.0, 5.0)
    assert rep.ok
    assert np.allclose(sorted(rep.individual_roots), [2.0, 3.0, 4.0], atol=1e-7)
    assert rep.bracket[0] <= rep.sum_root <= rep.bracket[1]
    # quadratic formula on the sum 0.03*(x-7)*(3x^2-4x-14)
    want = (2.0 + math.sqrt(46.0)) / 3.0
    assert abs(rep.sum_root - want) < 1e-8
    assert 2.0 <= rep.sum_root <= 4.0


def test_separate_check_trivial_cases():
    rep = separate_check([from_roots([3.0, 10.0])], 2.0, 4.0)
    assert rep.ok and abs(rep.sum_root - 3.0) < 1e-9
    rep = separate_check([from_roots([1.5]), from_roots([1.5])], 0.5, 2.5)
    assert rep.ok and abs(rep.sum_root - 1.5) < 1e-9


def test_separate_check_root_on_window_edge():
    # the sum shares the root a with both terms, at the window's edge
    for a in np.linspace(0.1, 3.0, 60):
        for b in (5.0, 6.0, 7.5):
            rep = separate_check([from_roots([a, b]), from_roots([a, b + 1.3])],
                                 0.0, a)
            assert rep.ok, (a, b)
            assert abs(rep.sum_root - a) <= 1e-12 * b, (a, b)


def test_separate_check_rejects_bad_premises():
    # two roots inside the window
    with pytest.raises(ValidationError):
        separate_check([from_roots([2.0, 3.0])], 1.0, 5.0)
    # opposite signs at the left endpoint
    with pytest.raises(ValidationError):
        separate_check([from_roots([3.0, 10.0]), -from_roots([2.5, 10.0])],
                       1.0, 5.0)


def test_hko_examples():
    p = from_roots([0.0, 2.0, 6.0])
    dp = np.polynomial.polynomial.polyder(p)
    assert hko_test(dp, p)
    assert hko_test(p, p)
    # far-apart quadratics fail: x(x-1) + (x-10)(x-11) has no real roots
    assert not hko_test(from_roots([0.0, 1.0]), from_roots([10.0, 11.0]))


def test_shrink_operator_preserves_real_rootedness():
    rng = np.random.default_rng(42)
    for _ in range(200):
        deg = int(rng.integers(1, 9))
        p = from_roots(rng.uniform(-4.0, 4.0, deg))
        c = float(rng.uniform(-2.0, 2.0))
        assert is_real_rooted(one_minus_c_derivative(p, c)).real_rooted


def test_roots_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(60):
        deg = int(rng.integers(1, 13))
        while True:
            r = np.sort(rng.uniform(-5.0, 5.0, deg))
            if deg == 1 or np.min(np.diff(r)) >= 1e-3:
                break
        got = roots(from_roots(r)).expand()
        scale = max(1.0, float(np.max(np.abs(r))))
        assert np.max(np.abs(got - r)) <= 1e-8 * scale


def test_shrunk_power_matches_companion_route_at_small_degree():
    # Sturm bisection on the Laguerre Jacobi matrix against companion
    # eigenvalues where floats suffice
    for n, a, d in [(1, 1, 0.25), (2, 2, 0.1), (3, 2, 0.5), (6, 4, 0.2),
                    (10, 5, 0.1)]:
        exact = shrunk_power_largest_root(n, a, d)
        dense = largest_root(laguerre_expected(n, a, d))
        assert abs(exact - dense) <= 1e-9 * max(1.0, abs(dense))
    assert shrunk_power_largest_root(5, 0, 0.3) == 0.0


def roots_above(coeffs, x: Fraction) -> int:
    """Roots above the rational x of the polynomial with ascending integer
    coefficients coeffs, counted by Descartes' rule as the sign changes of
    p^(j)(x), j = 0..deg: exact when p is real-rooted."""
    n = len(coeffs) - 1
    # Q^n p(y / Q), Q the denominator of x, has integer coefficients and
    # the roots of p times Q; shift it to the numerator of x in place
    b = [c * x.denominator ** (n - i) for i, c in enumerate(coeffs)]
    for j in range(n):
        for i in range(n - 1, j - 1, -1):
            b[i] += x.numerator * b[i + 1]
    signs = [c > 0 for c in b if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def test_roots_above_counts_exactly():
    cubic_123 = [-6, 11, -6, 1]  # (x - 1)(x - 2)(x - 3)
    for x, above in [(0, 3), (1, 2), (Fraction(5, 2), 1), (3, 0), (7, 0)]:
        assert roots_above(cubic_123, Fraction(x)) == above


def test_shrunk_power_bracketed_exactly():
    # the top root of (1 - d/dy)^a y^n is bracketed within 1e-14 relative
    # by exact root counts on its integer coefficients
    rel = Fraction(1, 10 ** 14)
    for n in (1, 2, 3, 5, 8, 13, 21, 34):
        for a in (1, 2, 3, 5, 8, 13, 21, 34, 55, 100, 10 ** 3, 10 ** 6,
                  10 ** 12, 10 ** 100):
            coeffs = _shrunk_power_coeffs(n, a)
            top = Fraction(shrunk_power_largest_root(n, a, 1.0))
            assert roots_above(coeffs, top * (1 - rel)) >= 1, (n, a)
            assert roots_above(coeffs, top * (1 + rel)) == 0, (n, a)


def test_shrunk_power_closed_form_equals_repeated_operator():
    # the closed form gives the integers that applying (1 - d/dy) a times
    # to y^n gives, exactly
    for n, a in [(5, 3), (7, 40), (20, 1000), (1, 0), (3, 1), (2, 9)]:
        coeffs = [0] * n + [1]
        for _ in range(a):
            coeffs = [coeffs[k] - (k + 1) * coeffs[k + 1] if k < n
                      else coeffs[k] for k in range(n + 1)]
        assert _shrunk_power_coeffs(n, a) == coeffs


def test_shrunk_power_half_sample_edge():
    # 250 shrink applications to x^50 with per-coordinate constant 0.1/50;
    # frozen against a Jacobi-recurrence eigenvalue oracle
    top = shrunk_power_largest_root(50, 250, 0.1 / 50.0)
    assert abs(top - 0.9894063474887) < 1e-9
    lo = 0.5 * (1.0 - math.sqrt(0.2)) ** 2 - 0.05
    hi = 0.5 * (1.0 + math.sqrt(0.2)) ** 2 + 0.05
    assert lo <= top <= hi


def test_gaussian_expected_poly_small_case():
    # dim 2, delta 1/2: two applications of (1 - 0.25 d/dx) to x^2
    p = gaussian_expected_poly(2, 0.5)
    assert np.allclose(p, [0.125, -1.0, 1.0])
    with pytest.raises(ValidationError):
        gaussian_expected_poly(0, 0.5)


# -- reference oracles: root clustering by numpy.polynomial, one call each --

def reference_complex_roots(q):
    raw = npp.polyroots(q)
    dq = npp.polyder(q)
    vals = npp.polyval(raw, q)
    slopes = npp.polyval(raw, dq)
    safe = np.abs(slopes) > 1e-300
    polished = raw.copy()
    polished[safe] = raw[safe] - vals[safe] / slopes[safe]
    worse = np.abs(npp.polyval(polished, q)) > np.abs(vals)
    polished[worse] = raw[worse]
    return polished


def test_cluster_mean_is_np_mean():
    rng = np.random.default_rng(12)
    for n in range(1, 13):
        lists = [(rng.standard_normal(n) + 1j * rng.standard_normal(n))
                 * 10.0 ** rng.integers(-8, 9, n) for _ in range(300)]
        lists.append(rng.standard_normal(n) + 0j)  # real only
        lists.append(np.full(n, complex(-0.0, -0.0)))
        lists.append(np.full(n, complex(0.0, -0.0)))
        signed = rng.standard_normal(n) + 0j
        signed.imag[::2] = -0.0
        lists.append(signed)
        for pts in lists:
            got = realpoly._mean(pts.tolist())
            want = complex(np.mean(pts))
            assert np.array_equal(np.array([got]).view(np.int64),
                                  np.array([want]).view(np.int64)), pts


def reference_greedy_clusters(croots, radius):
    order = np.lexsort((croots.imag, croots.real))
    pts = croots[order]
    clusters = [[pts[0]]]
    for z in pts[1:]:
        c = np.mean(clusters[-1])
        if abs(z - c) <= radius:
            clusters[-1].append(z)
        else:
            clusters.append([z])
    return [np.asarray(c) for c in clusters]


def reference_polish_multiple(q, x, k, leash):
    dk = q
    for _ in range(k - 1):
        dk = npp.polyder(dk)
    dk1 = npp.polyder(dk)
    start = x
    for _ in range(3):
        den = npp.polyval(x, dk1)
        if abs(den) < 1e-300:
            break
        xn = x - npp.polyval(x, dk) / den
        if abs(xn - start) > leash + 1e-30:
            break
        if abs(npp.polyval(xn, dk)) < abs(npp.polyval(x, dk)):
            x = float(xn)
        else:
            break
    return x


def reference_try_real_clustering(q, croots, radius, policy):
    absq = np.abs(q)
    values, mults = [], []
    for cluster in reference_greedy_clusters(croots, radius):
        m = complex(np.mean(cluster))
        if abs(m.imag) > policy.real_root_imag_rtol * (1.0 + abs(m.real)):
            return None
        x = reference_polish_multiple(q, m.real, len(cluster), 2.0 * radius)
        noise = policy.root_residual_rtol * float(
            npp.polyval(max(1.0, abs(x)), absq))
        if abs(npp.polyval(x, q)) > max(noise, 1e-250):
            return None
        values.append(x)
        mults.append(len(cluster))
    return values, mults


def reference_root_clustering(q, policy):
    croots = reference_complex_roots(q)
    scale = 1.0 + float(np.max(np.abs(croots)))
    max_imag = float(np.max(np.abs(croots.imag)))
    radius = max(policy.root_merge_rtol, 1e-12) * scale
    while radius <= 0.101 * scale:
        got = reference_try_real_clustering(q, croots, radius, policy)
        if got is not None:
            return got, max_imag
        radius *= 3.1622776601683795
    return None, max_imag


def reference_roots(p, policy=DEFAULT_POLICY):
    q = as_poly(p)
    if q.size == 1:
        return RootList(np.array([]), np.array([], dtype=int))
    got, max_imag = reference_root_clustering(q, policy)
    if got is None:
        raise RootednessError(
            f"polynomial is not real-rooted: max imaginary part {max_imag:.3e}",
            max_imag)
    values, mults = got
    order = np.argsort(values)
    return RootList(np.asarray(values)[order],
                    np.asarray(mults, dtype=int)[order])


def reference_common_interlacing_test(fs, policy=DEFAULT_POLICY):
    stack = np.array([as_poly(f) for f in fs])
    combos = [np.mean(stack, axis=0)]
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            combos.append((stack[i] + stack[j]) / 2.0)
    rng = np.random.default_rng(COMBO_SEED)
    for _ in range(policy.combo_samples):
        combos.append(rng.dirichlet(np.ones(len(fs))) @ stack)
    return all(reference_root_clustering(as_poly(c), policy)[0] is not None
               for c in combos)


def descent_node_polys(monkeypatch):
    """Every polynomial whose roots three descents take, through their
    batched seam ``realpoly.top_roots``: two-part gauss(3, 1/4), the
    Haar-rotated diag(3, 1/3) with r = 3 and the two-part K5."""
    seen = []
    real = realpoly.top_roots

    def record(ps, policy=DEFAULT_POLICY):
        seen.extend(np.array(p, dtype=np.float64) for p in ps)
        return real(ps, policy)

    monkeypatch.setattr(realpoly, "top_roots", record)
    diag = gen_diagonal(3, 1.0 / 3.0)
    haar = WeaverInstance(
        3, diag.vectors @ haar_unitary(3, np.random.default_rng(5)).T,
        diag.delta)
    k5 = gen_from_graph(Graph(5, tuple(
        (a, b, 1.0) for a in range(5) for b in range(a + 1, 5))))[0]
    for inst, r in ((gen_gaussian(3, 0.25, seed=0), 2), (haar, 3), (k5, 2)):
        partition(inst, r)
    monkeypatch.undo()
    return seen


def assert_same_roots(p):
    try:
        want = reference_roots(p)
    except RootednessError as err:
        with pytest.raises(RootednessError) as got:
            roots(p)
        assert str(got.value) == str(err)
        assert got.value.max_imag == err.max_imag
        return
    got = roots(p)
    assert np.array_equal(got.values.view(np.int64),
                          want.values.view(np.int64)), p
    assert np.array_equal(got.multiplicities, want.multiplicities), p


def test_roots_bit_identical_to_reference_on_node_polys(monkeypatch):
    polys = descent_node_polys(monkeypatch)
    assert len(polys) > 60
    for p in polys:
        assert_same_roots(p)


SYNTHETIC_POLYS = [from_roots([1.0, 1.0, 2.0]),
                   from_roots([0.5, 0.5, 0.5, 2.0]),
                   from_roots([0.3, 0.3, 0.3, 0.3, -1.0]),
                   3.0 * from_roots([-2.0, -2.0, 0.7, 0.7, 0.7, 1.5]),
                   [0.0, 2.0],                   # -0.0 from the companion
                   from_roots([0.0, 0.0, 1.0]),  # a double root at zero
                   laguerre_expected(4, 2, 0.1),  # a double root at zero
                   [-2.0, 1.0, -2.0, 1.0],       # (x - 2)(x^2 + 1)
                   [1.0, 0.0, 1.0]]              # x^2 + 1


def test_roots_bit_identical_to_reference_on_synthetic_polys():
    for p in SYNTHETIC_POLYS:
        assert_same_roots(p)
    with pytest.raises(RootednessError):
        roots(SYNTHETIC_POLYS[-2])


def assert_same_top_roots(ps, policy=DEFAULT_POLICY):
    """top_roots(ps) has the bits of root_lists(ps): each value is the
    largest root and each profile() the root list; or it raises the same
    RootednessError."""
    try:
        want = realpoly.root_lists(ps, policy)
    except RootednessError as err:
        with pytest.raises(RootednessError) as got:
            realpoly.top_roots(ps, policy)
        assert str(got.value) == str(err)
        assert got.value.max_imag == err.max_imag
        return
    got = realpoly.top_roots(ps, policy)
    assert len(got) == len(want)
    for top, found in zip(got, want):
        if found.values.size == 0:
            assert top.value is None
        else:
            assert np.array([top.value]).view(np.int64)[0] == \
                found.values[-1:].view(np.int64)[0], ps
        profile = top.profile()
        assert np.array_equal(profile.values.view(np.int64),
                              found.values.view(np.int64)), ps
        assert np.array_equal(profile.multiplicities, found.multiplicities)
        assert top.profile() is profile  # built once


def test_top_roots_bit_identical_to_root_lists(monkeypatch):
    polys = descent_node_polys(monkeypatch)
    assert len(polys) > 60
    for p in polys + SYNTHETIC_POLYS + [[3.0]]:
        assert_same_top_roots([p])
    sixes = [p for p in polys if p.size == 7]
    assert len(sixes) > 20
    assert_same_top_roots(sixes)  # one companion call
    # most node roots are simple and certified; the rest fall back
    fast = sum(realpoly._certified_top(p.tolist(), raw, DEFAULT_POLICY)
               is not None for p, raw in zip(
                   polys, realpoly._companion_roots([as_poly(p)
                                                    for p in polys])))
    assert 0 < fast < len(polys)


def test_top_roots_fall_back_on_close_or_complex_roots():
    simple = from_roots([-1.0, 0.25, 0.5, 1.5])
    close = from_roots([-1.0, 0.25, 0.5, 1.5, 1.5 + 1e-7])
    # (x + 1)(x - 1/4)(x - 3/2)((x - 1.4)^2 + 1e-4)
    paired = npp.polymul(from_roots([-1.0, 0.25, 1.5]), [1.9601, -2.8, 1.0])

    def certified(p):
        q = as_poly(p)
        raw = realpoly._companion_roots([q])[0]
        return realpoly._certified_top(q.tolist(), raw, DEFAULT_POLICY)

    assert certified(simple) is not None
    assert certified(close) is None
    assert certified(paired) is None
    for p in (simple, close, paired):
        assert_same_top_roots([p])
    with pytest.raises(RootednessError):
        realpoly.top_roots([paired])


def test_top_roots_raise_where_root_lists_do():
    for p in ([1.0, 0.0, 1.0], [-2.0, 1.0, -2.0, 1.0]):
        with pytest.raises(RootednessError):
            realpoly.root_lists([p])
        assert_same_top_roots([p])
        # a polynomial after a certified one raises all the same
        assert_same_top_roots([from_roots([0.5, 2.0, 3.0]), p])
    # a merge radius above the clustering's last leaves no radius to try
    coarse = DEFAULT_POLICY.merged({"root_merge_rtol": 0.2})
    with pytest.raises(RootednessError):
        realpoly.root_lists([from_roots([-1.0, 1.0])], coarse)
    assert_same_top_roots([from_roots([-1.0, 1.0])], coarse)


def test_common_interlacing_matches_reference(monkeypatch):
    polys = descent_node_polys(monkeypatch)
    rng = np.random.default_rng(11)
    cases = [FIGURE_CUBICS,
             [np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 1.0])]]
    for _ in range(6):
        a, b = rng.choice(len(polys), size=2, replace=False)
        if polys[a].size == polys[b].size:
            cases.append([polys[a], polys[b]])
    for _ in range(6):
        deg, k = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        cases.append([from_roots(rng.uniform(-2.0, 2.0, deg))
                      for _ in range(k)])
    outcomes = []
    for fs in cases:
        outcomes.append(common_interlacing_test(fs))
        assert outcomes[-1] == reference_common_interlacing_test(fs)
    assert True in outcomes and False in outcomes


def test_batched_companion_roots_equal_polyroots():
    rng = np.random.default_rng(3)
    for deg in (1, 2, 3, 6):
        qs = [as_poly(from_roots(rng.uniform(-2.0, 2.0, deg)))
              for _ in range(5)]
        qs.append(as_poly(np.concatenate((rng.uniform(-1.0, 1.0, deg),
                                          [1.0]))))
        for q, got in zip(qs, realpoly._companion_roots(qs)):
            want = npp.polyroots(q)
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
