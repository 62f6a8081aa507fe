"""Barrier potentials above the roots: the worked bivariate example, the
shift lemmas, the trace identity at scaled all-ones points, and the
certificate builder with its (1 + sqrt(eps))^2 bound."""

from itertools import combinations

import numpy as np
import pytest

from kspart import (
    DEFAULT_POLICY,
    CapabilityError,
    CapacityError,
    DeterminantEvaluator,
    CallableEvaluator,
    PolynomialEvaluator,
    MixedInstance,
    PoleError,
    SingularMatrixError,
    ValidationError,
    above_roots_probe,
    barrier_value,
    bivariate_fixture,
    build_certificate,
    gen_gaussian,
    ks_bound,
    largest_root,
    lemma_above_check,
    lemma_barrier_check,
    mixed_char_poly,
    monotonicity_convexity_probe,
    poly_eval,
)

from kspart.cli import ensemble_instance_from_vectors

from test_mixedchar import no_kernels, random_rank1_isotropic


def reference_value_many(ev, points):
    """P_S by the multiaffine expansion into 2^|S| shifted determinants,
    P_S(y) = sum_{T subset S} (-1)^{|T|} 2^{|S|-|T|} P(y + 1_T)."""
    k = len(ev.applied)
    total = np.zeros(len(points))
    for r in range(k + 1):
        for t in combinations(ev.applied, r):
            shifted = np.array(points, dtype=np.float64)
            shifted[:, list(t)] += 1.0
            mats = np.tensordot(shifted, np.stack(ev.matrices), axes=(1, 0))
            total += (-1.0) ** r * 2.0 ** (k - r) * np.linalg.det(mats).real
    return total


def test_fixture_values_and_shrunk_companion():
    fx = bivariate_fixture()
    assert abs(fx.p.value((3.0, 3.0)) - 1144.0) < 1e-9
    assert abs(fx.q.value((3.0, 3.0)) - 623.0) < 1e-9
    # (1 - d_y) subtracts 17 + 29x + 8x^2 + 28y + 26xy + 3y^2
    want = np.array([
        [-13.0, -11.0, 11.0, 1.0],
        [-17.0, 3.0, 13.0, 0.0],
        [0.0, 8.0, 0.0, 0.0],
    ])
    assert np.allclose(fx.q.coeffs, want, atol=1e-12)


def test_fixture_barriers():
    fx = bivariate_fixture()
    z = (3.0, 3.0)
    assert abs(barrier_value(fx.p, z, 0) - 408.0 / 1144.0) < 1e-10
    assert abs(barrier_value(fx.p, z, 1) - 521.0 / 1144.0) < 1e-10


def test_barrier_fd_route_agrees():
    fx = bivariate_fixture()
    grid = fx.p.coeffs

    def raw(y):
        return float(np.polynomial.polynomial.polyval2d(y[0], y[1], grid))

    sampled = CallableEvaluator(raw, 2)
    for z in [(3.0, 3.0), (2.0, 4.0), (5.0, 1.5)]:
        for i in (0, 1):
            a = barrier_value(fx.p, z, i)
            b = barrier_value(sampled, z, i)
            assert abs(a - b) <= 1e-6 * (1.0 + abs(a))


def test_barrier_rejects_pole():
    p = PolynomialEvaluator(np.array([[0.0, 0.0], [0.0, 1.0]]))  # x*y
    with pytest.raises(PoleError):
        barrier_value(p, (0.0, 5.0), 0)


def test_determinant_evaluator_multiaffine_identity():
    # det(y1 e1e1* + y2 e2e2*) = y1 y2; both operators applied gives
    # y1 y2 - y1 - y2 + 1, which is (t-1)^2 on the diagonal
    mats = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    ev = DeterminantEvaluator(mats)
    q = ev.apply_one_minus_partial(0).apply_one_minus_partial(1)
    for t in (0.0, 0.5, 2.0, 3.5):
        assert abs(ev.value((t, t)) - t * t) < 1e-12
        assert abs(q.value((t, t)) - (t - 1.0) ** 2) < 1e-9


def test_determinant_evaluator_matches_mixed_char_poly():
    # applying every operator and restricting to the diagonal recovers mu
    rng = np.random.default_rng(19)
    for _ in range(8):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(d, 6))
        inst = random_rank1_isotropic(rng, d, m)
        ev = DeterminantEvaluator(inst.matrices)
        for i in range(m):
            ev = ev.apply_one_minus_partial(i)
        mu = mixed_char_poly(inst)
        for x in (1.5, 2.0, 4.0):
            got = ev.value(np.full(m, x))
            want = poly_eval(mu, x)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_collapsed_evaluator_matches_expansion():
    rng = np.random.default_rng(71)
    for k in range(9):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(max(d, k, 1), 11))
        inst = random_rank1_isotropic(rng, d, m)
        ev = DeterminantEvaluator(inst.matrices)
        for i in rng.permutation(m)[:k]:
            ev = ev.apply_one_minus_partial(i)
        assert len(ev.applied) == k
        points = rng.uniform(0.5, 3.0, size=(6, m))
        want = reference_value_many(ev, points)
        assert np.allclose(ev.value_many(points), want, rtol=1e-9, atol=0.0)


def test_operator_application_composes():
    rng = np.random.default_rng(37)
    inst = random_rank1_isotropic(rng, 2, 4)
    p = DeterminantEvaluator(inst.matrices)
    q = p.apply_one_minus_partial(2)
    y = np.array([1.5, 2.5, 2.0, 3.0])
    assert abs(q.value(y) - (p.value(y) - p.derivative(y, 2))) < 1e-9
    with pytest.raises(ValidationError):
        q.apply_one_minus_partial(2)


def test_rank_two_refusals():
    halves = [np.eye(2) / 2.0, np.eye(2) / 2.0]
    ev = DeterminantEvaluator(halves)
    assert not ev.all_rank_one
    assert abs(ev.value((2.0, 2.0)) - 4.0) < 1e-12  # det(2I) still fine
    with pytest.raises(CapabilityError):
        ev.apply_one_minus_partial(0)
    with pytest.raises(CapabilityError):
        build_certificate(MixedInstance(2, tuple(halves)))


def test_analytic_derivative_refuses_singular_point():
    mats = [np.diag([0.75, 0.25]), np.diag([0.25, 0.75])]
    ev = DeterminantEvaluator(mats)
    assert ev.ranks == (2, 2)
    y = (1.0, -3.0)  # sum y_i A_i = diag(0, -2)
    with pytest.raises(SingularMatrixError):
        ev.derivative(y, 0)


def test_determinant_derivative_matches_sampled_difference():
    # the unit-step difference (rank one, after 0-3 operators) and Jacobi's
    # formula (rank two) against the Richardson difference of the values
    rng = np.random.default_rng(53)
    inst = random_rank1_isotropic(rng, 2, 5)
    ev = DeterminantEvaluator(inst.matrices)
    rank_one = [ev]
    for i in (3, 0, 4):
        rank_one.append(rank_one[-1].apply_one_minus_partial(i))
    rank_two = DeterminantEvaluator([np.diag([0.75, 0.25]),
                                     np.diag([0.25, 0.75])])
    assert rank_two.ranks == (2, 2)
    for exact in rank_one + [rank_two]:
        sampled = CallableEvaluator(exact.value, exact.nvars)
        for _ in range(3):
            y = rng.uniform(1.5, 3.0, size=exact.nvars)
            for i in range(exact.nvars):
                want = sampled.derivative(y, i)
                got = exact.derivative(y, i)
                assert abs(got - want) <= 1e-7 * (1.0 + abs(want))


def test_barrier_difference_step_follows_the_policy():
    # Richardson's difference is exact up to degree 4, so a transcendental
    # function shows the step: Phi^0 of exp(y_0 + 2 y_1) is exactly 1
    sampled = CallableEvaluator(lambda y: np.exp(y[0] + 2.0 * y[1]), 2)
    z = (0.0, 0.5)
    coarse = DEFAULT_POLICY.merged({"fd_step_scale": 0.5})
    assert abs(barrier_value(sampled, z, 0) - 1.0) < 1e-8
    assert abs(barrier_value(sampled, z, 0, coarse) - 1.0) > 1e-6


def test_trace_identity_at_scaled_ones():
    # Phi^i at t * (1,...,1) is tr(A_i) / t for isotropic instances
    rng = np.random.default_rng(43)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(d, 7))
        inst = random_rank1_isotropic(rng, d, m)
        ev = DeterminantEvaluator(inst.matrices)
        t = float(rng.uniform(1.2, 4.0))
        z = np.full(m, t)
        for i in range(m):
            want = float(np.trace(inst.matrices[i]).real) / t
            assert abs(barrier_value(ev, z, i) - want) <= 1e-10 * (1.0 + want)


def test_above_roots_probe_exact_for_determinants():
    mats = [np.diag([0.5, 0.0]), np.diag([0.5, 0.0]),
            np.diag([0.0, 0.5]), np.diag([0.0, 0.5])]
    ev = DeterminantEvaluator(mats)
    up = above_roots_probe(ev, np.full(4, 2.0))
    assert up.above and up.exact
    down = above_roots_probe(ev, np.array([-1.0, 0.1, 0.1, 0.1]))
    assert not down.above
    assert down.witness is not None
    # after (1 - d_0)(1 - d_2) the test runs at z - 1_S and stays exact;
    # the second z is above the roots of P but not of P_S
    q = ev.apply_one_minus_partial(0).apply_one_minus_partial(2)
    up = above_roots_probe(q, np.full(4, 2.0))
    assert up.above and up.exact
    down = above_roots_probe(q, np.array([0.5, 0.1, 1.5, 0.1]))
    assert not down.above and down.exact
    assert abs(q.value(down.witness)) < 1e-12


def test_above_roots_probe_sampled_for_polynomials():
    fx = bivariate_fixture()
    ev = above_roots_probe(fx.p, (3.0, 3.0))
    assert ev.above and not ev.exact
    # p(x, 0) = 4(2x+1)(x+1) dips negative inside the probe's reach here
    assert not above_roots_probe(fx.p, (-1.5, 0.0)).above


def test_lemma_above_on_fixture():
    fx = bivariate_fixture()
    for i in (0, 1):
        rep = lemma_above_check(fx.p, (3.0, 3.0), i)
        assert rep.passed
        assert rep.phi < 1.0


def test_lemma_above_rejects_large_barrier():
    p = PolynomialEvaluator(np.array([[0.0, 0.0], [0.0, 1.0]]))  # x*y
    # Phi^x = 1/x = 2 at x = 1/2
    with pytest.raises(ValidationError):
        lemma_above_check(p, (0.5, 5.0), 0)


def test_lemma_barrier_on_fixture():
    fx = bivariate_fixture()
    z = (3.0, 3.0)
    for j in (0, 1):
        phi = barrier_value(fx.p, z, j)
        rep = lemma_barrier_check(fx.p, z, j, 1.0 / (1.0 - phi))
        assert rep.passed
        for row in rep.rows:
            assert row.after <= row.before + 1e-6
    # a delta below the feasibility threshold is rejected up front
    with pytest.raises(ValidationError):
        lemma_barrier_check(fx.p, z, 1, 1.2)


def test_monotone_convex_probe_on_fixture():
    fx = bivariate_fixture()
    deltas = np.linspace(0.05, 4.0, 20)
    for i in (0, 1):
        for j in (0, 1):
            rep = monotonicity_convexity_probe(fx.p, (3.0, 3.0), i, j, deltas)
            assert rep.passed


def test_ks_bound_values():
    assert abs(ks_bound(0.0) - 1.0) < 1e-15
    assert abs(ks_bound(0.25) - 2.25) < 1e-15
    assert abs(ks_bound(1.0) - 4.0) < 1e-15


def test_certificate_scalar_trivial():
    cert = build_certificate(MixedInstance(1, (np.array([[1.0]]),)))
    assert cert.valid
    assert abs(cert.epsilon - 1.0) < 1e-12
    assert abs(cert.bound - 4.0) < 1e-12
    # actual root of mu = x - 1 sits far below the bound
    top = largest_root(mixed_char_poly(MixedInstance(1, (np.array([[1.0]]),))))
    assert abs(top - 1.0) < 1e-9
    assert top <= cert.bound


def test_certificate_diagonal_quarter_traces():
    mats = []
    for i in range(2):
        e = np.zeros((2, 2))
        e[i, i] = 0.25
        mats.extend([e.copy()] * 4)
    cert = build_certificate(MixedInstance(2, tuple(mats)))
    assert cert.valid
    assert abs(cert.epsilon - 0.25) < 1e-12
    assert abs(cert.bound - 2.25) < 1e-12
    assert len(cert.steps) == 9
    # every recorded barrier stays at or below phi
    for step in cert.steps:
        assert step.max_barrier <= cert.phi + 1e-9
        assert step.above.above
    # the first step's barriers are exactly tr(A_i) / t
    t = cert.t
    assert np.allclose(cert.steps[0].barriers, np.full(8, 0.25 / t), atol=1e-10)


def test_certificate_random_instances_bound_the_root():
    rng = np.random.default_rng(67)
    for _ in range(6):
        d = int(rng.integers(1, 3))
        m = int(rng.integers(d + 1, 9))
        inst = random_rank1_isotropic(rng, d, m)
        cert = build_certificate(inst)
        assert cert.valid
        top = largest_root(mixed_char_poly(inst))
        assert top <= cert.bound + 1e-7


def test_certificate_twenty_vectors_in_dimension_five():
    inst = ensemble_instance_from_vectors(gen_gaussian(5, 5 / 20, seed=3))
    assert len(inst.matrices) == 20
    cert = build_certificate(inst)
    assert cert.valid
    assert len(cert.steps) == 21
    assert all(step.above.above and step.above.exact for step in cert.steps)
    assert largest_root(mixed_char_poly(inst)) <= cert.bound


def test_certificates_past_twenty_vectors():
    # 21 and 40 matrices; a cap of 20 operators used to refuse both
    for inst in (MixedInstance(1, tuple(np.array([[1.0 / 21]])
                                        for _ in range(21))),
                 ensemble_instance_from_vectors(
                     gen_gaussian(5, 5 / 40, seed=3))):
        cert = build_certificate(inst)
        assert cert.valid
        assert len(cert.steps) == len(inst.matrices) + 1
        assert all(step.above.above and step.above.exact
                   for step in cert.steps)


def test_certificate_rejections():
    # the certify workload's input: at half the largest trace each level's
    # largest barrier passes phi (level 0's, tr(A_i) / t, is 2 phi), and at
    # 1e-8 the value at t * 1, t^4 about 1e-16, is within pole_tol of a
    # pole, so the induction aborts before its first step
    inst = ensemble_instance_from_vectors(gen_gaussian(4, 4 / 14, seed=0))
    half = max(float(np.trace(a).real) for a in inst.matrices) / 2
    cert = build_certificate(inst, half)
    assert not cert.valid and cert.aborted_at is None
    assert len(cert.steps) == len(inst.matrices) + 1 == 15
    assert all(step.max_barrier > cert.phi + DEFAULT_POLICY.certificate_slack
               for step in cert.steps)
    assert abs(cert.steps[0].max_barrier - 2 * cert.phi) <= 1e-12
    cert = build_certificate(inst, 1e-8)
    assert not cert.valid and cert.aborted_at == 0 and cert.steps == ()


def test_certificate_refusals(monkeypatch):
    # 1001^2 barrier points, each a sum of 1000 matrices of size 20
    wide = MixedInstance(20, tuple(np.eye(20) / 1000 for _ in range(1000)))
    no_kernels(monkeypatch)
    with pytest.raises(CapacityError, match="predicted work"):
        build_certificate(wide)
    monkeypatch.undo()
    with pytest.raises(ValidationError):
        build_certificate(MixedInstance(1, (np.array([[0.5]]),)))  # not isotropic
