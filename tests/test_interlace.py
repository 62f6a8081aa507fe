"""Tree descent over conditional expected polynomials: the argmin walk, its
sandwich between the exhaustive optimum and the root polynomial, and the
family verifier."""

from itertools import product

import numpy as np
import pytest

from kspart import (
    CapacityError,
    DescentError,
    FiniteSupportVector,
    NumericPolicy,
    RandomVectorEnsemble,
    conditional_expected_poly,
    descend,
    exhaustive_minimum,
    gen_diagonal,
    gen_gaussian,
    largest_root,
    lift,
    verify_interlacing_family,
)
from kspart import interlace, realpoly

from test_mixedchar import bernoulli_diagonal, no_kernels, random_ensemble


def test_descend_singleton():
    e = RandomVectorEnsemble(1, (FiniteSupportVector.deterministic([1.0]),))
    trace = descend(e)
    assert trace.final_assignment == (0,)
    assert abs(trace.root_of_empty - 1.0) < 1e-9
    assert abs(trace.final_root - 1.0) < 1e-9


def test_descend_scalar_inclusion():
    # two fair {0, sqrt(1/2)} coordinates: the walk switches everything off
    e = bernoulli_diagonal(1, 0.5)
    trace = descend(e)
    assert abs(trace.root_of_empty - 0.5) < 1e-9
    assert trace.final_assignment == (0, 0)
    assert abs(trace.final_root - 0.0) < 1e-9
    chosen = [s.chosen_root for s in trace.steps]
    assert np.allclose(chosen, [0.25, 0.0], atol=1e-9)
    # level-0 candidates are the off/on conditionals with roots 1/4 and 3/4
    assert np.allclose(sorted(trace.steps[0].candidate_roots), [0.25, 0.75],
                       atol=1e-9)


def test_exhaustive_minimum_scalar_inclusion():
    e = bernoulli_diagonal(1, 0.5)
    assignment, value = exhaustive_minimum(e)
    # the all-off outcome is the zero matrix
    assert assignment == (0, 0)
    assert abs(value) < 1e-12


def test_descend_monotone_and_sandwiched():
    rng = np.random.default_rng(71)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        e = random_ensemble(rng, d, int(rng.integers(1, 5)), 3)
        trace = descend(e)
        best_assignment, best = exhaustive_minimum(e)
        top = largest_root(conditional_expected_poly(e, ()))
        assert best <= trace.final_root + 1e-8
        assert trace.final_root <= top + 1e-8
        last = trace.root_of_empty
        for step in trace.steps:
            assert step.chosen_root <= last + 1e-8
            last = step.chosen_root


def test_descend_final_root_invariant_under_atom_reversal():
    rng = np.random.default_rng(83)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        e = random_ensemble(rng, d, int(rng.integers(2, 5)), 3)
        flipped = RandomVectorEnsemble(d, tuple(
            FiniteSupportVector(v.probabilities[::-1], v.values[::-1])
            for v in e.vectors))
        a = descend(e).final_root
        b = descend(flipped).final_root
        assert abs(a - b) <= 1e-9 * (1.0 + abs(a))


def test_descend_abort_diagnostic():
    # an impossible slack makes every level fail its decrease requirement
    strict = NumericPolicy(descent_slack=-1.0)
    with pytest.raises(DescentError):
        descend(bernoulli_diagonal(1, 0.5), strict)


def test_balanced_three_way_split_of_diagonal():
    # nine lifted copies across three blocks: every direction spreads out,
    # so the final lifted root is 3 * (1/3)
    e = lift(gen_diagonal(3, 1.0 / 3.0), 3)
    trace = descend(e)
    assert abs(trace.final_root - 1.0) < 1e-7
    counts = np.bincount(trace.final_assignment, minlength=3)
    assert tuple(counts) == (3, 3, 3)


def test_verify_family_scalar_inclusion():
    rep = verify_interlacing_family(bernoulli_diagonal(1, 0.5))
    assert rep.ok
    assert rep.nodes_checked == 3  # the root plus the two level-one nodes


def test_verify_family_singleton_and_random():
    e = RandomVectorEnsemble(1, (FiniteSupportVector.deterministic([2.0]),))
    assert verify_interlacing_family(e).ok
    rng = np.random.default_rng(97)
    for _ in range(8):
        d = int(rng.integers(1, 4))
        e = random_ensemble(rng, d, int(rng.integers(1, 4)), 3)
        assert verify_interlacing_family(e).ok


def test_verify_family_reports_violations(monkeypatch):
    # a negative tree-sum tolerance fails every node's exact sum, and a
    # common-interlacing test that always fails flags every node
    e = lift(gen_diagonal(1, 0.5), 2)
    nodes = [(), (0,), (1,)]
    rep = verify_interlacing_family(e, NumericPolicy(tree_sum_rtol=-1.0))
    assert not rep.ok and rep.nodes_checked == 3
    assert [(v.kind, v.prefix) for v in rep.violations] == [
        ("tree-sum", p) for p in nodes]
    monkeypatch.setattr(realpoly, "common_interlacing_test",
                        lambda children, policy: False)
    rep = verify_interlacing_family(e)
    assert not rep.ok
    assert [(v.kind, v.prefix) for v in rep.violations] == [
        ("common-interlacing", p) for p in nodes]


def test_verify_family_computes_each_tree_node_once(monkeypatch):
    asked = []
    real = interlace.conditional_expected_poly

    def counting(e, prefix, policy):
        asked.append(tuple(prefix))
        return real(e, prefix, policy)

    monkeypatch.setattr(interlace, "conditional_expected_poly", counting)
    e = random_ensemble(np.random.default_rng(5), 2, 3, 3)
    assert verify_interlacing_family(e).ok
    sizes = e.support_sizes
    assert asked == [prefix for k in range(len(sizes) + 1)
                     for prefix in product(*map(range, sizes[:k]))]


def test_verify_family_draws_policy_combo_samples(monkeypatch):
    counted = []
    real = realpoly._root_clustering

    def counting(*args, **kwargs):
        counted.append(1)
        return real(*args, **kwargs)

    # every root test, of a child or of a combination, clusters once
    monkeypatch.setattr(realpoly, "_root_clustering", counting)
    e = bernoulli_diagonal(1, 0.5)
    calls = []
    for samples in (0, 5):
        counted.clear()
        assert verify_interlacing_family(
            e, policy=NumericPolicy(combo_samples=samples)).ok
        calls.append(len(counted))
    assert calls[1] - calls[0] == 5 * 3  # all three nodes have two children


def test_capacity_guards(monkeypatch):
    def coins(count):
        return RandomVectorEnsemble(1, tuple(
            FiniteSupportVector([0.5, 0.5], [[0.0], [0.1]])
            for _ in range(count)))

    # 2^17 leaves, past an enumeration cap of 2^16 that used to refuse it
    assert exhaustive_minimum(coins(17)) == ((0,) * 17, 0.0)
    walk = lift(gen_gaussian(5, 0.25, seed=0), 2)  # m=20 in dimension 10
    no_kernels(monkeypatch)
    with pytest.raises(CapacityError, match="predicted work"):
        exhaustive_minimum(coins(40))  # 2^40 leaves
    with pytest.raises(CapacityError, match="predicted work"):
        # 2^15 - 1 nodes of 68 root tests each
        verify_interlacing_family(coins(15))
    with pytest.raises(CapacityError, match="predicted work"):
        descend(walk)
