"""Greedy descent through the interlacing family of an ensemble.

The conditional polynomials of a finite-support ensemble form an interlacing
family over the atom tree: every node's polynomial is the sum of its
children's, and siblings admit a common interlacing.  Consequently some child
always has its largest root at or below the parent's, and walking argmin of
the largest root from the root node reaches a leaf whose largest root is at
most that of the expected characteristic polynomial.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import realpoly
from ._parallel import ordered_map
from .mixedchar import (RandomVectorEnsemble, conditional_expected_poly,
                        expansion_work, outcome_sums)
from .policy import (DEFAULT_POLICY, DescentError, NumericPolicy,
                     ValidationError)

# Work model, in the units of NumericPolicy.work_cap (see mixedchar):
ROOTS_WORK = 70_000
"""A ``realpoly.roots`` or ``is_real_rooted`` call on degree D costs
ROOTS_WORK + ROOTS_WORK_PER_DEGREE * D: 0.09 ms at D=1, 0.17 ms at D=4,
0.25 ms at D=6, 0.36 ms at D=10, 0.54 ms at D=16 (simple roots; each
multiple root adds a clustering attempt or more)."""
ROOTS_WORK_PER_DEGREE = 30_000
EIGVALSH_WORK = 1_000
"""An eigenvalue decomposition of size D in a stack of 4096 costs
EIGVALSH_WORK + EIGVALSH_WORK_CUBE * D^3: 0.45 us at D=2, 7 us at D=8,
22 us at D=16."""
EIGVALSH_WORK_CUBE = 5


def roots_work(dim: int) -> float:
    return ROOTS_WORK + ROOTS_WORK_PER_DEGREE * dim


def descent_work(support_sizes: tuple[int, ...], dim: int) -> float:
    """Predicted work of ``descend`` on an ensemble with these support sizes
    in dimension dim: the root and every child along the walk cost one
    subset expansion and one root finding each, and the walk asks for no
    node twice."""
    nodes = 1 + sum(support_sizes)
    return nodes * (expansion_work(len(support_sizes), dim) + roots_work(dim))


def family_work(e: RandomVectorEnsemble,
                policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """Predicted work of ``verify_interlacing_family``: at every internal
    node, one subset expansion per child, and for s > 1 children the
    s + 1 + C(s, 2) + combo_samples root tests of the interlacing check."""
    expansion = expansion_work(len(e.vectors), e.dim)
    roots = roots_work(e.dim)
    total, nodes = expansion, 1.0
    for s in e.support_sizes:
        tests = s + 1 + s * (s - 1) // 2 + policy.combo_samples if s > 1 else 0
        total += nodes * (s * expansion + tests * roots)
        nodes *= s
    return total


@dataclass(frozen=True)
class DescentStep:
    level: int
    candidate_roots: tuple[float, ...]
    chosen_index: int
    chosen_root: float


@dataclass(frozen=True)
class DescentTrace:
    """Record of one argmin walk; chosen roots are monotone non-increasing
    up to the descent slack."""

    root_of_empty: float
    steps: tuple[DescentStep, ...]
    final_assignment: tuple[int, ...]

    @property
    def final_root(self) -> float:
        return self.steps[-1].chosen_root if self.steps else self.root_of_empty


def _profile_beats(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Lexicographic comparison of descending root profiles with slack.

    True when a is strictly smaller than b at the first position where they
    differ beyond tol.  Used only to refine ties on the largest root: with a
    flat top root (common when unpinned vectors dominate the spectrum) the
    deeper roots still reveal which choice spreads mass more evenly.
    """
    for x, y in zip(a, b):
        if x < y - tol:
            return True
        if x > y + tol:
            return False
    return False


@dataclass(frozen=True)
class NodeFamily:
    """The tree ``descend`` walks, one level at a time: the number of
    children at each level, ``root()``, which returns the roots of the root
    node's polynomial and the root's state, and ``children(state)``, which
    returns (roots, state) for each child of the node with that state, in
    child order.  ``descend`` passes the chosen child's state on and drops
    the others, so a state may carry whatever its children reuse; no node
    is asked for twice, so nothing is memoised."""

    support_sizes: tuple[int, ...]
    root: Callable[[], tuple[realpoly.RootList, object]]
    children: Callable[[object], list[tuple[realpoly.RootList, object]]]


def _ensemble_family(e: RandomVectorEnsemble,
                     policy: NumericPolicy) -> NodeFamily:
    """The atom tree of an ensemble: a node's state is its prefix, and its
    children are one ``conditional_expected_poly`` call each."""
    def node(prefix):
        return (realpoly.roots(conditional_expected_poly(e, prefix, policy),
                               policy), prefix)

    def children(prefix):
        # one thread; ordered_map stays the seam the benchmark's tracer wraps
        return ordered_map(lambda t: node(prefix + (t,)),
                           range(e.support_sizes[len(prefix)]))

    return NodeFamily(e.support_sizes, lambda: node(()), children)


def descend(e: RandomVectorEnsemble | NodeFamily,
            policy: NumericPolicy = DEFAULT_POLICY) -> DescentTrace:
    """Walk the atom tree of an ensemble (or any ``NodeFamily``) by
    smallest largest-root.

    Ties on the largest root are refined by comparing the full descending
    root profiles lexicographically, then by lowest index.  The refinement
    does not change the guarantee; it steers the walk toward balanced
    leaves when the greedy objective alone cannot distinguish children.

    At every level the chosen child's largest root must not exceed the
    parent's beyond the descent slack; if no child qualifies the walk aborts
    with a diagnostic rather than continue from a spurious node.  A walk
    over an ensemble runs on one thread and is refused up front when
    ``descent_work`` exceeds the work cap; a ``NodeFamily``'s maker admits
    its own work.
    """
    if isinstance(e, NodeFamily):
        family = e
    else:
        policy.admit(descent_work(e.support_sizes, e.dim),
                     f"descent over {len(e.vectors)} vectors")
        family = _ensemble_family(e, policy)
    top, state = family.root()
    if top.values.size == 0:
        raise ValidationError("constant polynomial has no largest root")
    parent_root = float(top.values[-1])
    root_of_empty = parent_root
    prefix: tuple[int, ...] = ()
    steps = []
    for level in range(len(family.support_sizes)):
        # the root node's roots show that every node has degree >= 1
        kids = family.children(state)
        child_sets = [roots for roots, _ in kids]
        child_roots = [float(r.values[-1]) for r in child_sets]
        best = min(child_roots)
        if best > parent_root + policy.descent_slack:
            raise DescentError(
                f"no admissible child at level {level}: smallest child root "
                f"{best:.12g} exceeds parent root {parent_root:.12g} "
                f"plus slack {policy.descent_slack:.1e} (prefix {prefix})"
            )
        tied = [i for i, r in enumerate(child_roots) if r <= best + policy.tie_tol]
        chosen = tied[0]
        if len(tied) > 1:
            tol = policy.tie_tol * (1.0 + abs(best))
            profiles = {i: child_sets[i].expand()[::-1] for i in tied}
            for i in tied[1:]:
                if _profile_beats(profiles[i], profiles[chosen], tol):
                    chosen = i
        steps.append(DescentStep(
            level=level,
            candidate_roots=tuple(child_roots),
            chosen_index=chosen,
            chosen_root=child_roots[chosen],
        ))
        # the siblings' states go before the next level is computed
        state = kids[chosen][1]
        del kids
        prefix = prefix + (chosen,)
        parent_root = child_roots[chosen]
    return DescentTrace(
        root_of_empty=root_of_empty,
        steps=tuple(steps),
        final_assignment=prefix,
    )


@dataclass(frozen=True)
class FamilyViolation:
    prefix: tuple[int, ...]
    kind: str
    detail: str


@dataclass(frozen=True)
class FamilyReport:
    nodes_checked: int
    violations: tuple[FamilyViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_interlacing_family(e: RandomVectorEnsemble,
                              policy: NumericPolicy = DEFAULT_POLICY) -> FamilyReport:
    """Check the two family facts at every internal node of the atom tree.

    For each prefix: the node polynomial equals the coefficientwise sum of
    its children (within tree_sum_rtol relative to the parent scale), and the
    children pass the sampled common-interlacing test, which draws
    policy.combo_samples combinations per node.  Exhaustive over the tree,
    so it is refused up front when ``family_work`` exceeds the work cap.
    """
    policy.admit(family_work(e, policy), "interlacing family verification")
    violations = []
    nodes = 0
    # one level of the tree at a time, in prefix order: the children of a
    # level are the parents of the next, so each node is computed once
    level = [((), conditional_expected_poly(e, (), policy))]
    for size in e.support_sizes:
        below = []
        for prefix, parent in level:
            nodes += 1
            children = [conditional_expected_poly(e, prefix + (t,), policy)
                        for t in range(size)]
            total = np.zeros_like(parent)
            for c in children:
                total += c
            scale = max(1.0, float(np.max(np.abs(parent))))
            dev = float(np.max(np.abs(total - parent)))
            if dev > policy.tree_sum_rtol * scale:
                violations.append(FamilyViolation(
                    prefix, "tree-sum",
                    f"children sum deviates by {dev:.3e} (scale {scale:.3g})",
                ))
            if len(children) > 1:
                if not realpoly.common_interlacing_test(children, policy):
                    violations.append(FamilyViolation(
                        prefix, "common-interlacing",
                        "sampled convex combination not real-rooted",
                    ))
            below.extend((prefix + (t,), c) for t, c in enumerate(children))
        level = below
    return FamilyReport(nodes_checked=nodes, violations=tuple(violations))


def exhaustive_minimum(e: RandomVectorEnsemble,
                       policy: NumericPolicy = DEFAULT_POLICY) -> tuple[tuple[int, ...], float]:
    """Smallest achievable largest eigenvalue over every full assignment.

    Ground truth for the descent's sandwich property; its work is capped.
    Ties resolve to the lexicographically first assignment.
    """
    def chunk_minimum(first, weights, sums):
        tops = np.linalg.eigvalsh(sums)[:, -1]
        local = int(np.argmin(tops))
        return float(tops[local]), first + local

    work = EIGVALSH_WORK + EIGVALSH_WORK_CUBE * e.dim ** 3
    best_val, best = min(outcome_sums(e, chunk_minimum, work,
                                      "exhaustive minimum", policy),
                         key=lambda found: found[0])
    return (tuple(int(t) for t in np.unravel_index(best, e.support_sizes)),
            best_val)
