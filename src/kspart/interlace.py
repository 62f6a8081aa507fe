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
from itertools import product

import numpy as np

from . import realpoly
from ._parallel import ordered_map
from .mixedchar import (RandomVectorEnsemble, conditional_expected_poly,
                        outcome_block)
from .policy import (
    CapacityError,
    DEFAULT_POLICY,
    DescentError,
    NumericPolicy,
)


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


def descend(e: RandomVectorEnsemble, policy: NumericPolicy = DEFAULT_POLICY,
            threads: int = 1) -> DescentTrace:
    """Walk the atom tree by smallest largest-root.

    Ties on the largest root are refined by comparing the full descending
    root profiles lexicographically, then by lowest index.  The refinement
    does not change the guarantee; it steers the walk toward balanced
    leaves when the greedy objective alone cannot distinguish children.

    At every level the chosen child's largest root must not exceed the
    parent's beyond the descent slack; if no child qualifies the walk aborts
    with a diagnostic rather than continue from a spurious node.
    """
    cache: dict = {}
    parent_poly = conditional_expected_poly(e, (), policy, cache)
    parent_root = realpoly.largest_root(parent_poly, policy=policy)
    root_of_empty = parent_root
    prefix: tuple[int, ...] = ()
    steps = []
    for level, v in enumerate(e.vectors):
        children = ordered_map(
            lambda t: conditional_expected_poly(e, prefix + (t,), policy, cache),
            range(v.support_size),
            threads=threads,
        )
        # the parent's largest_root checked that their common degree is >= 1
        child_sets = [realpoly.roots(c, policy=policy) for c in children]
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
                              tol: float | None = None,
                              samples: int = 16, seed: int = 0,
                              policy: NumericPolicy = DEFAULT_POLICY) -> FamilyReport:
    """Check the two family facts at every internal node of the atom tree.

    For each prefix: the node polynomial equals the coefficientwise sum of
    its children (within tree_sum_rtol relative to the parent scale), and the
    children pass the sampled common-interlacing test.  Exhaustive over the
    tree, so the leaf count is capped.
    """
    if e.leaf_count > policy.family_cap:
        raise CapacityError(
            f"{e.leaf_count} leaves exceed the family verification cap "
            f"{policy.family_cap}"
        )
    cache: dict = {}
    violations = []
    nodes = 0
    for k in range(len(e.vectors)):
        sizes = e.support_sizes[:k]
        for prefix in product(*(range(s) for s in sizes)):
            nodes += 1
            parent = conditional_expected_poly(e, prefix, policy, cache)
            children = [
                conditional_expected_poly(e, prefix + (t,), policy, cache)
                for t in range(e.vectors[k].support_size)
            ]
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
                if not realpoly.common_interlacing_test(
                        children, samples=samples, tol=tol, seed=seed,
                        policy=policy):
                    violations.append(FamilyViolation(
                        prefix, "common-interlacing",
                        "sampled convex combination not real-rooted",
                    ))
    return FamilyReport(nodes_checked=nodes, violations=tuple(violations))


def exhaustive_minimum(e: RandomVectorEnsemble,
                       policy: NumericPolicy = DEFAULT_POLICY) -> tuple[tuple[int, ...], float]:
    """Smallest achievable largest eigenvalue over every full assignment.

    Ground truth for the descent's sandwich property; capped enumeration.
    Ties resolve to the lexicographically first assignment.
    """
    leaves = e.leaf_count
    if leaves > policy.enumeration_cap:
        raise CapacityError(
            f"{leaves} assignments exceed the enumeration cap "
            f"{policy.enumeration_cap}"
        )
    d = e.dim
    outers = [
        np.einsum("aj,ak->ajk", v.values, v.values.conj())
        for v in e.vectors
    ]
    best_idx = 0
    best_val = np.inf
    for start in range(0, leaves, 8192):
        chunk = outcome_block(e.support_sizes, start, min(start + 8192, leaves))
        sums = np.zeros((chunk.shape[0], d, d), dtype=np.complex128)
        for i in range(len(e.vectors)):
            sums += outers[i][chunk[:, i]]
        tops = np.linalg.eigvalsh(sums)[:, -1] if d else np.zeros(chunk.shape[0])
        local = int(np.argmin(tops))
        if tops[local] < best_val:
            best_val = float(tops[local])
            best_idx = start + local
    best = outcome_block(e.support_sizes, best_idx, best_idx + 1)[0]
    return tuple(int(t) for t in best), best_val
