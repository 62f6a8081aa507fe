"""Benchmark workloads: seeded inputs, the CLI calls that solve them, and the
oracle checks applied to the reports.

Each workload is chosen so that one module likely to be optimised carries
most of the solve time there and almost none on another workload:

- partition-generic: the subset sum inside ``conditional_expected_poly``
  (mixedchar) with ``linalg.char_poly_stack`` second; simple roots, so
  ``realpoly`` is cheap.
- partition-degenerate: repeated vectors give multiple roots and tied
  children, so ``realpoly`` clustering and the tie-profile refinement weigh
  several times more than on partition-generic.
- certify: the barrier certificate; ``barrier`` takes nearly all the time and
  memory grows as 2^m.
- mixed-oracle: the brute-force oracle feeds ``linalg.char_poly_stack``
  full-rank outcome sums; the only workload where ``--threads`` pays.

A workload turns a seed into cases.  A case is one input file, the CLI
arguments that solve it, and a check that reads the report and returns the
figure the program promises to keep under a bound (``bound_ratio``):

- partition: max part norm / (1/sqrt(r) + sqrt(delta))^2;
- certify: mean over certificate levels of the largest barrier / phi, the
  share of the barrier budget the induction uses;
- mixed: largest root / (1 + sqrt(eps))^2, the Marcus-Spielman-Srivastava
  bound for an isotropic ensemble with E||v_i||^2 <= eps.

The program only ever sees the generated files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from kspart import cli
from kspart.interlace import exhaustive_minimum
from kspart.linalg import isotropic_normalizer
from kspart.mixedchar import (FiniteSupportVector, RandomVectorEnsemble,
                              mixed_char_poly)
from kspart.policy import DEFAULT_POLICY
from kspart.realpoly import largest_root
from kspart.serialize import (ensemble_to_dict, instance_from_dict,
                              instance_to_dict, read_json, write_json)
from kspart.weaver import WeaverInstance, gen_diagonal, gen_gaussian, lift

POLICY = DEFAULT_POLICY
MIXED_THREADS = 2


class CheckFailed(Exception):
    """A report that the oracle rejects."""


@dataclass
class Case:
    """One input and the CLI call that solves it.

    ``check(doc)`` raises CheckFailed on a wrong report and otherwise
    returns the bound ratio.  ``predictors`` are cost figures computed from
    the input sizes alone.
    """

    name: str
    argv: list[str]
    check: Callable[[dict], float]
    predictors: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    recipe: dict
    make: Callable[[int, Path, bool], list[Case]]
    threads: int = 1

    def cases(self, seed: int, workdir: Path, tiny: bool = False) -> list[Case]:
        """Write this workload's inputs for ``seed`` into ``workdir``.

        ``tiny`` gives the same workload on inputs small enough to solve in
        milliseconds, for warm-up and the benchmark's self-test.
        """
        return self.make(seed, workdir, tiny)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def alt_terms(m: int, dim: int) -> int:
    """Inner-loop terms of one subset expansion: sum_{k<=min(m,D)} C(m,k) 2^k."""
    return sum(math.comb(m, k) * 2 ** k for k in range(min(m, dim) + 1))


def expansion_polys(m: int, dim: int) -> int:
    """Characteristic polynomials in one subset expansion."""
    return sum(math.comb(m, k) for k in range(min(m, dim) + 1))


def tie_levels(trace: dict, tie_tol: float = POLICY.tie_tol) -> int:
    """Descent levels where more than one child ties for the smallest root."""
    ties = 0
    for step in trace["steps"]:
        roots = step["candidate_roots"]
        best = min(roots)
        ties += sum(r <= best + tie_tol for r in roots) > 1
    return ties


# -- partition -------------------------------------------------------------

def _partition_case(name: str, path: Path, inst: WeaverInstance,
                    r: int) -> Case:
    m, lifted = inst.count, r * inst.dim
    floor: list[float] = []

    def check(doc: dict) -> float:
        pay = doc["payload"]
        _require(pay["within_bound"] is True, "within_bound is false")
        labels = sorted(i for part in pay["parts"] for i in part)
        _require(labels == list(range(m)),
                 "parts do not cover 0..m-1 exactly once")
        _require(len(pay["parts"]) == r, f"expected {r} parts")
        trace = pay["trace"]
        slack = POLICY.descent_slack
        prev = trace["root_of_empty"]
        for step in trace["steps"]:
            _require(step["chosen_root"] <= prev + slack,
                     f"descent rose at level {step['level']}")
            prev = step["chosen_root"]
        _require(len(trace["steps"]) == m, "trace does not reach a leaf")
        if not floor:
            floor.append(exhaustive_minimum(lift(inst, r, POLICY), POLICY)[1])
        final = trace["steps"][-1]["chosen_root"]
        _require(floor[0] <= final + slack,
                 f"final root {final} below the exhaustive minimum {floor[0]}")
        _require(final <= trace["root_of_empty"] + slack * (m + 1),
                 "final root above the root of the empty prefix")
        return max(pay["part_norms"]) / pay["bound_general"]

    nodes = 1 + m * r
    return Case(
        name=name,
        argv=["partition", "--in", str(path), "--r", str(r), "--trace",
              "--threads", "1"],
        check=check,
        predictors={
            "m": m, "d": inst.dim, "r": r, "lifted_D": lifted,
            "nodes": nodes,
            "alt_terms_per_expansion": alt_terms(m, lifted),
            "polys_per_solve": nodes * expansion_polys(m, lifted),
            "leaves": r ** m,
        },
    )


def _write_instance(inst: WeaverInstance, path: Path) -> Path:
    write_json(instance_to_dict(inst), str(path))
    return path


def _generic(seed: int, workdir: Path, tiny: bool) -> list[Case]:
    n, delta = (2, 0.5) if tiny else (3, 0.25)
    cases = []
    for i in range(3):
        inst = gen_gaussian(n, delta, seed=8 * seed + i, policy=POLICY)
        path = _write_instance(inst, workdir / f"gauss{i}.json")
        cases.append(_partition_case(f"gauss{i}", path, inst, 2))
    return cases


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _degenerate(seed: int, workdir: Path, tiny: bool) -> list[Case]:
    rng = np.random.default_rng(seed)
    n, copies, vertices = (2, 2, 3) if tiny else (3, 3, 5)
    diag = gen_diagonal(n, 1.0 / copies)
    rotated = WeaverInstance(n, diag.vectors @ haar_unitary(n, rng).T,
                             diag.delta)
    diag_path = _write_instance(rotated, workdir / "diag.json")
    edges = [(a, b) for a in range(vertices) for b in range(a + 1, vertices)]
    edge_path = workdir / "graph.edges"
    edge_path.write_text("".join(f"{edges[j][0]} {edges[j][1]}\n"
                                 for j in rng.permutation(len(edges))))
    graph_path = workdir / "graph.json"
    code = cli.main(["gen", "graph", "--edges", str(edge_path),
                     "--out", str(graph_path)])
    if code != 0:
        raise RuntimeError(f"kspart gen graph exited {code}")
    graph_inst, _ = instance_from_dict(read_json(str(graph_path)))
    return [_partition_case("diag", diag_path, rotated, copies),
            _graph_case("graph", graph_path, graph_inst)]


def _graph_case(name: str, path: Path, inst: WeaverInstance) -> Case:
    case = _partition_case(name, path, inst, 2)
    inner = case.check

    def check(doc: dict) -> float:
        rows = doc["payload"].get("spectral_check", {}).get("parts", [])
        _require(len(rows) == 2, "spectral_check missing for the graph case")
        return inner(doc)

    case.check = check
    return case


# -- certify ---------------------------------------------------------------

def _certify(seed: int, workdir: Path, tiny: bool) -> list[Case]:
    n, m = (2, 4) if tiny else (4, 14)
    inst = gen_gaussian(n, n / m, seed=seed, policy=POLICY)
    path = _write_instance(inst, workdir / "certify.json")
    eps = float(np.max(inst.norms_squared()))
    mi = cli.ensemble_instance_from_vectors(inst)
    top: list[float] = []

    def check(doc: dict) -> float:
        pay = doc["payload"]
        _require(pay["valid"] is True, "certificate is not valid")
        _require(math.isclose(pay["epsilon"], eps, rel_tol=1e-12),
                 f"epsilon {pay['epsilon']} is not the largest trace {eps}")
        bound = (1.0 + math.sqrt(eps)) ** 2
        _require(math.isclose(pay["bound"], bound, rel_tol=1e-12),
                 f"bound {pay['bound']} is not (1 + sqrt(eps))^2 = {bound}")
        if not top:
            top.append(largest_root(mixed_char_poly(mi, POLICY), policy=POLICY))
        _require(top[0] <= pay["bound"] + POLICY.certificate_slack,
                 f"mixed polynomial root {top[0]} exceeds the bound")
        _require(len(pay["steps"]) == inst.count + 1, "certificate is short")
        phi = pay["phi"]
        return sum(s["max_barrier"] for s in pay["steps"]) / (
            phi * len(pay["steps"]))

    return [Case(
        name="certify", argv=["certify", "--in", str(path), "--seed", "0"],
        check=check,
        predictors={
            "m": inst.count, "d": inst.dim,
            "dets_per_point_last_level": 2 ** inst.count,
        },
    )]


# -- mixed -----------------------------------------------------------------

def random_ensemble(d: int, count: int, atoms: int,
                    rng: np.random.Generator) -> RandomVectorEnsemble:
    """Dirichlet atom weights and complex Gaussian atoms, moved into
    isotropic position so that the MSS bound (1 + sqrt(eps))^2 applies."""
    probs = rng.dirichlet(np.ones(atoms), size=count)
    vals = (rng.standard_normal((count, atoms, d))
            + 1j * rng.standard_normal((count, atoms, d))) / math.sqrt(2.0)
    cov = np.einsum("na,naj,nak->jk", probs, vals, vals.conj())
    vals = vals @ isotropic_normalizer(cov, POLICY).T
    return RandomVectorEnsemble(d, tuple(
        FiniteSupportVector(p, v) for p, v in zip(probs, vals)))


def _mixed(seed: int, workdir: Path, tiny: bool) -> list[Case]:
    d, count, atoms = (2, 3, 4) if tiny else (4, 10, 4)
    ens = random_ensemble(d, count, atoms, np.random.default_rng(seed))
    path = workdir / "ensemble.json"
    write_json(ensemble_to_dict(ens), str(path))
    eps = max(float(np.sum(v.probabilities
                           * np.sum(np.abs(v.values) ** 2, axis=1)))
              for v in ens.vectors)
    mss = (1.0 + math.sqrt(eps)) ** 2

    def check(doc: dict) -> float:
        pay = doc["payload"]
        coeffs = np.asarray(pay["coefficients"])
        _require(coeffs.shape == (d + 1,), "wrong polynomial degree")
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        dev = pay["oracle"]["max_abs_deviation"]
        _require(dev <= POLICY.tree_sum_rtol * scale,
                 f"oracle deviation {dev:.3e} exceeds tree_sum_rtol * {scale}")
        _require(pay["largest_root"] <= mss + POLICY.certificate_slack,
                 f"largest root {pay['largest_root']} exceeds the MSS "
                 f"bound {mss}")
        return pay["largest_root"] / mss

    return [Case(
        name="ensemble",
        argv=["mixed", "--in", str(path), "--oracle", "--threads",
              str(MIXED_THREADS)],
        check=check,
        predictors={
            "d": d, "vectors": count, "atoms": atoms,
            "outcomes": ens.leaf_count,
            "alt_terms_per_expansion": alt_terms(count, d),
            "polys_per_solve": expansion_polys(count, d) + ens.leaf_count,
        },
    )]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="partition-generic",
        why="Roadmap hot path: the pure-Python subset sum in "
            "conditional_expected_poly dominates, char_poly_stack is second "
            "and realpoly is cheap because roots are simple.",
        recipe={"command": "partition --r 2 --trace --threads 1",
                "generator": "gen_gaussian(3, 0.25, 8 * seed + i), i = 0..2",
                "m": 12, "d": 3, "r": 2, "lifted_D": 6, "threads": 1,
                "seed": "three instances, gen_gaussian seeds 8 * seed + i"},
        make=_generic,
    ),
    Workload(
        name="partition-degenerate",
        why="Repeated vectors give multiple roots and tied children, so "
            "realpoly clustering and tie-profile refinement weigh several "
            "times more than on partition-generic.",
        recipe={"command": "partition --trace --threads 1",
                "cases": [
                    {"generator": "diag(3, 1/3) rotated by a seeded Haar "
                                  "unitary", "m": 9, "d": 3, "r": 3,
                     "lifted_D": 9},
                    {"generator": "kspart gen graph on K5, edges in seeded "
                                  "order", "m": 10, "d": 4, "r": 2,
                     "lifted_D": 8}],
                "threads": 1,
                "seed": "default_rng(seed) draws the unitary, then the "
                        "edge order"},
        make=_degenerate,
    ),
    Workload(
        name="certify",
        why="The barrier certificate: value_many evaluates 2^k determinant "
            "stacks, barrier takes nearly all the time, and memory grows "
            "as 2^m.",
        recipe={"command": "certify --seed 0",
                "generator": "rank-one outer products of "
                             "gen_gaussian(4, 4/14, seed)",
                "m": 14, "d": 4, "threads": 1,
                "seed": "the workload seed is the gen_gaussian seed"},
        make=_certify,
    ),
    Workload(
        name="mixed-oracle",
        why="The brute-force oracle feeds char_poly_stack 2^20 full-rank "
            "outcome sums; the only workload where --threads pays.",
        recipe={"command": f"mixed --oracle --threads {MIXED_THREADS}",
                "generator": "isotropized random ensemble: Dirichlet atom "
                             "weights, complex Gaussian atoms",
                "d": 4, "vectors": 10, "atoms": 4, "outcomes": 4 ** 10,
                "threads": MIXED_THREADS,
                "seed": "numpy default_rng(seed) draws weights then atoms"},
        make=_mixed,
        threads=MIXED_THREADS,
    ),
)}
