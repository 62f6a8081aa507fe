"""Exterior-algebra suffix states: the state engine of ``partition``.

A node of the r-part descent pins u_0 .. u_{k-1} into the block bases
P_b = r sum_{i < k, prefix_i = b} u_i u_i*, and its polynomial is

    prod_{i >= k} (1 - d/dz_i) prod_b det(xI - P_b + sum_i z_i u_i u_i*)

at z = 0 (Marcus, Spielman and Srivastava, "Interlacing families II").
The complementary-minor form of Cauchy-Binet,

    det(A + M) = sum_{|J| = |K|} (-1)^(sum J + sum K) det A[J^c, K^c]
                 det M[J, K],

makes it one contraction

    mu = <rho_k, l(P_0) x ... x l(P_{r-1})>,
    l(P)[J, K] = (-1)^(|J| + sum J + sum K) det(xI - P)[J^c, K^c],

of a suffix state rho_k = sum over the labellings of u_k .. u_{m-1} into
{none, 0 .. r-1} of prod_b (wedge u_{S_b})_J conj (wedge u_{S_b})_K, S_b
the vectors labelled b.  Each of its r blocks has the C(2d, d)
coordinates (J, K) with |J| = |K|, 20 at d = 3 and 70 at d = 4, so its
size does not grow with m.  All m + 1 states are built once, backwards:
rho_m = 1 and rho_k = rho_{k+1} + sum_b Omega_b(u_k) rho_{k+1}, where
Omega_b wedges u_k into block b on both sides.  With P = Q diag(lam) Q*,
Cauchy-Binet again gives l(P)[J, K] = sign sum_L det Q[J^c, L] conj
det Q[K^c, L] prod_{l in L} (x - lam_l), so a level takes its r
children's new blocks l(P_t + r u_k u_k*) from one ``eigh``, and each
child keeps its parent's r - 1 other blocks.  Q is unitary, so by
Jacobi's theorem a term of minor size s > d/2 is a term of size d - s
with a sign, and l reads only the minors of size <= d/2: Q's entries,
then products of them, with no ``det`` call.  l stays complex until the
contraction's real part.

Nodes are formed in t = x - SHIFT.  SHIFT = 1 is every node's mean root,
since the block sums have trace r d, and at small delta the roots crowd
about it, where coefficients in x lose them: unshifted, gauss(3, 1/50)
at r = 3, gauss(4, 1/75) at r = 2 and gauss(3, 3/2000) at r = 2 raised
``DescentError`` at levels 149, 293 and 1638.  Their roots come back plus
SHIFT; the leaves take the eigenvalues of the part sums.
"""
from __future__ import annotations

import functools
import math
from itertools import combinations

import numpy as np

from . import linalg, realpoly
from .interlace import NodeFamily, roots_work
from .mixedchar import _readonly
from .policy import NumericPolicy


def _part_sums(outers: np.ndarray, prefix: tuple[int, ...],
               r: int) -> np.ndarray:
    """P_0 .. P_{r-1}: r times the outer products pinned to each block."""
    bases = np.zeros((r,) + outers.shape[1:], dtype=np.complex128)
    for i, t in enumerate(prefix):
        bases[t] += r * outers[i]
    return bases


def _leaves(kids: np.ndarray) -> list:
    """The leaves of a last level, from each child's r part sums: their
    eigenvalues, exact where the coefficients of prod_b chi(P_b) scatter a
    multiple root (by about 1e-4 for a double eigenvalue shared by two
    parts)."""
    return [(realpoly.TopRoot.of(realpoly.RootList(
        *np.unique(np.linalg.eigvalsh(kid), return_counts=True))), None)
            for kid in kids]


# Work model of the state engine, in the units of NumericPolicy.work_cap,
# fitted to 27 state-engine descents of gen_gaussian(d, d/m) from
# (1, 2, 4) and (3, 2, 12) to (3, 2, 400), (2, 3, 300), (4, 3, 12) and
# (6, 2, 6), each predicted at 0.67 to 1.73 times its measured time; with
# l on the minors of size <= d/2, 27 such partitions from (1, 2, 4) to
# (6, 2, 8) and (3, 4, 9) read 0.79 to 2.86 (2.86 at (2, 3, 300), where
# the levels weigh most):
LEVEL_WORK = 50_000
"""A level's r new l blocks and its calls besides the contractions."""
MAC_WORK = 0.15
"""A complex multiply-add of a state update or a contraction."""
ENTRY_WORK = 10
"""A stored entry of a suffix state."""
BYTE_WORK = 200
"""A byte of the stored suffix states, counted against the work cap on
its own: the default cap admits 500 MB of states."""
JSON_BYTES = 650
"""Peak bytes a vector coordinate takes while ``gen`` writes an instance
file: 1e5 and 2e5 vectors at n = 2 raised the peak RSS 135 and 261 MB."""


def _state_size(d: int, r: int) -> int | float:
    """C(2d, d)^r, the entries of a suffix state, or the float 10^300 once
    it passes that, so that no r builds a larger integer."""
    width = math.comb(2 * d, d)
    return 1e300 if r * math.log10(width) > 300 else width ** r


def state_bytes(n: int, d: int, r: int) -> int | float:
    """Bytes of the n + 1 suffix states of n vectors, at most 10^300."""
    return min(16 * (n + 1) * _state_size(d, r), 1e300)


def _state_work(n: int, d: int, r: int, nodes: int) -> float:
    """Work of the suffix states of n vectors and of nodes contractions:
    n updates, each multiplying every block by Omega, the n + 1 stored
    states and the contractions with l's d + 1 coefficients."""
    width = math.comb(2 * d, d)
    size = _state_size(d, r)
    macs = n * r * size * width + nodes * size * (d + 1)
    return (min(macs, 1e300) * MAC_WORK
            + min((n + 1) * size, 1e300) * ENTRY_WORK)


def state_work(m: int, d: int, r: int) -> float:
    """Predicted work of an r-part ``partition`` of m vectors in dimension
    d on the state engine: the m + 1 suffix states, then the root and one
    level per vector, each contracting r children on r new l blocks and
    finding their roots (the leaves, which take eigenvalues instead, count
    as a level)."""
    nodes = 1 + r * m
    return float(min(_state_work(m, d, r, nodes) + (m + 1) * LEVEL_WORK
                     + nodes * roots_work(r * d), 10 ** 300))


@functools.cache
def _exterior(d: int) -> tuple:
    """Coordinate tables of one block of a suffix state, built on first
    use.  A block's coordinates are the pairs (J, K) of subsets of range(d)
    with |J| = |K|, grade by grade, J major and K minor, C(2d, d) in all.

    Returns Omega's entries (target, source, j, k, sign): Omega(u) maps
    (J, K) to (J + {j}, K + {k}) times sign u_j conj(u_k), the sign being
    (-1)^(#(J below j) + #(K below k)).  Then l's minors of Q, of the sizes
    s <= max(1, d // 2) only, laid out size by size, rows major, after a
    1 for size 0: size 1 is Q's entries, and each larger size's Laplace
    expansion along its first row, as (start, entries, minors, signs) of
    det Q[R, C] = sum_p (-1)^p Q[R_0, C_p] det Q[R - R_0, C - C_p].  Then
    l's terms, in coordinate order: for each term of

        l[J, K] = (-1)^(|J| + sum J + sum K) sum_{|L| = s} det Q[J^c, L]
                  conj det Q[K^c, L] prod_{l in L} (t - mu_l),

    s = d - |J|, the positions of its two minors and its place c 2^d + M
    among the weights of the coordinates c by the bitmasks M of their
    roots.  A size s above d // 2 is read from its complement by Jacobi's
    theorem for the unitary Q: det Q[J^c, L] conj det Q[K^c, L] = (-1)^(sum
    J + sum K) det Q[K, L^c] conj det Q[J, L^c], a term over the |J|-subset
    L^c with the roots outside it.  Last each coordinate's sign, (-1)^|J|
    for the terms read from their complements."""
    subsets = [list(combinations(range(d), g)) for g in range(d + 1)]
    rank = [{x: i for i, x in enumerate(grade)} for grade in subsets]
    index = {(j, k): i for i, (j, k) in enumerate(
        (j, k) for grade in subsets for j in grade for k in grade)}
    omega = []
    for (j2, k2), target in index.items():
        for p, j in enumerate(j2):
            for q, k in enumerate(k2):
                source = index[j2[:p] + j2[p + 1:], k2[:q] + k2[q + 1:]]
                omega.append((target, source, j, k, (-1) ** (p + q)))
    half = max(1, d // 2)
    offsets = np.cumsum([0] + [len(g) ** 2 for g in subsets[:half + 1]])

    def minor(rows, cols):
        s = len(rows)
        return (int(offsets[s]) + rank[s][rows] * len(subsets[s])
                + rank[s][cols])

    laplace = []
    for s in range(2, half + 1):
        cut = [(rows, cols, p) for rows in subsets[s] for cols in subsets[s]
               for p in range(s)]
        entries = [minor(rows[:1], cols[p:p + 1]) for rows, cols, p in cut]
        below = [minor(rows[1:], cols[:p] + cols[p + 1:])
                 for rows, cols, p in cut]
        laplace.append((int(offsets[s]),
                        _readonly(np.array(entries).reshape(-1, s)),
                        _readonly(np.array(below).reshape(-1, s)),
                        _readonly((-1.0) ** np.arange(s))))
    full = (1 << d) - 1
    terms, signs = [], []
    for c, (j, k) in enumerate(index):
        g = len(j)
        at = c << d
        if d - g <= d // 2:
            jc, kc = (tuple(x for x in range(d) if x not in y)
                      for y in (j, k))
            signs.append((-1.0) ** (g + sum(j) + sum(k)))
            terms += [(minor(jc, ls), minor(kc, ls),
                       at + sum(1 << x for x in ls)) for ls in subsets[d - g]]
        else:
            signs.append((-1.0) ** g)
            terms += [(minor(k, ls), minor(j, ls),
                       at + (full ^ sum(1 << x for x in ls)))
                      for ls in subsets[g]]
    return (tuple(_readonly(np.array(x)) for x in zip(*omega)),
            int(offsets[-1]), laplace,
            tuple(_readonly(np.array(x)) for x in zip(*terms)),
            _readonly(np.array(signs)[:, None]))


def _suffix_states(vectors: np.ndarray, r: int, rows: int = 0) -> np.ndarray:
    """rho_k for k = 0 .. n of n vectors, one flattened row each, in row
    k % rows (all n + 1 rows when rows is 0): rho_n = 1 at the empty
    coordinate and rho_k = rho_{k+1} + sum_b Omega_b(u_k) rho_{k+1},
    Omega_b acting on block b's axis, its entries formed for about
    ``linalg.BLOCK_BYTES`` of vectors at a time (51 at d = 4)."""
    n, d = vectors.shape
    rows = rows or n + 1
    width = math.comb(2 * d, d)
    target, source, j, k, sign = _exterior(d)[0]
    step = max(1, linalg.BLOCK_BYTES // (16 * len(sign)))
    omega = np.zeros((width, width), dtype=np.complex128)
    states = np.zeros((rows, width ** r), dtype=np.complex128)
    states[n % rows, 0] = 1.0
    for i in range(n - 1, -1, -1):
        if (n - 1 - i) % step == 0:  # the next step vectors, backwards
            u = vectors[i::-1][:step]
            entries = sign * u[:, j] * u[:, k].conj()
        omega[target, source] = entries[(n - 1 - i) % step]
        rho, out = states[(i + 1) % rows], states[i % rows]
        out[:] = rho
        for b in range(r):
            x = rho.reshape(width ** b, width, -1)
            if b < r - 1:
                out += (omega @ x).ravel()
            else:
                out += (x[..., 0] @ omega.T).ravel()
    return states


@functools.cache
def _subset_table(d: int) -> tuple:
    """The members of each bitmask M of range(d), (2^d, d) booleans, and
    the 0/1 matrix (2^d, 2^d (d + 1)) that adds the monomials prod_{l in
    S} (-mu_l) of the subsets S of M with |S| = |M| - i into the t^i
    coefficient of prod_{l in M} (t - mu_l), at [S, M (d + 1) + i]."""
    masks = np.arange(1 << d)
    bits = (masks[:, None] >> np.arange(d)) & 1
    sizes = bits.sum(axis=1)
    s, m = np.nonzero(masks[:, None] & masks == masks[:, None])
    sums = np.zeros((1 << d, 1 << d, d + 1))
    sums[s, m, sizes[m] - sizes[s]] = 1.0
    return (_readonly(bits.astype(bool)),
            _readonly(sums.reshape(1 << d, -1)))


def _subset_polys(mu: np.ndarray) -> np.ndarray:
    """prod_{l in M} (t - mu_l) for every bitmask M of range(d), at [...,
    M, :], for each row mu of a stack (..., d): ascending coefficients,
    padded to degree d, from one product of the 2^d monomials and one
    product with ``_subset_table``'s sums."""
    d = mu.shape[-1]
    bits, sums = _subset_table(d)
    monomials = np.where(bits, -mu[..., None, :], 1.0).prod(axis=-1)
    return (monomials @ sums).reshape(mu.shape[:-1] + (1 << d, d + 1))


def _ell(bases: np.ndarray, shift: float) -> np.ndarray:
    """l(P) of each base P of a stack, by coordinate, as coefficients in
    t = x - shift, ascending, padded to degree d: l(P)[J, K] = (-1)^(|J| +
    sum J + sum K) det(xI - P)[J^c, K^c] = sign sum_L det Q[J^c, L] conj
    det Q[K^c, L] prod_{l in L} (t - mu_l), with P = Q diag(lam) Q* and
    mu = lam - shift, from one ``eigh`` and the minors of Q of the sizes
    s <= d // 2 (``_exterior``): Q's entries, then products of them, and
    no ``det`` call.  The minor of size d is |det Q| = 1, so l[{}, {}] is
    the characteristic polynomial prod_l (t - mu_l) itself."""
    count, d = bases.shape[:2]
    lam, q = np.linalg.eigh(bases)
    _, width, laplace, (a, b, at), signs = _exterior(d)
    minors = np.empty((count, width), dtype=np.complex128)
    minors[:, 0] = 1.0
    minors[:, 1:1 + d * d] = q.reshape(count, -1)
    for lo, entries, below, sign in laplace:
        minors[:, lo:lo + len(entries)] = (
            minors[:, entries] * minors[:, below]) @ sign
    weights = np.zeros((count, len(signs), 1 << d), dtype=np.complex128)
    weights.reshape(count, -1)[:, at] = minors[:, a] * minors[:, b].conj()
    return signs * (weights @ _subset_polys(lam - shift))


@functools.cache
def _degree_sums(r: int, width: int) -> np.ndarray:
    """The total degree of each entry of an r-fold outer product of
    coefficient arrays of length width, row-major."""
    return _readonly(np.indices((width,) * r).sum(axis=0).ravel())


def _contract(rho: np.ndarray, ells: np.ndarray) -> np.ndarray:
    """The node polynomial <rho, l_0 x ... x l_{r-1}>, ascending: rho
    contracted with one block's coefficient arrays at a time, the real
    part of the r-fold coefficient tensor, then summed by total degree."""
    r, width, coeffs = ells.shape
    x = ells[0].T @ rho.reshape(width, -1)
    for b in range(1, r):
        x = ells[b].T @ x.reshape(-1, width, width ** (r - 1 - b))
    return np.bincount(_degree_sums(r, coeffs), weights=x.real.ravel(),
                       minlength=r * (coeffs - 1) + 1)


def _state_node(vectors: np.ndarray, prefix: tuple[int, ...], r: int,
                shift: float) -> np.ndarray:
    """The node polynomial at a prefix, in t = x - shift, folding rho_0
    in two rows of suffix states, the bytes of ``state_bytes(1, d, r)``."""
    u = vectors[:len(prefix)]  # the pinned ones
    bases = _part_sums(np.einsum("mj,mk->mjk", u, u.conj()), prefix, r)
    rho = _suffix_states(vectors[len(prefix):], r, 2)[0]
    return _contract(rho, _ell(bases, shift))


SHIFT = 1.0
"""Every node's mean root: the block sums have trace r d in all."""


def _state_family(u: np.ndarray, r: int,
                  policy: NumericPolicy) -> NodeFamily:
    """The r-part descent tree of the vectors u on the state engine.  A
    node's state is its prefix length k, its part sums and their l blocks;
    child t replaces block t by l(P_t + r u_k u_k*), and the r new blocks
    of a level come from one ``_ell`` call.  Nodes are formed in t = x -
    SHIFT, and their roots come back plus SHIFT; a leaf takes
    ``_leaves``."""
    m = len(u)
    outers = np.einsum("mj,mk->mjk", u, u.conj())
    states = _suffix_states(u, r)
    diag = np.arange(r)

    def root():
        bases = _part_sums(outers, (), r)
        ells = _ell(bases, SHIFT)
        found = realpoly.top_roots([_contract(states[0], ells)], policy)
        return found[0].shifted(SHIFT), (0, bases, ells)

    def children(state):
        k, bases, ells = state
        kids = np.repeat(bases[None], r, axis=0)
        kids[diag, diag] += r * outers[k]
        if k + 1 == m:
            return _leaves(kids)
        new = _ell(kids[diag, diag], SHIFT)
        blocks = np.repeat(ells[None], r, axis=0)
        blocks[diag, diag] = new
        found = realpoly.top_roots(
            [_contract(states[k + 1], x) for x in blocks], policy)
        return [(f.shifted(SHIFT), (k + 1, kid, x))
                for f, kid, x in zip(found, kids, blocks)]

    return NodeFamily((r,) * m, root, children)
