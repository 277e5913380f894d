"""Maximal commutative subgroups of the dual group as isotropic subspaces.

Index subsets of dual rows are identified with vectors in F2^n; two products
commute iff ``v Gamma v'^T = 0``.  A maximal commutative subgroup of the dual
corresponds to an e-dimensional totally isotropic subspace (a Lagrangian) of
the reduced full-rank form gamma_tilde, lifted back through the kernel of
Gamma.

The Lagrangians are enumerated pair by pair in a symplectic basis of
gamma_tilde: every Lagrangian of the span of the last k - 1 hyperbolic pairs
extends in exactly 1 + 2^k ways to one of the last k pairs, so the chi(e)
subspaces come out once each, with no search over F2^{2e} and no
deduplication.  Level k is one array of every Lagrangian's k rows, and each
level is a fixed number of array passes over it, whatever its count (see
``enumerate_max_isotropic``).  The result is a ``SubgroupBatch``: the RREF
bases in gamma_tilde coordinates and their lifts, one row per subgroup, in
the order of ``np.lexsort`` on the basis rows, which is that of sorting the
bases as tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .f2 import (
    BinMatrix,
    bits_of,
    combine,
    combine_table,
    in_rowspan,
    mask_dtype,
    mask_of,
    parity,
    rank,
    rref,
    rref_batch,
    rref_kernel,
    solve,
    symplectic_basis,
)
from .graphs import MixedGraph, mixed_rank
from .pauli import BoundExceeded

# the whole batch is held at once, an array of chi(e) (e + t) words (and
# chi(e) e more for the reduced bases at t > 0): 2e <= 10 admits chi(5) =
# 75,735 subgroups, where 2e = 12 gives chi(6) = 4,922,775, whose
# enumeration peaks at about 1.1 GB
DEFAULT_ENUM_BOUND = 10


@dataclass(frozen=True)
class GammaReduction:
    """Gamma with t dependent rows/columns removed to full-rank gamma_tilde."""

    gamma: BinMatrix
    gamma_tilde: BinMatrix
    kept: Tuple[int, ...]
    removed: Tuple[int, ...]
    kernel_basis: Tuple[int, ...]

    @property
    def n(self) -> int:
        return self.gamma.cols

    @property
    def t(self) -> int:
        return len(self.removed)

    @property
    def e(self) -> int:
        return (self.n - self.t) // 2

    @cached_property
    def _lift_table(self) -> np.ndarray:
        # 2^(n-t) entries; only the enumeration lifts, within its bound
        return np.array(combine_table([1 << j for j in self.kept]), dtype=mask_dtype(self.n))

    def lift(self, reduced: np.ndarray) -> np.ndarray:
        """Embed reduced-space vectors, an array of them or one, with zeros
        at the removed positions."""
        return self._lift_table[reduced]


def reduce_gamma(gamma: BinMatrix) -> GammaReduction:
    """Deterministic reduction: keep each row iff it increases the rank.

    Gamma is symmetric, so column j is row j, and the pivot columns of one
    RREF of Gamma are exactly the rows outside the span of those before.
    The same RREF gives the kernel basis, one vector per removed column.
    """
    if not gamma.is_symmetric() or not gamma.is_zero_diagonal():
        raise ValueError("gamma must be symmetric with zero diagonal")
    n = gamma.cols
    reduced, kept = rref(gamma.rows, n)
    removed = tuple(sorted(set(range(n)) - set(kept)))
    gt = gamma.submatrix(kept, kept)
    assert rank(gt) == len(kept)
    ker = rref_kernel(reduced, kept, n)
    return GammaReduction(gamma, gt, tuple(kept), removed, tuple(ker))


@dataclass(frozen=True)
class IsotropicSubspace:
    """Maximal totally isotropic subspace of gamma_tilde plus its lift."""

    reduction: GammaReduction
    basis: Tuple[int, ...]          # e rows over F2^{n-t}, RREF
    lifted_basis: Tuple[int, ...]   # e + t rows over F2^n, RREF

    def contains(self, v: int) -> bool:
        return in_rowspan(v, self.lifted_basis, self.reduction.n)


@dataclass(frozen=True, eq=False)
class SubgroupBatch:
    """Isotropic subspaces of one reduction, row i subspace i, as masks:
    ``basis`` (k, e), the RREF rows over F2^{n-t}, and ``lifted`` (k, e +
    t), the RREF rows of the lift over F2^n, zero rows last.  Item i is
    subspace i as an ``IsotropicSubspace``, and a slice is a batch of its
    subspaces, so iterating gives each subspace."""

    reduction: GammaReduction
    basis: np.ndarray
    lifted: np.ndarray

    def __len__(self) -> int:
        return len(self.basis)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SubgroupBatch(self.reduction, self.basis[i], self.lifted[i])
        basis, lifted = self.basis[i].tolist(), self.lifted[i].tolist()
        return IsotropicSubspace(self.reduction, tuple(filter(None, basis)),
                                 tuple(filter(None, lifted)))

    def dims(self) -> np.ndarray:
        """The dimension of each lifted subspace: its nonzero RREF rows."""
        return (self.lifted != 0).sum(axis=1)


def chi(e: int) -> int:
    """Number of maximal commutative subgroups: prod_{j=1}^{e} (2^j + 1)."""
    if e < 0:
        raise ValueError("e must be non-negative")
    return prod((1 << j) + 1 for j in range(1, e + 1))


def enumerate_max_isotropic(red: GammaReduction, bound: int = DEFAULT_ENUM_BOUND) -> SubgroupBatch:
    """All maximal totally isotropic subspaces of gamma_tilde, canonical order.

    Each subspace is built exactly once, in the hyperbolic pairs
    (a_1, b_1), ..., (a_e, b_e) of ``symplectic_basis(gamma_tilde)``, adding
    one pair (a, b) at a time in front of the span W of the pairs already
    used (k pairs in all).  A Lagrangian of span(a, b) + W either contains
    a, and is span(a) + L for a Lagrangian L of W, or it does not.  Then L
    is the projection onto W of its vectors without a b component, and it is

        span(b + alpha a + w) + {u + omega(w, u) a : u in L}

    for exactly one alpha in F2 and one w from a fixed set of
    representatives of the 2^(k-1) cosets of L in W.  So each Lagrangian of
    W yields 1 + 2^k distinct ones, and the count is
    prod_{j=1}^{e} (2^j + 1) = chi(e) by construction, with no search over
    F2^{2e} and no deduplication.

    Level k - 1 is an array (c, k - 1) of the c Lagrangians' rows in pair
    coordinates, each set of rows reduced on a mask Q of k - 1 columns: row
    l is the one member whose bits in Q are its own pivot bit q_l.  The
    columns of W outside Q are free, and the sums of their unit vectors
    are the coset representatives w, listed by one XOR doubling together
    with the rows each flips, omega(w, u_l) for every l.  The new rows stay
    reduced with no elimination: span(a) + L adds a to Q; for w = 0 the
    lead row b + alpha a adds its bit; otherwise, with u* the lowest row
    that w flips, the rows u* + a, b + w + alpha u* and u_l + omega(w, u_l)
    u* (l != l*) are reduced on Q - q* + a + b.  Every step is a fixed
    number of array passes over the level.

    The last level is mapped to gamma_tilde coordinates through one table of
    all 2^(2e) images, reduced to RREF by one batched elimination, put in
    canonical order by one ``np.lexsort`` (the order of the bases as sorted
    tuples), and lifted through the kernel of Gamma by one more.  Returns
    the batch: ``basis`` (chi(e), e), ``lifted`` (chi(e), e + t).
    """
    m = red.n - red.t
    limit = min(bound, 62)  # pair coordinates are int64 masks
    if m > limit:
        raise BoundExceeded(
            f"enumeration bound exceeded: 2e = {m} > {limit} (chi({m // 2}) = {chi(m // 2)})"
        )
    pairs, _ = symplectic_basis(red.gamma_tilde)
    # pair coordinates: bit 2i is a_i, bit 2i + 1 is b_i
    evens = sum(1 << (2 * i) for i in range(len(pairs)))
    rows = np.zeros((1, 0), dtype=np.int64)
    held = np.zeros((1, 1), dtype=np.int64)  # each Lagrangian's mask Q
    for i in reversed(range(len(pairs))):
        rows, held = _grow(rows, held, i, m, evens)

    # gamma_tilde coordinates of every pair-coordinate vector
    image = np.array(combine_table([pair[k] for pair in pairs for k in (0, 1)]), dtype=np.int64)
    rows = image[rows]  # rebound: at e = 6 a level's rows take 236 MB
    del held
    basis = rref_batch(rows, m)[0]
    del rows
    if len(pairs):  # np.lexsort takes at least one key; e = 0 has one subgroup
        basis = basis[np.lexsort(basis.T[::-1])]
    if not red.t:  # kept = range(n): the lift is the identity, and a basis is RREF
        return SubgroupBatch(red, basis, basis)
    kernel = np.array(red.kernel_basis, dtype=mask_dtype(red.n))
    lifted = np.concatenate([red.lift(basis), np.broadcast_to(kernel, (len(basis), red.t))], axis=1)
    return SubgroupBatch(red, basis, rref_batch(lifted, red.n)[0])


def _grow(
    rows: np.ndarray, held: np.ndarray, i: int, m: int, evens: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The Lagrangians of pairs i, ..., e - 1 from those of pairs i + 1,
    ..., e - 1: ``rows`` (c, k) in pair coordinates, each Lagrangian's rows
    reduced on its mask of ``held`` (c, 1), give (c (1 + 2^(k+1)), k + 1)
    rows and their masks.  Lagrangian L gives span(a) + L, then one
    Lagrangian with alpha = 0 for each of its 2^k coset representatives w,
    then one with alpha = 1 for each."""
    a, b = 1 << (2 * i), 1 << (2 * i + 1)
    c, k = rows.shape
    reps = 1 << k
    free = ((1 << m) - (b << 1)) & ~held
    w = np.zeros((c, reps), dtype=np.int64)
    flips = np.zeros_like(w)  # bit l: omega(w, row l)
    slots = 1 << np.arange(k)
    for j in range(k):
        unit = free & -free
        free ^= unit
        partner = ((unit & evens) << 1) | ((unit >> 1) & evens)
        flip = (((rows & partner) != 0) * slots).sum(axis=1, keepdims=True)
        w[:, 1 << j:2 << j] = w[:, :1 << j] ^ unit
        flips[:, 1 << j:2 << j] = flips[:, :1 << j] ^ flip
    at_star = ((flips & -flips)[..., None] & slots) != 0  # the lowest row that w flips
    u_star = (rows[:, None, :] * at_star).sum(axis=2)
    moved = flips != 0
    grown = np.empty((c, 1 + 2 * reps, k + 1), dtype=np.int64)
    grown[:, 0, 0], grown[:, 0, 1:] = a, rows
    grown[:, 1:reps + 1, 0] = b ^ w
    grown[:, reps + 1:, 0] = b ^ w ^ np.where(moved, u_star, a)
    tail = grown[:, 1:reps + 1, 1:]
    tail[...] = rows[:, None, :]
    np.bitwise_xor(tail, u_star[..., None], out=tail,
                   where=((flips[..., None] & slots) != 0) & ~at_star)
    np.bitwise_or(tail, a, out=tail, where=at_star)
    grown[:, reps + 1:, 1:] = tail
    turned = held ^ (u_star & held) | a | b
    masks = np.empty((c, 1 + 2 * reps), dtype=np.int64)
    masks[:, :1] = held | a
    masks[:, 1:reps + 1] = np.where(moved, turned, held | b)
    masks[:, reps + 1:] = np.where(moved, turned, held | a)
    return grown.reshape(-1, k + 1), masks.reshape(-1, 1)


def membership_count(subspaces: Sequence[IsotropicSubspace], element: int) -> int:
    """Number of the given subspaces whose lifted span contains the element."""
    return sum(1 for s in subspaces if s.contains(element))


def commutes_via_gamma(gamma: BinMatrix, v_k: int, v_j: int) -> bool:
    """True iff the products indexed by v_k and v_j commute (v_K Gamma v_J^T = 0)."""
    return parity(v_k & gamma.mul_vec(v_j)) == 0


def gamma_order(gt: BinMatrix) -> int:
    """Least u >= 1 with gt^u = I; raises on singular input."""
    n = gt.cols
    if rank(gt) != n:
        raise ValueError("gamma_tilde must be invertible")
    ident = BinMatrix.identity(n)
    acc = gt
    u = 1
    while acc != ident:
        acc = acc.matmul(gt)
        u += 1
        if u > 1 << (2 * n):
            raise RuntimeError("order search runaway")
    return u


def gram_factor_search(gt: BinMatrix) -> Optional[BinMatrix]:
    """Square Omega with Omega Omega^T = gt, or None when none exists.

    A symmetric M over F2 is Omega Omega^T for an Omega of rank(M) columns,
    or rank(M) + 1 when M is alternating (A. Lempel, SIAM J. Comput. 4
    (1975)), so only an invertible alternating M lacks a square factor:
    every row of Omega would have even weight, so Omega 1 = 0 and Omega
    Omega^T would be singular.  A valid gamma_tilde is exactly such an M.

    The factor comes from congruence diagonalisation: a basis P whose Gram
    matrix D = P M P^T is a sum of [1] blocks, hyperbolic [[0, 1], [1, 0]]
    blocks and zeros, rows F over unit columns with F F^T = D, and then
    Omega = P^-1 F.
    """
    n = gt.cols
    if n != gt.nrows:
        raise ValueError("square matrix required")
    if not gt.is_symmetric() or (n and gt.is_zero_diagonal() and rank(gt) == n):
        return None

    def form(u: int, v: int) -> int:
        return parity(u & gt.mul_vec(v))

    units, rest = [], [1 << j for j in range(n)]
    while (u := next((v for v in rest if form(v, v)), None)) is not None:
        rest.remove(u)
        rest = [v ^ u if form(u, v) else v for v in rest]
        units.append(u)
    # the form is alternating on the rest; split it in rest coordinates
    gram = BinMatrix(
        tuple(mask_of(k for k, w in enumerate(rest) if form(v, w)) for v in rest), len(rest)
    )
    pairs, radical = symplectic_basis(gram)
    # F: a hyperbolic pair takes spare + x, spare + y for fresh unit columns
    # x, y, and spare + x + y, still orthogonal to both, becomes the spare
    # that the first [1] block takes; the radical gets zero rows
    column = iter(1 << c for c in range(n))
    spare = next(column) if pairs else 0
    basis: List[int] = []
    rows: List[int] = []
    for a, b in pairs:
        x, y = next(column), next(column)
        basis += [combine(rest, a), combine(rest, b)]
        rows += [spare ^ x, spare ^ y]
        spare ^= x ^ y
    for k, u in enumerate(units):
        basis.append(u)
        rows.append(spare if pairs and k == 0 else next(column))
    basis += [combine(rest, r) for r in radical]
    rows += [0] * len(radical)
    to_basis = BinMatrix(tuple(basis), n).transpose()
    return BinMatrix(tuple(combine(rows, solve(to_basis, 1 << j)) for j in range(n)), n)


def subgroup_isomorphism(
    g: MixedGraph, h: MixedGraph
) -> Optional[Dict[int, Tuple[int, ...]]]:
    """Commutation-preserving map between the dual groups of g and h.

    Row index j of g's dual maps to an index set of h's dual rows such that
    v Gamma_g v'^T = f(v) Gamma_h f(v')^T for all v, v'.  Built by matching
    symplectic bases (hyperbolic pairs plus kernel), which exist whenever the
    two graphs share n and mixed rank e; otherwise returns None.
    """
    if g.n != h.n:
        return None
    if mixed_rank(g) != mixed_rank(h):
        return None
    n = g.n
    gamma_g, gamma_h = g.gamma(), h.gamma()
    basis_g = _flat_basis(*symplectic_basis(gamma_g))
    basis_h = _flat_basis(*symplectic_basis(gamma_h))
    # f(e_j) = coordinates of e_j in basis_g applied to basis_h
    bg = BinMatrix(tuple(basis_g), n).transpose()
    mapping: Dict[int, Tuple[int, ...]] = {}
    for j in range(n):
        coords = solve(bg, 1 << j)
        assert coords is not None, "basis must span F2^n"
        mapping[j] = tuple(bits_of(combine(basis_h, coords)))
    return mapping


def _flat_basis(pairs: List[Tuple[int, int]], ker: List[int]) -> List[int]:
    flat: List[int] = []
    for a, b in pairs:
        flat += [a, b]
    flat += list(ker)
    return flat


def apply_row_map(mapping: Dict[int, Tuple[int, ...]], v: int) -> int:
    """Extend the row map linearly to an index vector."""
    out = 0
    for j in bits_of(v):
        out ^= mask_of(mapping[j])
    return out
