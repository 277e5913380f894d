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
deduplication (see ``enumerate_max_isotropic``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .f2 import (
    BinMatrix,
    bits_of,
    combine,
    combine_table,
    in_rowspan,
    mask_of,
    parity,
    rank,
    rref,
    rref_kernel,
    solve,
    span,
    span_of_basis,
    symplectic_basis,
)
from .graphs import MixedGraph, mixed_rank
from .pauli import BoundExceeded

# the whole sorted list is held at once: 2e <= 10 admits chi(5) = 75,735
# subgroups, where 2e = 12 would need chi(6) = 4,922,775
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
    def _lift_table(self) -> List[int]:
        # 2^(n-t) entries; only the enumeration lifts, within its bound
        return combine_table([1 << j for j in self.kept])

    def lift(self, reduced_vec: int) -> int:
        """Embed a reduced-space vector, zeros at the removed positions."""
        return self._lift_table[reduced_vec]


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

    def span_lifted(self) -> List[int]:
        """The 2^(e+t) members, sorted; ``lifted_basis`` is already RREF."""
        return span_of_basis(self.lifted_basis)

    def contains(self, v: int) -> bool:
        return in_rowspan(v, self.lifted_basis, self.reduction.n)


def chi(e: int) -> int:
    """Number of maximal commutative subgroups: prod_{j=1}^{e} (2^j + 1)."""
    if e < 0:
        raise ValueError("e must be non-negative")
    out = 1
    for j in range(1, e + 1):
        out *= (1 << j) + 1
    return out


def enumerate_max_isotropic(
    red: GammaReduction, bound: int = DEFAULT_ENUM_BOUND
) -> List[IsotropicSubspace]:
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
    F2^{2e} and no deduplication.  The representatives are the sums of the
    unit vectors at the non-pivot columns of L's RREF, in pair coordinates.
    Results are mapped to gamma_tilde coordinates through one table of all
    2^(2e) images, reduced to RREF, sorted, and lifted through the kernel of
    Gamma.
    """
    m = red.n - red.t
    if m > bound:
        raise BoundExceeded(
            f"enumeration bound exceeded: 2e = {m} > {bound} (chi({m // 2}) = {chi(m // 2)})"
        )
    pairs, _ = symplectic_basis(red.gamma_tilde)
    # pair coordinates: bit 2i is a_i, bit 2i + 1 is b_i
    evens = sum(1 << (2 * i) for i in range(len(pairs)))

    def omega(x: int, y: int) -> int:
        return parity((((x & evens) << 1) | ((x >> 1) & evens)) & y)

    lagrangians: List[List[int]] = [[]]
    for i in reversed(range(len(pairs))):
        a, b = 1 << (2 * i), 1 << (2 * i + 1)
        grown: List[List[int]] = []
        for lag in lagrangians:
            grown.append([a] + lag)
            _, pivots = rref(lag, m)
            free = [1 << j for j in range(2 * i + 2, m) if j not in pivots]
            for w in span(free, m):
                tail = [u ^ (a if omega(w, u) else 0) for u in lag]
                grown.append([b ^ w] + tail)
                grown.append([b ^ a ^ w] + tail)
        lagrangians = grown

    # gamma_tilde coordinates of every pair-coordinate vector
    image = combine_table([pair[k] for pair in pairs for k in (0, 1)])
    bases = sorted(tuple(rref([image[x] for x in lag], m)[0]) for lag in lagrangians)
    if not red.t:  # kept = range(n): the lift is the identity, and a basis is RREF
        return [IsotropicSubspace(red, basis, basis) for basis in bases]
    lift = red.lift
    out = []
    for basis in bases:
        lifted = [lift(b) for b in basis] + list(red.kernel_basis)
        out.append(IsotropicSubspace(red, basis, tuple(rref(lifted, red.n)[0])))
    return out


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
