"""Minimal pure parent graph states for a mixed graph.

A parent is a symmetric graph-form stabilizer on n + e qubits whose first n
qubits carry the child.  Construction runs in two stages: choose extension
columns for the lab rows (exact 3-colouring for e = 1, parity-check driven
assignment for general e), then write the graph form of the extended rows
down (``symmetrize``).  An extension column is a pair (x, z) of lab bit
masks: x holds its X/Y positions and z its Z/Y positions, L_m for column m.
Letters appear only in reports.  Environment row m is X_{n+m} Z^{L_m};
multiplying it into every lab row with X/Y in column m clears the
environment X block, so no qubit is ever conjugated and the child is
untouched.

The graph form is the parent state itself: with A the symmetric adjacency
``ae`` (diagonal bit 1 = red) and o the offset rows, the parent is
2^{-(n+e)/2} i^{p(x)} with p(x) = x A x^T + 2 o.x mod 4, an F2 quadratic
form (Dehaene & De Moor, quant-ph/0304125) read off the columns.

For general e the columns solve the paper's extension condition
X H + (X H)^T = Gamma, with H the parity-check matrix of the subgroup J.
With p_m the pivot of H row m, X[:, m] = Gamma[:, p_m] +
sum_{k<m} Gamma[p_k, p_m] H[k, :]^T is a solution, because Gamma vanishes
on J x J.  The homogeneous solutions are {H^T S : S symmetric}, so the
reachable forms have dimension ne - e(e+1)/2 = C(n,2) - C(n-e,2), that of
all alternating forms vanishing on J x J: every subgroup has a parent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .f2 import BinMatrix, bits_of, kernel, mask_of
from .graphs import MixedGraph, complete_multipartite_parts, stabilizer_matrix
from .pauli import PauliWord
from .subgroups import GammaReduction, IsotropicSubspace


class ExtensionError(RuntimeError):
    """Raised when inputs violate an extension precondition."""


def verify_full_commutation(rows: Sequence[PauliWord]) -> bool:
    return all(
        rows[i].commutes(rows[j]) for i in range(len(rows)) for j in range(i + 1, len(rows))
    )


@dataclass(frozen=True)
class ParentExtension:
    """Graph-form parent stabilizer with sign bookkeeping.

    ``ae`` holds the symmetric adjacency of the parent graph including the
    diagonal colour bits (1 = red/Y).  ``lab_offsets`` are lab rows whose
    actual stabilizer carries a -1 sign, i.e. the o of the 2 o.x term of
    ``phases``; ``env_offsets`` are the same for environment rows
    (these never change the child).  ``symmetrize`` leaves ``env_offsets``
    empty, so only a hand-built parent sets it.  ``ext_assign`` records the
    extension columns the graph form was written from, one (x, z) pair of
    lab bit masks per column.  Its rows X_j Z^{A_j} commute iff ``ae`` is
    symmetric, which the CLI's ``extension-commutes`` check tests.
    """

    n: int
    e: int
    ae: BinMatrix
    lab_offsets: FrozenSet[int] = frozenset()
    env_offsets: FrozenSet[int] = frozenset()
    ext_assign: Optional[Tuple[Tuple[int, int], ...]] = None

    def __post_init__(self) -> None:
        total = self.n + self.e
        if self.ae.cols != total or self.ae.nrows != total:
            raise ValueError("adjacency size must be n + e")

    @property
    def total(self) -> int:
        return self.n + self.e

    def row(self, j: int) -> PauliWord:
        sign = 2 if (j in self.lab_offsets or j in self.env_offsets) else 0
        return PauliWord(self.total, 1 << j, self.ae.rows[j], self.ae.get(j, j) + sign)

    def rows(self) -> List[PauliWord]:
        return [self.row(j) for j in range(self.total)]

    def parity_matrix(self) -> BinMatrix:
        """H: the environment rows of ``ae`` on the lab bits, row m = L_m."""
        lab = (1 << self.n) - 1
        return BinMatrix(tuple(r & lab for r in self.ae.rows[self.n:]), self.n)


def phases(parents: Sequence[ParentExtension], x: np.ndarray) -> np.ndarray:
    """p(x) = x A x^T + 2 o.x mod 4 of each parent at each row of the 0/1
    array ``x``, whose column j is qubit j: entry [i, r] is parent i at row
    r.  ``x`` is one (rows, k) block for all parents or one block per parent,
    (parents, rows, k).  Each red node in x counts once, each edge inside x
    twice.  A row of k < n + e columns sets no later qubit."""
    k = x.shape[-1]
    low = (1 << k) - 1  # a row over k qubits: bits past k may not fit int64
    rows = [[r & low for r in p.ae.rows[:k]] + [mask_of(p.lab_offsets | p.env_offsets) & low]
            for p in parents]
    a = (np.array(rows, dtype=np.int64).reshape(len(rows), k + 1)[..., None] >> np.arange(k)) & 1
    quadratic = (np.matmul(x, a[:, :k]) * x).sum(axis=-1)
    return (quadratic + 2 * np.matmul(x, a[:, k, :, None])[..., 0]) & 3


Indicator = Tuple[List[Tuple[int, ...]], BinMatrix, BinMatrix]


def indicator(p: ParentExtension) -> Indicator:
    """(L sets, generator matrix G of J, parity matrix H) for a parent.

    H row m is the characteristic vector of L_m; J = ker(H) has exactly
    2^{n-e} members for a minimal extension.
    """
    h = p.parity_matrix()
    gmat = kernel(h)
    if gmat.nrows != p.n - p.e:  # rank(H) = n - dim ker(H)
        raise ExtensionError("parity matrix is rank deficient; extension not minimal")
    return [tuple(bits_of(r)) for r in h.rows], gmat, h


def symmetrize(
    stabilizer: Sequence[PauliWord], columns: Iterable[Tuple[int, int]]
) -> ParentExtension:
    """Graph form of the lab rows ``stabilizer`` extended by ``columns``,
    each an (x, z) pair of lab bit masks.

    Lab row j must carry X or Y at its own position and I/Z elsewhere.  Let
    L_m be z of column m, its Z/Y support; environment row m is X_{n+m}
    Z^{L_m}, the unique choice (up to sign and products) with I/Z on the lab
    block.  Multiplying environment row m into each lab row j with X/Y in
    column m clears the environment X block, which writes the adjacency
    down:

    - lab row j is A_j + sum of L_m over the m with X/Y at j, plus bit
      n + m for each m with j in L_m;
    - environment row m is L_m;
    - lab row j carries a -1 sign when its stabilizer phase, plus 3 for
      each Y in its columns (Y = iXZ, and a product picks up -1 when j is
      in L_m), minus its new diagonal bit, is 2 mod 4.  Environment rows
      never do.

    Row products keep the stabilizer group, and graph-form rows commute iff
    their adjacency is symmetric, so the extended rows pairwise commute iff
    ``ae`` is symmetric.
    """
    columns = tuple(columns)
    n = len(stabilizer)
    e = len(columns)
    lab_rows = []
    lab_off = set()
    for j, base in enumerate(stabilizer):
        if base.x != 1 << j:
            raise ExtensionError(f"lab row {j} does not have X/Y exactly at position {j}")
        z, phase = base.z, base.phase
        for m, (xm, zm) in enumerate(columns):
            xb, zb = (xm >> j) & 1, (zm >> j) & 1
            if xb:
                z ^= zm
            z |= zb << (n + m)
            phase += 3 * (xb & zb)
        delta = (phase - ((z >> j) & 1)) % 4
        assert delta in (0, 2), "graph-form rows must be +-Hermitian"
        if delta == 2:
            lab_off.add(j)
        lab_rows.append(z)
    ae = BinMatrix(tuple(lab_rows) + tuple(z for _, z in columns), n + e)
    return ParentExtension(n, e, ae, frozenset(lab_off), ext_assign=columns)


def extend_e1(g: MixedGraph) -> List[ParentExtension]:
    """All single-column extensions: one per assignment of distinct tags from
    {X, Z, Y} to the skeleton's multipartite parts, present iff e = 1."""
    parts_iso = complete_multipartite_parts(g.gamma())
    if parts_iso is None:
        raise ExtensionError("extend_e1 requires mixed rank 1")
    parts, _ = parts_iso
    stabilizer = stabilizer_matrix(g)
    masks = [mask_of(part) for part in parts]
    out = []
    for perm in itertools.permutations(((1, 0), (0, 1), (1, 1)), len(parts)):
        x = sum(pm * xb for pm, (xb, _) in zip(masks, perm))
        z = sum(pm * zb for pm, (_, zb) in zip(masks, perm))
        out.append(symmetrize(stabilizer, [(x, z)]))
    return out


def parity_basis(m: IsotropicSubspace) -> BinMatrix:
    """Canonical (RREF) parity-check matrix whose kernel is the lifted span."""
    gen = BinMatrix(m.lifted_basis, m.reduction.n)
    return kernel(gen)


def _greedy_columns(gamma: BinMatrix, h: BinMatrix) -> Optional[List[int]]:
    """Column-by-column tag assignment mirroring the worked constructions.

    ``cur`` is the anticommutation still to clear, row j a mask; it starts
    as Gamma and stays alternating (symmetric, zero diagonal).  Within
    column m the lowest member of L_m takes Z and the others take Z/Y to fix
    their mutual commutation; rows outside L_m take X only when that clears
    their anticommutation with all of L_m, which a member of L_m never does.
    Returns the x masks of the columns, or None when a column's internal
    constraints are inconsistent.
    """
    cur = list(gamma.rows)
    xcols: List[int] = []
    for lmask in h.rows:
        if not lmask:
            return None
        x = cur[(lmask & -lmask).bit_length() - 1] & lmask
        # x_a ^ x_b = anti(a, b) for every pair a, b in L_m
        if any((cur[a] ^ x ^ (lmask if (x >> a) & 1 else 0)) & lmask for a in bits_of(lmask)):
            return None
        x |= mask_of(j for j, row in enumerate(cur) if row & lmask == lmask)
        # anti'(j, k) = anti(j, k) ^ x_j z_k ^ z_j x_k
        cur = [
            row ^ (lmask if (x >> j) & 1 else 0) ^ (x if (lmask >> j) & 1 else 0)
            for j, row in enumerate(cur)
        ]
        xcols.append(x)
    return None if any(cur) else xcols


def _closed_form_columns(gamma: BinMatrix, h: BinMatrix) -> List[int]:
    """The x masks of the columns that an F2 solve of X H + (X H)^T = Gamma
    returns.

    With p_m the pivot (lowest set bit) of H row m, column m is
    Gamma[:, p_m] + sum_{k<m} Gamma[p_k, p_m] H[k, :]^T.  Every solution
    differs from it by H^T S for a symmetric S.  Variable j*e + m is
    X[j, m]; reducing X against the basis of {H^T S} RREF'd from the
    highest variable down zeroes the free variables of the system, so the
    result is the solution with all free variables zero, as ``f2.solve``
    picks it.
    """
    n, e = gamma.cols, h.nrows
    pivots = [(r & -r).bit_length() - 1 for r in h.rows]
    cols = []
    for m, pm in enumerate(pivots):
        col = gamma.rows[pm]
        for k in range(m):
            if gamma.get(pivots[k], pm):
                col ^= h.rows[k]
        cols.append(col)

    def flat(columns: Sequence[int]) -> int:
        return sum(1 << (j * e + m) for m, col in enumerate(columns) for j in bits_of(col))

    # S = E_ab + E_ba puts H row b in column a and H row a in column b
    basis: List[Tuple[int, int]] = []  # (highest bit, vector), fully reduced
    for a, b in itertools.combinations_with_replacement(range(e), 2):
        v = flat([h.rows[b] if m == a else h.rows[a] if m == b else 0 for m in range(e)])
        for top, w in basis:
            if (v >> top) & 1:
                v ^= w
        top = v.bit_length() - 1
        basis = [(t, w ^ v if (w >> top) & 1 else w) for t, w in basis]
        basis.append((top, v))
    x = flat(cols)
    for top, w in basis:
        if (x >> top) & 1:
            x ^= w
    return [mask_of(j for j in range(n) if (x >> (j * e + m)) & 1) for m in range(e)]


def meets_extension_condition(gamma: BinMatrix, columns: Iterable[Tuple[int, int]]) -> bool:
    """X H + (X H)^T = Gamma for extension columns given as (x, z) masks: X
    holds their X/Y positions and H their Z/Y positions."""
    form = [0] * gamma.cols
    for x, z in columns:  # the rows of X H, then of (X H)^T
        for j in bits_of(x):
            form[j] ^= z
        for j in bits_of(z):
            form[j] ^= x
    return tuple(form) == gamma.rows


# The graph and the reduction last found to share Gamma.  Every subgroup of one
# enumeration shares its reduction; both are frozen, so a pair found equal stays
# equal, and holding them keeps their identities from being reused.
_SAME_GAMMA: List[object] = [None, None]


def _check_gamma(g: MixedGraph, red: GammaReduction) -> None:
    """Raise ``ExtensionError`` unless ``red`` reduces g's Gamma, testing
    each (graph, enumeration) pair once."""
    if _SAME_GAMMA[0] is g and _SAME_GAMMA[1] is red:
        return
    if not g.has_gamma(red.gamma):
        raise ExtensionError("subgroup does not come from the graph's Gamma")
    _SAME_GAMMA[:] = g, red


def extend_for_subgroup(
    g: MixedGraph,
    m_sub: IsotropicSubspace,
    stabilizer: Sequence[PauliWord],
) -> ParentExtension:
    """Parent whose child commutative subgroup equals the requested one.

    ``stabilizer`` is ``stabilizer_matrix(g)``, and e and Gamma come from the
    subgroup's reduction, which must be that of g's Gamma: a caller that
    extends every subgroup computes the graph-level values once.

    The Z/Y support of extension column m is forced to the m-th row of the
    subgroup's parity-check matrix H, and the X/I pattern solves
    X H + (X H)^T = Gamma.  A solution always exists, and
    ``_closed_form_columns`` writes it down: the homogeneous solutions are
    {H^T S : S symmetric}, so the reachable forms have dimension
    ne - e(e+1)/2 = C(n,2) - C(n-e,2), that of all alternating forms
    vanishing on J x J for J = ker H, and Gamma is one of them.

    The greedy pass runs first because it fixes the reported ``ext_columns``
    wherever it succeeds.  Its S follows the data: zeroing X at the H pivots
    at or above (or at or below) each column gives its columns on only 6 (or
    8) of the 15 ``appendix_a`` subgroups, and the closed form matches it on
    510 of the 4,979 subgroups where greedy succeeds in a sweep of 42,030
    (3,463 before the canonical shift), so no one rule replaces it.

    ``symmetrize`` writes H as the parent's parity matrix, so its J is the
    subgroup by construction: the CLI's ``indicator-matches-subgroup`` is the
    one check of that.  Raises ``ExtensionError`` when the subgroup comes
    from another Gamma, a test run once per graph and enumeration, or has
    the wrong dimension.
    """
    gamma = m_sub.reduction.gamma
    _check_gamma(g, m_sub.reduction)
    e = m_sub.reduction.e
    h = parity_basis(m_sub)
    if h.nrows != e:
        raise ExtensionError(
            f"subgroup parity matrix has {h.nrows} rows, expected e = {e}"
        )
    xcols = _greedy_columns(gamma, h) or _closed_form_columns(gamma, h)
    return symmetrize(stabilizer, zip(xcols, h.rows))
