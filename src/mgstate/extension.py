"""Minimal pure parent graph states for a mixed graph.

A parent is a symmetric graph-form stabilizer on n + e qubits whose first n
qubits carry the child.  Construction runs in two stages: choose extension
column tags for the lab rows (exact 3-colouring for e = 1, parity-check
driven assignment for general e), append the forced environment rows, then
reduce the commuting set to graph form by row multiplications and
environment-column conjugations only.

For general e the tags solve the paper's extension condition
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
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .f2 import BinMatrix, bits_of, kernel, mask_of, rank, span
from .graphs import MixedGraph, complete_multipartite_parts, mixed_rank, stabilizer_matrix
from .pauli import _LETTER_ADJUST, _LETTER_XZ, _XZ_LETTER, PauliWord
from .subgroups import IsotropicSubspace


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
    actual stabilizer carries a -1 sign, i.e. binary linear terms of the
    parent phase function; ``env_offsets`` are the same for environment rows
    (these never change the child).  ``ext_assign`` records the extension
    column tags before symmetrization, one tuple of length n per column.
    """

    n: int
    e: int
    ae: BinMatrix
    lab_offsets: FrozenSet[int] = frozenset()
    env_offsets: FrozenSet[int] = frozenset()
    ext_assign: Optional[Tuple[Tuple[str, ...], ...]] = None
    conjugations: Tuple[Tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        total = self.n + self.e
        if self.ae.cols != total or self.ae.nrows != total:
            raise ValueError("adjacency size must be n + e")
        if not self.ae.is_symmetric():
            raise ValueError("parent adjacency must be symmetric")

    @property
    def total(self) -> int:
        return self.n + self.e

    def red_nodes(self) -> Tuple[int, ...]:
        return tuple(j for j in range(self.total) if self.ae.get(j, j))

    def quadratic_pairs(self) -> Tuple[Tuple[int, int], ...]:
        out = []
        for j in range(self.total):
            for k in range(j + 1, self.total):
                if self.ae.get(j, k):
                    out.append((j, k))
        return tuple(out)

    def binary_offsets(self) -> Tuple[int, ...]:
        return tuple(sorted(self.lab_offsets | self.env_offsets))

    def row(self, j: int) -> PauliWord:
        sign = 2 if (j in self.lab_offsets or j in self.env_offsets) else 0
        return PauliWord(self.total, 1 << j, self.ae.rows[j], self.ae.get(j, j) + sign)

    def rows(self) -> List[PauliWord]:
        return [self.row(j) for j in range(self.total)]

    def env_indices(self) -> Tuple[int, ...]:
        return tuple(range(self.n, self.total))

    def l_set(self, m: int) -> Tuple[int, ...]:
        col = self.n + m
        return tuple(j for j in range(self.n) if self.ae.get(j, col))

    def with_extra_lab_offsets(self, extra: Sequence[int]) -> "ParentExtension":
        return ParentExtension(
            self.n,
            self.e,
            self.ae,
            frozenset(set(self.lab_offsets) ^ set(extra)),
            self.env_offsets,
            self.ext_assign,
            self.conjugations,
        )


def indicator(p: ParentExtension) -> Tuple[List[Tuple[int, ...]], BinMatrix, BinMatrix]:
    """(L sets, generator matrix G of J, parity matrix H) for a parent.

    H row m is the characteristic vector of L_m; J = ker(H) has exactly
    2^{n-e} members for a minimal extension.
    """
    l_sets = [p.l_set(m) for m in range(p.e)]
    h = BinMatrix(tuple(mask_of(L) for L in l_sets), p.n)
    if rank(h) != p.e:
        raise ExtensionError("parity matrix is rank deficient; extension not minimal")
    g = kernel(h)
    return l_sets, g, h


def j_members(p: ParentExtension) -> List[int]:
    """All members of J, ascending, as lab index bitsets."""
    _, g, _ = indicator(p)
    return span(g.rows, p.n)


def symmetrize(rows: Sequence[PauliWord], n: int, e: int) -> ParentExtension:
    """Reduce a fully commuting extension to symmetric graph form.

    Only row multiplications and single-qubit conjugations on environment
    columns are used, so the child density matrix is untouched.  Lab rows
    must carry X or Y at their own lab position and I/Z elsewhere on the lab
    block.
    """
    total = n + e
    work = list(rows)
    if len(work) != total:
        raise ExtensionError(f"need {total} rows, got {len(work)}")
    if not verify_full_commutation(work):
        raise ExtensionError("rows do not pairwise commute")
    lab_mask = (1 << n) - 1
    for j in range(n):
        if (work[j].x & lab_mask) != (1 << j):
            raise ExtensionError(f"lab row {j} does not have X/Y exactly at position {j}")
    conjs: List[Tuple[int, str]] = []

    def conjugate_all(col: int, tag: str) -> None:
        for i in range(total):
            work[i] = work[i].conjugate_single(col, tag)
        conjs.append((col, tag))

    # environment rows: clear lab x-bits by multiplying with lab rows
    for m in range(n, total):
        for j in range(n):
            if (work[m].x >> j) & 1:
                work[m] = work[j].mul(work[m])

    # make the env-x block of the env rows invertible, conjugating a column
    # by H whenever a dependent (pure-Z) combination blocks progress
    for _ in range(4 * max(e, 1)):
        env_block = BinMatrix(
            tuple((work[m].x >> n) for m in range(n, total)), e
        )
        if rank(env_block) == e:
            break
        ker = kernel(env_block.transpose())
        combo = ker.rows[0]
        word = PauliWord.identity(total)
        for m in bits_of(combo):
            word = word.mul(work[n + m])
        assert word.x == 0, "combination must be a pure-Z word"
        env_z = word.z >> n
        assert env_z, "a stabilizer cannot be Z-only on the lab block"
        conjugate_all(n + bits_of(env_z)[0], "H")
    else:
        raise ExtensionError("could not normalize environment block")

    # row-reduce env rows to X exactly at their own environment position
    for m in range(e):
        col = n + m
        pivot = next(
            i for i in range(m, e) if (work[n + i].x >> col) & 1
        )
        work[n + m], work[n + pivot] = work[n + pivot], work[n + m]
        for i in range(e):
            if i != m and ((work[n + i].x >> col) & 1):
                work[n + i] = work[n + m].mul(work[n + i])

    # lab rows: clear environment x-bits
    for j in range(n):
        for m in range(e):
            if (work[j].x >> (n + m)) & 1:
                work[j] = work[n + m].mul(work[j])

    # environment diagonal: conjugate Y down to X (HN fixes I/Z off-diagonal)
    for m in range(e):
        col = n + m
        if (work[n + m].z >> col) & 1:
            conjugate_all(col, "HN")

    for i in range(total):
        if work[i].x != (1 << i):
            raise ExtensionError("graph-form reduction failed on x block")

    ae = BinMatrix(tuple(w.z for w in work), total)
    if not ae.is_symmetric():
        raise ExtensionError("graph-form adjacency is not symmetric")

    lab_off = set()
    env_off = set()
    for i, w in enumerate(work):
        diag = ae.get(i, i)
        delta = (w.phase - diag) % 4
        assert delta in (0, 2), "graph-form rows must be +-Hermitian"
        if delta == 2:
            (lab_off if i < n else env_off).add(i)
    return ParentExtension(
        n, e, ae, frozenset(lab_off), frozenset(env_off), None, tuple(conjs)
    )


def _extended_rows(
    stabilizer: Sequence[PauliWord], columns: Sequence[Sequence[str]]
) -> List[PauliWord]:
    """Lab rows (the graph's stabilizer rows) with extension tags plus the
    forced environment rows.

    Environment row m is Z over L_m with X at its own position: the unique
    choice (up to sign and products) with I/Z on the lab block.
    """
    n = len(stabilizer)
    e = len(columns)
    total = n + e
    rows = []
    for j, base in enumerate(stabilizer):
        x, z, ph = base.x, base.z, base.phase
        for m, col in enumerate(columns):
            xb, zb = _LETTER_XZ[col[j]]
            x |= xb << (n + m)
            z |= zb << (n + m)
            ph += _LETTER_ADJUST[col[j]]
        rows.append(PauliWord(total, x, z, ph))
    for m, col in enumerate(columns):
        lmask = mask_of(j for j in range(n) if _LETTER_XZ[col[j]][1])
        rows.append(PauliWord(total, 1 << (n + m), lmask, 0))
    return rows


def extend_e1(g: MixedGraph) -> List[ParentExtension]:
    """All single-column extensions: one per assignment of distinct tags
    from {X, Z, Y} to the multipartite parts of the skeleton."""
    e, _ = mixed_rank(g)
    if e != 1:
        raise ExtensionError(f"extend_e1 requires mixed rank 1, got {e}")
    parts_iso = complete_multipartite_parts(g.gamma())
    assert parts_iso is not None, "mixed rank 1 forces a complete multipartite skeleton"
    parts, _ = parts_iso
    stabilizer = stabilizer_matrix(g)
    out = []
    for perm in itertools.permutations(("X", "Z", "Y"), len(parts)):
        col = ["I"] * g.n
        for part, tag in zip(parts, perm):
            for v in part:
                col[v] = tag
        parent = symmetrize(_extended_rows(stabilizer, [col]), g.n, 1)
        out.append(_with_assign(parent, (tuple(col),)))
    return out


def _with_assign(p: ParentExtension, assign: Tuple[Tuple[str, ...], ...]) -> ParentExtension:
    return ParentExtension(
        p.n, p.e, p.ae, p.lab_offsets, p.env_offsets, assign, p.conjugations
    )


def parity_basis(m: IsotropicSubspace) -> BinMatrix:
    """Canonical (RREF) parity-check matrix whose kernel is the lifted span."""
    gen = BinMatrix(m.lifted_basis, m.reduction.n)
    return kernel(gen)


def _greedy_columns(gamma: BinMatrix, h: BinMatrix) -> Optional[List[List[int]]]:
    """Column-by-column tag assignment mirroring the worked constructions.

    Within column m the lowest member of L_m takes Z and the others take Z/Y
    to fix their mutual commutation; rows outside L_m take X only when that
    clears their anticommutation with all of L_m.  Returns the x-bit columns
    or None when a column's internal constraints are inconsistent.
    """
    n = gamma.cols
    cur = list(gamma.rows)
    xcols: List[List[int]] = []
    for m in range(h.nrows):
        lset = bits_of(h.rows[m])
        if not lset:
            return None
        anchor = lset[0]
        xcol = [0] * n
        for j in lset[1:]:
            xcol[j] = (cur[anchor] >> j) & 1
        for a, b in itertools.combinations(lset, 2):
            if (xcol[a] ^ xcol[b]) != ((cur[a] >> b) & 1):
                return None
        for j in range(n):
            if j in lset:
                continue
            bits = [(cur[j] >> k) & 1 for k in lset]
            xcol[j] = bits[0] if all(b == bits[0] for b in bits) else 0
        zrow = h.rows[m]
        xmask = mask_of(j for j in range(n) if xcol[j])
        nxt = []
        for j in range(n):
            row = cur[j]
            # anti'(j,k) = anti(j,k) ^ x_j z_k ^ z_j x_k
            upd = row
            if xcol[j]:
                upd ^= zrow
            if (zrow >> j) & 1:
                upd ^= xmask
            upd &= ~(1 << j)
            nxt.append(upd)
        cur = nxt
        xcols.append(xcol)
    if any(cur):
        return None
    return xcols


def _closed_form_columns(gamma: BinMatrix, h: BinMatrix) -> List[List[int]]:
    """The x-bits that an F2 solve of X H + (X H)^T = Gamma returns.

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
    return [[(x >> (j * e + m)) & 1 for j in range(n)] for m in range(e)]


def meets_extension_condition(gamma: BinMatrix, columns: Sequence[Sequence[str]]) -> bool:
    """X H + (X H)^T = Gamma for extension columns given as letters: X holds
    their X/Y positions and H their Z/Y positions."""
    n = gamma.cols
    form = [0] * n
    for col in columns:
        x = mask_of(j for j in range(n) if _LETTER_XZ[col[j]][0])
        z = mask_of(j for j in range(n) if _LETTER_XZ[col[j]][1])
        for j in range(n):  # row j of X H, then of (X H)^T
            if (x >> j) & 1:
                form[j] ^= z
            if (z >> j) & 1:
                form[j] ^= x
    return tuple(form) == gamma.rows


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
    8) of the 15 ``appendix_a`` subgroups.

    Raises ``ExtensionError`` when the extended rows do not commute (checked
    by ``symmetrize``) or the parent's J is not the requested subgroup.
    """
    gamma = m_sub.reduction.gamma
    if gamma != g.gamma():
        raise ExtensionError("subgroup does not come from the graph's Gamma")
    e = m_sub.reduction.e
    h = parity_basis(m_sub)
    if h.nrows != e:
        raise ExtensionError(
            f"subgroup parity matrix has {h.nrows} rows, expected e = {e}"
        )
    if e == 0:
        parent = symmetrize(stabilizer, g.n, 0)
        return _with_assign(parent, ())

    xcols = _greedy_columns(gamma, h) or _closed_form_columns(gamma, h)
    assignment = [
        [_XZ_LETTER[(xcols[m][j], h.get(m, j))] for j in range(g.n)] for m in range(e)
    ]
    parent = symmetrize(_extended_rows(stabilizer, assignment), g.n, e)
    # both are RREF bases over F2^n, so they are equal iff their spans are
    if indicator(parent)[1].rows != m_sub.lifted_basis:
        raise ExtensionError("indicator subgroup does not match the requested subgroup")
    return _with_assign(parent, tuple(tuple(col) for col in assignment))
