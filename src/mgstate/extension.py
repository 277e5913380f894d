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

Parents are built in batches.  A ``ParentBatch`` holds the parents of k
subgroups of one graph, row i parent i, as arrays of bit masks: ``ae`` (k,
n + e), the adjacency rows, lab rows first; ``offsets`` (k,), the rows with
a -1 sign; ``xcols`` (k, e), the X/Y masks of the extension columns, whose
Z/Y masks are the environment rows.  Every stage is a few array operations
over the batch: H by one batched elimination of the kernel of the lifted
bases, the greedy columns by e steps of mask operations with one failure
flag per subgroup, the closed form for the flagged subgroups only, then
``symmetrize``; so are the three checks of a parent
(``meets_extension_condition``, ``ParentBatch.is_symmetric`` and
``ParentBatch.has_kernel``), one verdict per parent, which a caller reads in
subgroup order, so a failed parent keeps its (subgroup, check) place.  An
``ExtensionError`` fails a whole batch: its causes hold for every subgroup
of it.  A caller builds ``PARENT_BATCH`` subgroups at a time, which bounds
what a batch holds whatever chi(e) is.  A mask is an int64 while its width
fits 62 bits, and a Python int in an object array past that, so a wide
graph stays exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .f2 import (
    BinMatrix,
    bit_table,
    kernel_batch,
    mask_dtype,
    mask_of,
    rref_batch,
    unit_masks,
)
from .graphs import MixedGraph, complete_multipartite_parts, stabilizer_matrix
from .pauli import PauliWord
from .subgroups import SubgroupBatch

PARENT_BATCH = 1 << 12  # subgroups per batch of parents: 19 batches for chi(5) = 75,735


class ExtensionError(RuntimeError):
    """Raised when inputs violate an extension precondition."""


def verify_full_commutation(rows: Sequence[PauliWord]) -> bool:
    return all(
        rows[i].commutes(rows[j]) for i in range(len(rows)) for j in range(i + 1, len(rows))
    )


@dataclass(frozen=True, eq=False)
class ParentBatch:
    """The parents of a batch of subgroups of one graph, row i parent i, as
    masks: ``ae`` (k, n + e), its adjacency rows, lab rows first, the
    diagonal bit 1 = red; ``offsets`` (k,), its rows with a -1 sign, bit j
    for row j, the o of ``phases``: bits below n are lab rows, the others
    environment rows, which never change the child and which ``symmetrize``
    never sets; ``xcols`` (k, e), the X/Y masks of its extension columns,
    whose Z/Y masks are its environment rows.  A slice is a batch of its
    parents.  The batch is the only parent type: there is no item i, so a
    reader takes row i of each array."""

    n: int
    e: int
    ae: np.ndarray
    offsets: np.ndarray
    xcols: np.ndarray

    def __len__(self) -> int:
        return len(self.ae)

    def __getitem__(self, part: slice) -> ParentBatch:
        if not isinstance(part, slice):
            raise TypeError(f"a parent batch takes slices, not {type(part).__name__}")
        return ParentBatch(self.n, self.e, self.ae[part], self.offsets[part], self.xcols[part])

    def parity_rows(self) -> np.ndarray:
        """H of each parent, (k, e): the environment rows on the lab bits,
        row m = L_m."""
        return self.ae[:, self.n:] & ((1 << self.n) - 1)

    def is_symmetric(self) -> np.ndarray:
        """Parent by parent, whether ``ae`` is symmetric, so that its
        graph-form rows X_j Z^{A_j} commute."""
        a = bit_table(self.ae, self.n + self.e)
        return (a == a.transpose(0, 2, 1)).all(axis=(1, 2))

    def has_kernel(self, lifted: np.ndarray) -> np.ndarray:
        """Parent by parent, whether J = ker H is the span of its row of
        ``lifted`` (k, n - e), n - e independent masks, such as a
        ``SubgroupBatch``'s: H J^T = 0 and rank H = e."""
        h = self.parity_rows()
        j = np.asarray(lifted, dtype=h.dtype).reshape(len(self), -1)
        product = bit_table(h, self.n).astype(np.int64) @ bit_table(j, self.n).transpose(0, 2, 1)
        return ~(product & 1).any(axis=(1, 2)) & (rref_batch(h, self.n)[1] == self.e)


def phases(parents: ParentBatch, x: np.ndarray) -> np.ndarray:
    """p(x) = x A x^T + 2 o.x mod 4 of each parent of a batch at each row of
    the 0/1 array ``x``, whose column j is qubit j: entry [i, r] is parent i
    at row r.  ``x`` is one (rows, k) block for all parents or one block per
    parent, (parents, rows, k).  Each red node in x counts once, each edge
    inside x twice.  A row of k < n + e columns sets no later qubit."""
    k = x.shape[-1]
    rows = np.concatenate([parents.ae[:, :k], parents.offsets[:, None]], axis=1)
    a = bit_table(rows, k).astype(np.int64)
    quadratic = (np.matmul(x, a[:, :k]) * x).sum(axis=-1)
    return (quadratic + 2 * np.matmul(x, a[:, k, :, None])[..., 0]) & 3


def indicator(parents: ParentBatch) -> np.ndarray:
    """The generator matrix G of J = ker H for each parent of a batch, (k, n
    - e): row i holds parent i's n - e RREF rows of G, as masks.

    H row m, ``parity_rows()``, is the characteristic vector of L_m; J has
    exactly 2^{n-e} members for a minimal extension.  Every G comes from one
    batched elimination of the H rows and one of their kernels.
    """
    n, h = parents.n, parents.parity_rows()
    reduced, rank = rref_batch(h, n)
    if (rank != parents.e).any():  # rank(H) = n - dim ker(H)
        raise ExtensionError("parity matrix is rank deficient; extension not minimal")
    return kernel_batch(reduced, n)


def symmetrize(stabilizer: Sequence[PauliWord], columns) -> ParentBatch:
    """Graph forms of the lab rows ``stabilizer`` extended by each column set
    of a batch: ``columns`` (k, e, 2) holds parent i's column m as an (x, z)
    pair of lab bit masks.

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
    ``ae`` is symmetric.  Each column is one array pass over the batch.
    """
    n = len(stabilizer)
    for j, base in enumerate(stabilizer):
        if base.x != 1 << j:
            raise ExtensionError(f"lab row {j} does not have X/Y exactly at position {j}")
    cols = np.asarray(columns).reshape(len(columns), -1, 2)
    e = cols.shape[1]
    word = mask_dtype(n + e)
    x, z = cols[..., 0].astype(word), cols[..., 1].astype(word)
    x_at, z_at = bit_table(x, n), bit_table(z, n)
    env = unit_masks(n + e)
    lab = np.repeat(np.array([[base.z for base in stabilizer]], dtype=word), len(cols), axis=0)
    for m in range(e):
        lab ^= np.where(x_at[:, m], z[:, m, None], 0)
        lab |= np.where(z_at[:, m], env[n + m, None], 0)
    phase = np.array([base.phase for base in stabilizer]) + 3 * (x_at & z_at).sum(axis=1)
    delta = (phase - ((lab >> np.arange(n)) & 1).astype(np.int64)) & 3
    assert not (delta & 1).any(), "graph-form rows must be +-Hermitian"
    offsets = ((delta == 2) * env[:n]).sum(axis=1)
    return ParentBatch(n, e, np.concatenate([lab, z], axis=1), offsets, x)


def extend_e1(g: MixedGraph) -> ParentBatch:
    """All single-column extensions: one per assignment of distinct tags from
    {X, Z, Y} to the skeleton's multipartite parts, present iff e = 1."""
    parts_iso = complete_multipartite_parts(g.gamma())
    if parts_iso is None:
        raise ExtensionError("extend_e1 requires mixed rank 1")
    parts, _ = parts_iso
    masks = [mask_of(part) for part in parts]
    columns = [
        [(sum(pm * xb for pm, (xb, _) in zip(masks, perm)),
          sum(pm * zb for pm, (_, zb) in zip(masks, perm)))]
        for perm in itertools.permutations(((1, 0), (0, 1), (1, 1)), len(parts))
    ]
    return symmetrize(stabilizer_matrix(g), columns)


def _greedy_columns(gamma: np.ndarray, h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Column-by-column tag assignment mirroring the worked constructions,
    for each parity matrix ``h`` (k, e) of a batch in RREF, against the
    Gamma rows ``gamma``.

    ``cur`` is the anticommutation still to clear, row j a mask; it starts
    as Gamma and stays alternating (symmetric, zero diagonal).  Within
    column m the lowest member of L_m takes Z and the others take Z/Y to fix
    their mutual commutation; rows outside L_m take X only when that clears
    their anticommutation with all of L_m, which a member of L_m never does.
    Returns the x masks of the columns, (k, e), and whether each subgroup's
    columns hold: a column's internal constraints can be inconsistent, and
    then its x masks mean nothing.
    """
    k, e = h.shape
    n = len(gamma)
    batch, units = np.arange(k), unit_masks(n)
    h_at = bit_table(h, n)
    lowest = h_at.argmax(axis=2)
    cur = np.repeat(gamma[None], k, axis=0)
    ok = (h != 0).all(axis=1)
    xcols = np.zeros_like(h)
    for m in range(e):
        lmask, in_l = h[:, m, None], h_at[:, m]
        x = cur[batch, lowest[:, m], None] & lmask
        # x_a ^ x_b = anti(a, b) for every pair a, b in L_m
        clash = (cur ^ x ^ np.where(bit_table(x[:, 0], n), lmask, 0)) & lmask
        ok &= ~((clash != 0) & in_l).any(axis=1)
        x = x | (((cur & lmask) == lmask) * units).sum(axis=1, keepdims=True)
        # anti'(j, k) = anti(j, k) ^ x_j z_k ^ z_j x_k
        cur = cur ^ np.where(bit_table(x[:, 0], n), lmask, 0) ^ np.where(in_l, x, 0)
        xcols[:, m] = x[:, 0]
    return xcols, ok & (cur == 0).all(axis=1)


def _closed_form_columns(gamma: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The x masks (k, e) of the columns that an F2 solve of
    X H + (X H)^T = Gamma returns, for each parity matrix ``h`` (k, e) of a
    batch in RREF, against the Gamma rows ``gamma``.

    With p_m the pivot (lowest set bit) of H row m, column m is
    Gamma[:, p_m] + sum_{k<m} Gamma[p_k, p_m] H[k, :]^T.  Every solution
    differs from it by H^T S for a symmetric S.  Variable j*e + m is
    X[j, m]; reducing X against the basis of {H^T S} RREF'd from the
    highest variable down zeroes the free variables of the system, so the
    result is the solution with all free variables zero, as ``f2.solve``
    picks it.  Variable v is bit ne - 1 - v of a mask here, so the highest
    variable of a vector is its lowest set bit, v & -v, and each of the
    e(e + 1)/2 reduction steps is an array pass over the batch.
    """
    k, e = h.shape
    n = len(gamma)
    width = n * e
    place = np.array([1 << (width - 1 - v) for v in range(width)], dtype=mask_dtype(width)).reshape(n, e)
    h_at = bit_table(h, n)
    pivots = h_at.argmax(axis=2)
    gamma_at = bit_table(gamma, n)
    cols = gamma[pivots]
    for m in range(e):
        for q in range(m):
            cols[:, m] ^= np.where(gamma_at[pivots[:, q], pivots[:, m]], h[:, q], 0)

    # S = E_ab + E_ba puts H row b in column a and H row a in column b
    basis: List[Tuple[np.ndarray, np.ndarray]] = []  # (lowest bit, vector), fully reduced
    for a, b in itertools.combinations_with_replacement(range(e), 2):
        v = (h_at[:, b] * place[:, a]).sum(axis=1)
        if a != b:
            v = v | (h_at[:, a] * place[:, b]).sum(axis=1)
        for low, w in basis:
            v = np.where((v & low) != 0, v ^ w, v)
        low = v & -v
        basis = [(t, np.where((w & low) != 0, w ^ v, w)) for t, w in basis]
        basis.append((low, v))
    x = (bit_table(cols, n) * place.T).sum(axis=(1, 2))
    for low, w in basis:
        x = np.where((x & low) != 0, x ^ w, x)
    solved = bit_table(x, width)[:, ::-1].reshape(k, n, e)  # [i, j, m] = X[j, m]
    return (solved.transpose(0, 2, 1) * unit_masks(n)).sum(axis=2).astype(h.dtype)


def meets_extension_condition(gamma: BinMatrix, parents: ParentBatch) -> np.ndarray:
    """Parent by parent, X H + (X H)^T = Gamma for its extension columns: X
    holds their X/Y positions and H their Z/Y positions, the environment
    rows."""
    n = gamma.cols
    x, z = parents.xcols, parents.ae[:, n:]
    x_at, z_at = bit_table(x, n), bit_table(z, n)
    form = np.zeros((len(x), n), dtype=x.dtype)
    for m in range(parents.e):  # the rows of X H, then of (X H)^T
        form ^= np.where(x_at[:, m], z[:, m, None], 0) ^ np.where(z_at[:, m], x[:, m, None], 0)
    return (form == np.array(gamma.rows, dtype=x.dtype)).all(axis=1)


def extend_for_subgroup(
    g: MixedGraph, subs: SubgroupBatch, stabilizer: Sequence[PauliWord]
) -> ParentBatch:
    """Parents whose child commutative subgroups equal the requested ones,
    one per subgroup of the batch ``subs``.

    ``stabilizer`` is ``stabilizer_matrix(g)``, and e and Gamma come from
    the subgroups' reduction, which must be that of g's Gamma, tested once
    per call.  H is read off the batch's ``lifted`` rows, with no tuple per
    subgroup.

    The Z/Y support of extension column m is forced to the m-th row of the
    subgroup's parity-check matrix H, the RREF kernel of its lifted basis,
    and the X/I pattern solves X H + (X H)^T = Gamma.  A solution always
    exists, and ``_closed_form_columns`` writes it down: the homogeneous
    solutions are {H^T S : S symmetric}, so the reachable forms have
    dimension ne - e(e+1)/2 = C(n,2) - C(n-e,2), that of all alternating
    forms vanishing on J x J for J = ker H, and Gamma is one of them.

    The greedy pass runs first because it fixes the reported ``ext_columns``
    wherever it succeeds, and the closed form runs on the subgroups it
    flags.  Its S follows the data: zeroing X at the H pivots at or above
    (or at or below) each column gives its columns on only 6 (or 8) of the
    15 ``appendix_a`` subgroups, and the closed form matches it on 510 of
    the 4,979 subgroups where greedy succeeds in a sweep of 42,030 (3,463
    before the canonical shift), so no one rule replaces it.

    ``symmetrize`` writes H as the parents' parity matrices, so each J is
    its subgroup by construction: ``ParentBatch.has_kernel`` is the one check
    of that.  Raises ``ExtensionError`` when a subgroup comes from another
    Gamma or has the wrong dimension.
    """
    red = subs.reduction
    if not g.has_gamma(red.gamma):
        raise ExtensionError("subgroup does not come from the graph's Gamma")
    n, e = red.n, red.e
    dims = subs.dims()
    if (dims != n - e).any():
        raise ExtensionError(
            f"subgroup parity matrix has {n - dims[dims != n - e][0]} rows, expected e = {e}"
        )
    word = mask_dtype(n + e)
    h = kernel_batch(subs.lifted[:, :n - e].astype(word), n)
    gamma = np.array(red.gamma.rows, dtype=word)
    xcols, greedy = _greedy_columns(gamma, h)
    if not greedy.all():
        xcols[~greedy] = _closed_form_columns(gamma, h[~greedy])
    return symmetrize(stabilizer, np.stack([xcols, h], axis=-1))
