"""Exact child density matrices of parent graph states.

A parent on n + e qubits is the graph state 2^{-(n+e)/2} i^{p(x)} with
p(x) = x A x^T + 2 o.x mod 4, A its symmetric adjacency (diagonal bit 1 =
red) and o its offset rows (``extension.phases``).  Its child arises
twice over, by the dual-group Pauli sum with sign coefficients and by the
partial trace of the environment, which for a graph state is the closed form
rho(a, b) = 2^{-n} i^{p_L(a) - p_L(b)} [H a = H b] over lab basis states a, b,
p_L the lab phase and H the parity matrix (Hein, Eisert & Briegel,
quant-ph/0307130); the two must agree entry for entry.  All arithmetic is
exact: Gaussian integers over a power-of-two denominator.

A child is stored in the XOR-offset layout over qubit masks, as J is: D,
the sorted offsets d = a ^ b where rho[a, b] can be nonzero, and V[d, c] =
rho[c ^ d, c].  Both routes give D = J, so a child holds 2^(2n-e) entries,
and each check is an exact identity on D and V: w = i^k X^x Z^z conjugates
V[d, c] to (-1)^{z.d} V[d, c ^ x], keeping D; the Hermitian partner of (d,
c) is (d, c ^ d).

Children are built and checked a chunk at a time.  A chunk holds k children
that share n and |D| = 2^(n-e): offsets (k, |D|) and numerators (k, 2, |D|,
2^n).  Each route and each check is one array pass over a chunk and gives
one array, or one verdict, per child.  ``chunk_len`` sizes a chunk to
``CHUNK_ENTRIES`` layout entries, at least one child, so that what is
resident stays bounded whatever chi(e) is; a single child is a chunk of
one.  Only a report renders rho dense, one child at a time, and only it
puts qubit 0 first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .extension import Indicator, ParentBatch, ParentExtension, indicator, phases
from .f2 import BinMatrix, mask_of, solve, span_of_basis
from .pauli import (
    DimensionError,
    GaussianMatrix,
    PauliWord,
    RationalMatrix,
    _parity_array,
    check_dense,
    i_power,
    word_rows,
)

CHUNK_ENTRIES = 1 << 14  # layout entries per chunk: 8 children at (n, e) = (7, 3), 32 at (6, 3)


def chunk_len(n: int, e: int) -> int:
    """Children per chunk: as many layouts of 2^(2n - e) entries as
    ``CHUNK_ENTRIES`` holds, and at least one."""
    return max(1, CHUNK_ENTRIES >> (2 * n - e))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A chunk of k exact density matrices on n lab qubits in the XOR-offset
    layout over qubit masks: child i has rho_i[c ^ offsets[i, k], c] =
    (num[i, 0] + i num[i, 1])[k, c] / 2^denom_log2, zero off its ascending
    row ``offsets[i]``.  Both routes write unit numerators over 2^n, lowest
    terms as built, so equality compares the fields exactly.  Each check
    gives one verdict per child, and a slice is a chunk of its children."""

    n: int
    offsets: np.ndarray
    num: np.ndarray
    denom_log2: int

    def __post_init__(self) -> None:
        offsets, num = np.asarray(self.offsets, np.int64), np.asarray(self.num)
        # int8 holds the routes' unit numerators; without -128 it negates exactly
        if num.dtype != np.int8 or num.min(initial=0) == -128:
            num = num.astype(np.int64)
        if offsets.ndim != 2 or num.shape != (len(offsets), 2, offsets.shape[1], self.dim):
            raise ValueError("one row of 2^n numerator pairs per offset required")
        outside = offsets.size > 0 and (offsets[:, 0].min() < 0 or offsets[:, -1].max() >= self.dim)
        if outside or (offsets[:, 1:] <= offsets[:, :-1]).any():
            raise ValueError("offsets must be distinct, ascending and below 2^n")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "num", num)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def __len__(self) -> int:
        return len(self.offsets)

    def __getitem__(self, part: slice) -> DensityMatrix:
        return DensityMatrix(self.n, self.offsets[part], self.num[part], self.denom_log2)

    @cached_property
    def mat(self) -> GaussianMatrix:
        """The dense matrix of a chunk of one, built on first use: only a
        report renders it."""
        if len(self) != 1:
            raise ValueError("only a chunk of one child renders dense")
        return GaussianMatrix.from_offsets(self.offsets[0], self.num[0], self.denom_log2)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return (self.n, self.denom_log2) == (other.n, other.denom_log2) and np.array_equal(
            self.offsets, other.offsets) and np.array_equal(self.num, other.num)

    def agrees_with(self, other: DensityMatrix) -> np.ndarray:
        """Child by child, equality with the child at the same place in
        ``other``: the same n, denominator, D and V."""
        shape = (self.n, self.denom_log2, self.offsets.shape)
        if shape != (other.n, other.denom_log2, other.offsets.shape):
            return np.zeros(len(self), dtype=bool)
        same_d = (self.offsets == other.offsets).all(axis=1)
        return same_d & (self.num == other.num).all(axis=(1, 2, 3))

    def trace_is_one(self) -> np.ndarray:
        """Child by child: the diagonal is the offset-0 row."""
        if not self.offsets.shape[1]:
            return np.zeros(len(self), dtype=bool)
        trace = self.num[:, :, 0].sum(axis=-1)
        has_diagonal = self.offsets[:, 0] == 0
        return has_diagonal & (trace[:, 0] == 1 << self.denom_log2) & (trace[:, 1] == 0)

    def is_hermitian(self) -> np.ndarray:
        """Child by child: rho[c ^ d, c] = conj rho[c, c ^ d], the layout's
        entry (d, c ^ d), gathered by one flat take per real and imaginary
        plane."""
        k, _, size, dim = self.num.shape
        starts = np.arange(k * size).reshape(k, size, 1) * dim  # of each row in a flat plane
        pair = starts + (self.offsets[..., None] ^ np.arange(dim))
        re, im = self.num[:, 0], self.num[:, 1]
        return ((re.take(pair) == re) & (im.take(pair) == -im)).all(axis=(1, 2))

    def is_pure(self) -> bool:
        """rho^2 = rho for a chunk of one, on the dense matrix."""
        return self.mat.matmul(self.mat) == self.mat

    def purity(self) -> List[Fraction]:
        """Child by child, the exact tr(rho rho^dag) = sum_ab |rho_ab|^2,
        which is tr rho^2 for a Hermitian rho: the squares summed over the
        layout, the only entries that can be nonzero.

        A child with e environment qubits is 2^{-n} times the sum of an
        abelian signed group S of order 2^{n-e} without -I, so rho^2 =
        2^{-e} rho and tr rho^2 = 2^{-e}.  With tr rho = 1 that is stronger
        than ``not is_pure()``: purity 2^{-e} < 1 rules out rho^2 = rho, while
        I/2^n is not pure either yet has purity 2^{-n}.
        """
        num = self.num.astype(np.int64)
        top = max(abs(int(num.max())), abs(int(num.min()))) if num.size else 0
        if num[:1].size * top * top >= 1 << 63:  # int64 could overflow: use Python ints
            num = num.astype(object)
        denom = 1 << (2 * self.denom_log2)
        return [Fraction(int(total), denom) for total in (num * num).sum(axis=(1, 2, 3))]

    def to_json_dict(self) -> Dict:
        return {"n": self.n, **self.mat.to_json_dict()}


@dataclass(frozen=True, eq=False)
class ChildResult:
    """The children of a chunk of parents: the parents, their indicators,
    the chunk's density matrices and b[i, k], the i-exponent of b_j for
    child i's J member j = ``rho.offsets[i, k]``.  A slice is a chunk of its
    children, and iterating gives each child as a chunk of one."""

    parents: Sequence[ParentExtension]
    indicators: Tuple[Indicator, ...]
    rho: DensityMatrix
    b: np.ndarray

    def __len__(self) -> int:
        return len(self.parents)

    def __getitem__(self, part: slice) -> ChildResult:
        return ChildResult(self.parents[part], self.indicators[part], self.rho[part], self.b[part])

    def __iter__(self) -> Iterator[ChildResult]:
        return (self[i:i + 1] for i in range(len(self)))

    def terms(self, i: int) -> Dict[int, int]:
        """Child i's J members j, ascending, each to the i-exponent of b_j."""
        return dict(zip(self.rho.offsets[i].tolist(), self.b[i].tolist()))


def _pauli_terms(
    parents: Sequence[ParentExtension], duals: Sequence[PauliWord], bases: Sequence[Sequence[int]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For parent i and the members j of J_i = span(``bases[i]``), ascending,
    at [i, k]: x(s_j) = j and z(s_j), both qubit masks, phase(s_j) and the
    i-exponent of b_j.

    Dual row h is i^{ph_h} X_h Z^{z_h}, so x(s_j) = j and z(s_j) is the XOR
    of the z_h over h in j.  Multiplying the rows lowest h first adds 2 z(s_j
    so far)[h] at each h, so phase(s_j) = sum_{h in j} ph_h + 2 sum_{a < h in
    j} z_a[h]: a quadratic form in the bits of j, one matrix product for all
    members of the chunk.  A member sets no environment bit, so the parent's
    phase at j is p_lab(j).  Row 0 of s_j has its one entry at column x,
    i^(phase + 2 parity(x & z)), and b_j times it is i^{-p_lab(j)}.
    """
    if len(set(map(len, bases))) > 1:
        raise ValueError("the children of a chunk must share |D|")
    qubits = np.arange(parents[0].n)
    x = np.array([span_of_basis(basis) for basis in bases], dtype=np.int64).reshape(len(bases), -1)
    bits = (x[..., None] >> qubits) & 1
    zrows = (np.array([w.z for w in duals], dtype=np.int64)[:, None] >> qubits) & 1
    z = (bits @ zrows) & 1
    upper = zrows * (qubits[:, None] < qubits)  # z_a[h] for a < h
    phase = (bits @ [w.phase for w in duals] + 2 * ((bits @ upper) * bits).sum(-1)) & 3
    b = (-phases(parents, bits) - phase - 2 * (bits * z).sum(-1)) & 3
    return x, z @ (1 << qubits), phase, b


def child_from_pauli_sum(
    parents: Sequence[ParentExtension], duals: Sequence[PauliWord], inds: Sequence[Indicator]
) -> ChildResult:
    """rho = 2^{-n} sum_{j in J} b_j s_j for each parent of a chunk, with
    commutation asserted.

    ``inds`` are the caller's ``indicator(p)``, which the children keep.
    Each G is in RREF, so J = span(G) is listed with no further elimination.
    J is closed by construction, and the x/z parts of s_j are linear in j, so
    the s_j commute pairwise iff the n - e generator words do, phases aside:
    one symplectic product of their bit rows for the whole chunk.  Since
    x(s_j) = j, each term is the layout's row at offset j.  The terms keep
    the i-exponent of each b_j, which follows the paper's sign rule:
    weight-1 members get +1, anticommuting pairs get +-i with the sign set
    by which factor carries Y versus Z, and offsets flip every term that
    contains them.
    """
    n = ParentBatch.of(parents).n
    bases = [ind[1].rows for ind in inds]
    x, z, phase, b = _pauli_terms(parents, duals, bases)
    qubits = np.arange(n)
    gens = (np.array(bases, dtype=np.int64).reshape(len(bases), -1)[..., None] >> qubits) & 1
    dual_z = (np.array([w.z for w in duals], dtype=np.int64)[:, None] >> qubits) & 1
    form = gens @ ((gens @ dual_z) & 1).swapaxes(1, 2)  # x(g) . z(g') over generator pairs
    if ((form ^ form.swapaxes(1, 2)) & 1).any():
        raise AssertionError("J members must commute pairwise")
    rho = DensityMatrix(n, x, np.moveaxis(word_rows(n, z, phase + b), 0, 1), n)
    return ChildResult(parents, tuple(inds), rho, b)


def child_from_partial_trace(parents: Sequence[ParentExtension]) -> DensityMatrix:
    """rho(a, b) = 2^{-n} i^{p_L(a) - p_L(b)} [H a = H b] for each parent of
    a chunk, the exact partial trace of the environment, with no 2^{n+e}
    amplitude built.

    With x = (a, c), a the lab and c the environment bits, p(a, c) = p_L(a) +
    p_E(c) + 2 a.B.c mod 4 (A is symmetric and x_j^2 = x_j puts 2 o.x on its
    diagonal): p_L and p_E are p on the lab and the environment block, B the
    lab-by-environment block.  In rho(a, b) = 2^{-(n+e)} sum_c i^{p(a, c) -
    p(b, c)} p_E cancels, and sum_c (-1)^{(a ^ b).B.c} = 2^e [B^T (a ^ b) = 0]
    with B^T = H, the parents' ``parity_rows``.  This holds for every symmetric
    parent, red environment nodes, environment edges and offsets included,
    whatever rank H has.  So D holds the d with H d = 0, and V[d, c] =
    i^{p_L(c ^ d) - p_L(c)}.  The dense cap counts the chunk's k |D| 2^n
    entries.
    """
    batch = ParentBatch.of(parents)
    n, k = batch.n, len(batch)
    cols = np.arange(1 << n)
    lab = (cols[:, None] >> np.arange(n)) & 1  # row: a lab mask, column q: qubit q
    h = batch.parity_rows().astype(np.int64)
    h_t = (h[:, None, :] >> np.arange(n)[:, None]) & 1  # [i, q, m]: qubit q in parent i's L_m
    kept = ~((lab @ h_t) & 1).any(axis=-1)  # H d = 0, one product for all d of the chunk
    if (kept.sum(axis=1) != kept[0].sum()).any():
        raise ValueError("the children of a chunk must share |D|")
    d = np.nonzero(kept)[1].reshape(k, -1)  # row by row, so each row ascends
    check_dense(8 * d.size << n, f"child layouts of {k} x {d.shape[1]} x {1 << n} entries")
    p_lab = phases(batch, lab)
    rows = (d[:, :, None] ^ cols) + (np.arange(k) << n)[:, None, None]  # into p_lab.ravel()
    num = i_power(p_lab.ravel()[rows] - p_lab[:, None, :])
    return DensityMatrix(n, d, np.moveaxis(num, 0, 1), n)


def stabilized_by(rho: DensityMatrix, gens: Sequence[PauliWord]) -> np.ndarray:
    """Child by child, w rho w^dag = rho for every w in ``gens``, on the
    layout: w = i^k X^x Z^z sends |c> to i^k (-1)^{z.c} |c ^ x>, so V'[d, c]
    = (-1)^{z.d} V[d, c ^ x], one parity over the chunk's D and one take
    along its last axis per generator."""
    ok = np.ones(len(rho), dtype=bool)
    cols = np.arange(rho.dim)
    for w in gens:
        if w.n != rho.n:
            raise DimensionError(f"qubit counts differ: {w.n} != {rho.n}")
        sign = (1 - 2 * _parity_array(rho.offsets & w.z)).astype(rho.num.dtype)
        moved = rho.num.take(cols ^ w.x, axis=3) * sign[:, None, :, None]
        ok &= (moved == rho.num).all(axis=(1, 2, 3))
    return ok


def children_family_e1(
    g_duals: Sequence[PauliWord], parents: ParentBatch
) -> Tuple[ChildResult, List[List[int]]]:
    """Children of the e = 1 parents, grouped under lab Z-pattern conjugation.

    The children are built a chunk at a time and kept as one chunk, since
    the classes compare them all.  Two children pair when some Z over a lab
    subset conjugates one onto the other; with disjoint supports this
    reduces to comparing coefficient maps under sign flips, which one F2
    solve per pair decides.
    """
    inds = indicator(parents)
    n = parents.n
    size = chunk_len(n, 1)
    children = _joined([child_from_pauli_sum(parents[s:s + size], g_duals, inds[s:s + size])
                        for s in range(0, len(parents), size)])
    terms = [children.terms(i) for i in range(len(children))]
    classes: List[List[int]] = []
    for b, child in enumerate(terms):  # b joins the first class whose first child pairs with it
        paired = (c for c in classes if _z_pattern_equivalent(terms[c[0]], child, n) is not None)
        group = next(paired, None)
        if group is None:
            classes.append([b])
        else:
            group.append(b)
    return children, classes


def _joined(parts: Sequence[ChildResult]) -> ChildResult:
    """The children of ``parts``, in order, as one chunk."""
    if len(parts) == 1:
        return parts[0]
    first = parts[0].rho
    rho = DensityMatrix(first.n, np.concatenate([c.rho.offsets for c in parts]),
                        np.concatenate([c.rho.num for c in parts]), first.denom_log2)
    parents = sum((tuple(c.parents) for c in parts), ())
    return ChildResult(parents, sum((c.indicators for c in parts), ()),
                       rho, np.concatenate([c.b for c in parts]))


def _z_pattern_equivalent(a: Dict[int, int], b: Dict[int, int], n: int) -> Optional[int]:
    """A lab Z pattern z with a[j] + 2 parity(z & j) = b[j] mod 4 for every
    j in J, given two children's terms, or None.  The condition is linear
    over F2, parity(z & j) = (b[j] - a[j]) / 2, so one solve decides it; an
    odd difference has none.
    """
    if set(a) != set(b):
        return None
    members = list(a)
    diffs = [(b[j] - a[j]) % 4 for j in members]
    if any(d % 2 for d in diffs):
        return None
    return solve(BinMatrix(tuple(members), n), mask_of(i for i, d in enumerate(diffs) if d))


def convex_combine(
    children: Sequence[DensityMatrix], weights: Sequence[Fraction]
) -> RationalMatrix:
    """Exact convex combination of children, each a chunk of one; weights
    must be non-negative and sum to 1."""
    if len(children) != len(weights):
        raise ValueError("one weight per child required")
    if not children:
        raise ValueError("at least one child required")
    ws = [Fraction(w) for w in weights]
    if any(w < 0 for w in ws):
        raise ValueError("weights must be non-negative")
    if sum(ws) != 1:
        raise ValueError("weights must sum to 1")
    dim = children[0].dim
    denom = 1
    for w, c in zip(ws, children):
        denom = lcm(denom, w.denominator * (1 << c.mat.denom_log2))
    re = np.zeros((dim, dim), dtype=object)
    im = np.zeros((dim, dim), dtype=object)
    for w, c in zip(ws, children):
        if c.dim != dim:
            raise DimensionError("children must share a dimension")
        scale = w.numerator * denom // (w.denominator * (1 << c.mat.denom_log2))
        re += c.mat.re.astype(object) * scale
        im += c.mat.im.astype(object) * scale
    return RationalMatrix(re, im, denom)
