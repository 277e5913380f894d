"""Exact child density matrices of parent graph states.

A parent on n + e qubits is the graph state 2^{-(n+e)/2} i^{p(x)} with
p(x) = x A x^T + 2 o.x mod 4, A its symmetric adjacency (diagonal bit 1 =
red) and o its offset rows (``ParentExtension.phases``).  Its child arises
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
c) is (d, c ^ d).  Only a report renders rho dense, and only it puts qubit 0 first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .extension import Indicator, ParentExtension, indicator, verify_full_commutation
from .f2 import BinMatrix, combine, mask_of, solve, span_of_basis
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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Exact density matrix on n lab qubits in the XOR-offset layout over qubit
    masks: rho[c ^ offsets[k], c] = (num[0] + i num[1])[k, c] / 2^denom_log2,
    zero off the ascending ``offsets``.  Both routes write unit numerators
    over 2^n, lowest terms as built, so equality compares the fields exactly."""

    n: int
    offsets: np.ndarray
    num: np.ndarray
    denom_log2: int

    def __post_init__(self) -> None:
        offsets, num = np.asarray(self.offsets, np.int64), np.asarray(self.num)
        # int8 holds the routes' unit numerators; without -128 it negates exactly
        if num.dtype != np.int8 or num.min(initial=0) == -128:
            num = num.astype(np.int64)
        if num.shape != (2, len(offsets), self.dim):
            raise ValueError("one row of 2^n numerator pairs per offset required")
        outside = len(offsets) > 0 and (offsets[0] < 0 or offsets[-1] >= self.dim)
        if outside or (offsets[1:] <= offsets[:-1]).any():
            raise ValueError("offsets must be distinct, ascending and below 2^n")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "num", num)

    @property
    def dim(self) -> int:
        return 1 << self.n

    @cached_property
    def mat(self) -> GaussianMatrix:
        """The dense matrix, built on first use: only a report renders it."""
        return GaussianMatrix.from_offsets(self.offsets, self.num, self.denom_log2)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return (self.n, self.denom_log2) == (other.n, other.denom_log2) and np.array_equal(
            self.offsets, other.offsets) and np.array_equal(self.num, other.num)

    def trace_is_one(self) -> bool:
        """The diagonal is the offset-0 row."""
        has_diagonal = len(self.offsets) > 0 and int(self.offsets[0]) == 0
        return has_diagonal and self.num[:, 0].sum(axis=1).tolist() == [1 << self.denom_log2, 0]

    def is_hermitian(self) -> bool:
        """rho[c ^ d, c] = conj rho[c, c ^ d], the layout's entry (d, c ^ d)."""
        pair = self.offsets[:, None] ^ np.arange(self.dim)
        conj = self.num * np.array([[[1]], [[-1]]], dtype=self.num.dtype)
        return np.array_equal(np.take_along_axis(self.num, pair[None], 2), conj)

    def is_pure(self) -> bool:
        return self.mat.matmul(self.mat) == self.mat

    def purity(self) -> Fraction:
        """Exact tr(rho rho^dag) = sum_ab |rho_ab|^2, which is tr rho^2 for a
        Hermitian rho: the squares summed over the layout, the only entries
        that can be nonzero.

        A child with e environment qubits is 2^{-n} times the sum of an
        abelian signed group S of order 2^{n-e} without -I, so rho^2 =
        2^{-e} rho and tr rho^2 = 2^{-e}.  With tr rho = 1 that is stronger
        than ``not is_pure()``: purity 2^{-e} < 1 rules out rho^2 = rho, while
        I/2^n is not pure either yet has purity 2^{-n}.
        """
        num = self.num.astype(np.int64)
        top = max(abs(int(num.max())), abs(int(num.min()))) if num.size else 0
        if num.size * top * top >= 1 << 63:  # int64 could overflow: use Python ints
            num = num.astype(object)
        return Fraction(int((num * num).sum()), 1 << (2 * self.denom_log2))

    def to_json_dict(self) -> Dict:
        return {"n": self.n, **self.mat.to_json_dict()}


@dataclass(frozen=True)
class ChildResult:
    """Child density matrix, its parent's indicator and its Pauli-sum terms."""

    parent: ParentExtension
    indicator: Indicator
    rho: DensityMatrix
    terms: Dict[int, int]  # J member bitset -> i-exponent of b_j


def _pauli_terms(
    p: ParentExtension, duals: Sequence[PauliWord], basis: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """x(s_j) = j ascending over the members j of J = span(``basis``), z(s_j),
    both qubit masks, phase(s_j) and the i-exponent of b_j.

    Dual row h is i^{ph_h} X_h Z^{z_h}, so x(s_j) = j and z(s_j) is the XOR
    of the z_h over h in j.  Multiplying the rows lowest h first adds 2 z(s_j
    so far)[h] at each h, so phase(s_j) = sum_{h in j} ph_h + 2 sum_{a < h in
    j} z_a[h]: a quadratic form in the bits of j, one matrix product for all
    members.  A member sets no environment bit, so the parent's phase at j is
    p_lab(j).  Row 0 of s_j has its one entry at column x, i^(phase + 2
    parity(x & z)), and b_j times it is i^{-p_lab(j)}.
    """
    qubits = np.arange(p.n)
    x = np.array(span_of_basis(basis), dtype=np.int64)
    bits = (x[:, None] >> qubits) & 1
    zrows = (np.array([w.z for w in duals], dtype=np.int64)[:, None] >> qubits) & 1
    z = (bits @ zrows) & 1
    upper = zrows * (qubits[:, None] < qubits)  # z_a[h] for a < h
    phase = (bits @ [w.phase for w in duals] + 2 * ((bits @ upper) * bits).sum(1)) & 3
    b = (-p.phases(bits) - phase - 2 * (bits * z).sum(1)) & 3
    return x, z @ (1 << qubits), phase, b


def child_from_pauli_sum(
    p: ParentExtension, duals: Sequence[PauliWord], ind: Indicator
) -> ChildResult:
    """rho = 2^{-n} sum_{j in J} b_j s_j, with commutation asserted.

    ``ind`` is the caller's ``indicator(p)``, which the child keeps.  Its G
    is in RREF, so J = span(G) is listed with no further elimination.  J is
    closed by construction, and the x/z parts of s_j are linear in j, so the
    s_j commute pairwise iff the n - e generator words do, phases aside.
    Since x(s_j) = j, each term is the layout's row at offset j.
    ``ChildResult.terms`` keeps the i-exponent of each b_j, which follows the
    paper's sign rule: weight-1 members get +1, anticommuting pairs get +-i
    with the sign set by which factor carries Y versus Z, and offsets flip
    every term that contains them.
    """
    n, gmat = p.n, ind[1]
    x, z, phase, b = _pauli_terms(p, duals, gmat.rows)
    dual_z = [w.z for w in duals]
    if not verify_full_commutation([PauliWord(n, g, combine(dual_z, g), 0) for g in gmat.rows]):
        raise AssertionError("J members must commute pairwise")
    rho = DensityMatrix(n, x, word_rows(n, z, phase + b), n)
    return ChildResult(p, ind, rho, dict(zip(x.tolist(), b.tolist())))


def child_from_partial_trace(p: ParentExtension) -> DensityMatrix:
    """rho(a, b) = 2^{-n} i^{p_L(a) - p_L(b)} [H a = H b], the exact partial
    trace of the environment, with no 2^{n+e} amplitude built.

    With x = (a, c), a the lab and c the environment bits, p(a, c) = p_L(a) +
    p_E(c) + 2 a.B.c mod 4 (A is symmetric and x_j^2 = x_j puts 2 o.x on its
    diagonal): p_L and p_E are p on the lab and the environment block, B the
    lab-by-environment block.  In rho(a, b) = 2^{-(n+e)} sum_c i^{p(a, c) -
    p(b, c)} p_E cancels, and sum_c (-1)^{(a ^ b).B.c} = 2^e [B^T (a ^ b) = 0]
    with B^T = H = ``p.parity_matrix()``.  This holds for every symmetric
    parent, red environment nodes, environment edges and offsets included,
    whatever rank H has.  So D holds the d with H d = 0, and V[d, c] =
    i^{p_L(c ^ d) - p_L(c)}.  The dense cap counts these |D| 2^n entries.
    """
    n = p.n
    lab = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1  # row: a lab mask, column q: qubit q
    h_t = (np.array(p.parity_matrix().rows, np.int64) >> np.arange(n)[:, None]) & 1
    d = np.flatnonzero(~((lab @ h_t) & 1).any(axis=1))  # H d = 0, one product for all d
    check_dense(8 * len(d) << n, f"a child layout of {len(d)} x {1 << n} entries")
    p_lab = p.phases(lab)
    return DensityMatrix(n, d, i_power(p_lab[d[:, None] ^ np.arange(1 << n)] - p_lab), n)


def stabilized_by(rho: DensityMatrix, gens: Sequence[PauliWord]) -> bool:
    """w rho w^dag = rho for every w in ``gens``, on the layout: w = i^k X^x Z^z
    sends |c> to i^k (-1)^{z.c} |c ^ x>, so V'[d, c] = (-1)^{z.d} V[d, c ^ x],
    one parity over D and one (|D|, 2^n) pass per generator."""
    for w in gens:
        if w.n != rho.n:
            raise DimensionError(f"qubit counts differ: {w.n} != {rho.n}")
        sign = (1 - 2 * _parity_array(rho.offsets & w.z)).astype(rho.num.dtype)[:, None]
        if not np.array_equal(rho.num.take(np.arange(rho.dim) ^ w.x, axis=2) * sign, rho.num):
            return False
    return True


def children_family_e1(
    g_duals: Sequence[PauliWord], parents: Sequence[ParentExtension]
) -> Tuple[List[ChildResult], List[List[int]]]:
    """Children of the e = 1 parents, grouped under lab Z-pattern conjugation.

    Two children pair when some Z over a lab subset conjugates one onto the
    other; with disjoint supports this reduces to comparing coefficient maps
    under sign flips, which one F2 solve per pair decides.
    """
    children = [child_from_pauli_sum(p, g_duals, indicator(p)) for p in parents]
    n = parents[0].n if parents else 0
    classes: List[List[int]] = []
    for b, child in enumerate(children):  # b joins the first class whose first child pairs with it
        paired = (c for c in classes if _z_pattern_equivalent(children[c[0]], child, n) is not None)
        group = next(paired, None)
        if group is None:
            classes.append([b])
        else:
            group.append(b)
    return children, classes


def _z_pattern_equivalent(a: ChildResult, b: ChildResult, n: int) -> Optional[int]:
    """A lab Z pattern z with a_j + 2 parity(z & j) = b_j mod 4 for every j
    in J, or None.  The condition is linear over F2, parity(z & j) =
    (b_j - a_j) / 2, so one solve decides it; an odd difference has none.
    """
    if set(a.terms) != set(b.terms):
        return None
    members = list(a.terms)
    diffs = [(b.terms[j] - a.terms[j]) % 4 for j in members]
    if any(d % 2 for d in diffs):
        return None
    return solve(BinMatrix(tuple(members), n), mask_of(i for i, d in enumerate(diffs) if d))


def convex_combine(
    children: Sequence[DensityMatrix], weights: Sequence[Fraction]
) -> RationalMatrix:
    """Exact convex combination; weights must be non-negative and sum to 1."""
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
