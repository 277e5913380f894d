"""Exact child density matrices of parent graph states.

A parent on n + e qubits is the graph state 2^{-(n+e)/2} i^{p(x)} with
p(x) = x A x^T + 2 o.x mod 4, A its symmetric adjacency (diagonal bit 1 =
red) and o its offset rows (``ParentExtension.phase``).  Its child arises
twice over, by exact partial trace of the e environment qubits and by the
dual-group Pauli sum with sign coefficients, and the two constructions must
agree entry for entry.

All arithmetic is exact: amplitudes are fourth roots of unity over a global
``2^{-(n+e)/2}`` factor, matrices are Gaussian integers over a power-of-two
denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .extension import Indicator, ParentExtension, indicator, verify_full_commutation
from .f2 import BinMatrix, bits_of, mask_of, parity, solve, span
from .pauli import (
    BoundExceeded,
    DimensionError,
    GaussianMatrix,
    PauliWord,
    dense_bound,
    _I_POWER_IM,
    _I_POWER_RE,
    dense_conjugation,
    ordered_product,
    pauli_sum,
)


@dataclass(frozen=True)
class DensityMatrix:
    """Exact density matrix on n lab qubits."""

    n: int
    mat: GaussianMatrix

    @property
    def dim(self) -> int:
        return 1 << self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return self.n == other.n and self.mat == other.mat

    def trace_is_one(self) -> bool:
        return self.mat.trace_is_one()

    def is_hermitian(self) -> bool:
        return self.mat.is_hermitian()

    def is_pure(self) -> bool:
        sq = self.mat.matmul(self.mat)
        return sq == self.mat

    def purity(self) -> Fraction:
        """Exact tr(rho rho^dag) = sum_ab |rho_ab|^2, which is tr rho^2 for a
        Hermitian rho, in O(4^n) integer arithmetic.

        A child with e environment qubits is 2^{-n} times the sum of an
        abelian signed group S of order 2^{n-e} without -I, so rho^2 =
        2^{-e} rho and tr rho^2 = 2^{-e}.  With tr rho = 1 that is stronger
        than ``not is_pure()``: purity 2^{-e} < 1 rules out rho^2 = rho, while
        I/2^n is not pure either yet has purity 2^{-n}.
        """
        re, im = self.mat.re, self.mat.im
        top = max(abs(int(v)) for v in (re.max(), re.min(), im.max(), im.min()))
        if 2 * re.size * top * top >= 1 << 63:  # int64 could overflow: use Python ints
            re, im = re.astype(object), im.astype(object)
        total = int((re * re).sum()) + int((im * im).sum())
        return Fraction(total, 1 << (2 * self.mat.denom_log2))

    def to_json_dict(self) -> Dict:
        m = self.mat.normalized()
        return {"n": self.n, **m.to_json_dict()}

    def to_text_grid(self) -> str:
        return self.mat.normalized().to_text_grid()


@dataclass(frozen=True)
class ChildResult:
    """Child density matrix, its parent's indicator and its Pauli-sum terms."""

    parent: ParentExtension
    indicator: Indicator
    rho: DensityMatrix
    terms: Dict[int, int]  # J member bitset -> i-exponent of b_j


def _pauli_terms(
    p: ParentExtension, duals: Sequence[PauliWord], members: Sequence[int]
) -> Dict[int, Tuple[PauliWord, int]]:
    """J member -> (s_j, i-exponent of b_j), one ordered product per member.

    A member of J sets no environment bit, so the parent's phase at j is
    its lab restriction p_lab(j).  Row 0 of s_j = i^phase X^x Z^z has its
    one entry at the column indexed by x, i^(phase + 2 parity(x & z)).
    """
    out: Dict[int, Tuple[PauliWord, int]] = {}
    for j in members:
        word = ordered_product(duals, bits_of(j))
        entry_exp = word.phase + 2 * parity(word.x & word.z)
        out[j] = (word, (-p.phase(j) - entry_exp) % 4)
    return out


def child_from_pauli_sum(
    p: ParentExtension, duals: Sequence[PauliWord], ind: Indicator
) -> ChildResult:
    """rho = 2^{-n} sum_{j in J} b_j s_j, with commutation asserted.

    ``ind`` is the caller's ``indicator(p)``, which the child keeps.  J =
    span(G) is closed by construction, and the x/z parts of s_j are linear in
    j, so the s_j commute pairwise iff the n - e generator words do.
    ``ChildResult.terms`` keeps the i-exponent of each b_j, which follows the
    paper's sign rule: weight-1 members get +1, anticommuting pairs get +-i
    with the sign set by which factor carries Y versus Z, and offsets flip
    every term that contains them.
    """
    n, gmat = p.n, ind[1]
    terms = _pauli_terms(p, duals, span(gmat.rows, n))
    if not verify_full_commutation([terms[g][0] for g in gmat.rows]):
        raise AssertionError("J members must commute pairwise")
    acc = pauli_sum(n, list(terms.values()))
    rho = DensityMatrix(n, acc.divided_by_pow2(n).normalized())
    return ChildResult(p, ind, rho, {j: k for j, (_, k) in terms.items()})


def parent_phases(p: ParentExtension) -> np.ndarray:
    """p(x) for every basis index of the n + e parent qubits.

    Qubit 0 is the most significant index bit, so the e environment qubits
    are the least significant ones.  x_j^2 = x_j puts 2 o.x on the diagonal,
    so with x the (2^{n+e}, n+e) bit table p = rowsum((x (A + 2 diag o)) * x).
    """
    total = p.total
    if total > dense_bound():
        raise BoundExceeded(f"parent state on {total} qubits exceeds bound {dense_bound()}")
    x = (np.arange(1 << total)[:, None] >> np.arange(total - 1, -1, -1)) & 1
    a = np.array(p.ae.to_lists(), dtype=np.int64)
    offsets = sorted(p.lab_offsets | p.env_offsets)
    a[offsets, offsets] += 2
    return ((x @ a) * x).sum(axis=1) % 4


def child_from_partial_trace(p: ParentExtension) -> DensityMatrix:
    """Trace the e environment qubits out of the parent |psi><psi|, exactly.

    The environment is the low e index bits, so the amplitudes i^{p(x)}
    reshape to (2^n, 2^e) and rho = psi psi^dag over the second axis, over
    the 2^{n+e} of psi's normalisation.  The one complex128 product is
    exact: each part of an entry sums 2^e values of 0 or +-1, far below
    float64's 2^53.
    """
    ph = parent_phases(p).reshape(1 << p.n, 1 << p.e)
    psi = (_I_POWER_RE + 1j * _I_POWER_IM)[ph]
    rho = psi @ psi.conj().T
    mat = GaussianMatrix(rho.real.astype(np.int64), rho.imag.astype(np.int64), p.total)
    return DensityMatrix(p.n, mat.normalized())


def stabilized_by(rho: DensityMatrix, gens: Sequence[PauliWord]) -> bool:
    """w rho w^dag = rho for every w in ``gens``, read on rho's nonzero entries.

    ``dense_conjugation`` gives (w rho w^dag)[a, b] = flip[a] flip[b]
    rho[perm[a], perm[b]], and (a, b) -> (perm[a], perm[b]) is an
    involution.  So if every nonzero entry equals the sign times its image,
    a zero entry cannot have a nonzero image either: that image's own image
    is the zero entry, and it would have failed the test.  The denominator
    is unchanged, so comparing numerators on the K nonzero entries decides
    the identity exactly, one (K,) pass per generator.
    """
    re, im = rho.mat.re.ravel(), rho.mat.im.ravel()
    flat = np.flatnonzero(re | im)
    rows, cols = flat >> rho.n, flat & (rho.dim - 1)
    vre, vim = re[flat], im[flat]
    for w in gens:
        perm, flip = dense_conjugation(w, rho.dim)
        img = (perm[rows] << rho.n) | perm[cols]
        sign = flip[rows] * flip[cols]
        if not (np.array_equal(re[img] * sign, vre) and np.array_equal(im[img] * sign, vim)):
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
    assigned = [False] * len(children)
    for a in range(len(children)):
        if assigned[a]:
            continue
        group = [a]
        assigned[a] = True
        for b in range(a + 1, len(children)):
            if assigned[b]:
                continue
            if _z_pattern_equivalent(children[a], children[b], n) is not None:
                group.append(b)
                assigned[b] = True
        classes.append(group)
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


@dataclass(frozen=True)
class RationalMatrix:
    """Gaussian-rational matrix for convex mixtures: (re + i im) / denom."""

    re: np.ndarray
    im: np.ndarray
    denom: int

    def conjugated_by(self, w: PauliWord) -> "RationalMatrix":
        perm, flip = dense_conjugation(w, self.re.shape[0])
        signs = np.outer(flip, flip)
        return RationalMatrix(
            self.re.take(perm, 0).take(perm, 1) * signs,
            self.im.take(perm, 0).take(perm, 1) * signs,
            self.denom,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return bool(
            np.array_equal(self.re * other.denom, other.re * self.denom)
            and np.array_equal(self.im * other.denom, other.im * self.denom)
        )

    def trace(self) -> Tuple[int, int, int]:
        return int(self.re.trace()), int(self.im.trace()), self.denom

    def trace_is_one(self) -> bool:
        tr_re, tr_im, d = self.trace()
        return tr_im == 0 and tr_re == d


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
