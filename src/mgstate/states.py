"""Exact child density matrices of parent graph states.

A parent on n + e qubits is the graph state 2^{-(n+e)/2} i^{p(x)} with
p(x) = x A x^T + 2 o.x mod 4, A its symmetric adjacency (diagonal bit 1 =
red) and o its offset rows (``ParentExtension.phase``).  Its child arises
twice over, by the dual-group Pauli sum with sign coefficients and by the
partial trace of the environment, which for a graph state is the closed form
rho(a, b) = 2^{-n} i^{p_L(a) - p_L(b)} [H a = H b] over lab basis states a, b,
p_L the lab phase and H the parity matrix (Hein, Eisert & Briegel,
quant-ph/0307130); the two must agree entry for entry.  All arithmetic is
exact: Gaussian integers over a power-of-two denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .extension import Indicator, ParentExtension, indicator, verify_full_commutation
from .f2 import BinMatrix, bits_of, mask_of, parity, solve, span_of_basis
from .pauli import (
    BoundExceeded,
    DimensionError,
    GaussianMatrix,
    PauliWord,
    dense_bound,
    dense_conjugation,
    ordered_product,
    pauli_sum,
)


@dataclass(frozen=True)
class DensityMatrix:
    """Exact density matrix on n lab qubits; ``mat`` is kept in lowest terms,
    so its JSON entries and its text grid render one normalisation."""

    n: int
    mat: GaussianMatrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "mat", self.mat.normalized())

    @property
    def dim(self) -> int:
        return 1 << self.n

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
        return {"n": self.n, **self.mat.to_json_dict()}


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

    ``ind`` is the caller's ``indicator(p)``, which the child keeps.  Its G
    is in RREF, so J = span(G) is listed with no further elimination.  J is
    closed by construction, and the x/z parts of s_j are linear in j, so the
    s_j commute pairwise iff the n - e generator words do.
    ``ChildResult.terms`` keeps the i-exponent of each b_j, which follows the
    paper's sign rule: weight-1 members get +1, anticommuting pairs get +-i
    with the sign set by which factor carries Y versus Z, and offsets flip
    every term that contains them.
    """
    n, gmat = p.n, ind[1]
    terms = _pauli_terms(p, duals, span_of_basis(gmat.rows))
    if not verify_full_commutation([terms[g][0] for g in gmat.rows]):
        raise AssertionError("J members must commute pairwise")
    acc = pauli_sum(n, list(terms.values()))
    rho = DensityMatrix(n, acc.divided_by_pow2(n))
    return ChildResult(p, ind, rho, {j: k for j, (_, k) in terms.items()})


# i^d for d in 1..7; np.take's clip mode sends every other d to the 0 at an end
_TRACE_RE = np.array([0, 0, -1, 0, 1, 0, -1, 0, 0], dtype=np.int64)
_TRACE_IM = np.array([0, 1, 0, -1, 0, 1, 0, -1, 0], dtype=np.int64)


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
    whatever rank H has.  The parent's n + e qubits still obey the dense bound.
    """
    n = p.n
    if p.total > dense_bound():
        raise BoundExceeded(f"parent state on {p.total} qubits exceeds bound {dense_bound()}")
    lab = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # column j: qubit j
    a = np.array(p.ae.to_lists(), dtype=np.int64).reshape(p.total, p.total)[:n, :n]
    offsets = sorted(p.lab_offsets)
    a[offsets, offsets] += 2
    p_lab = ((lab @ a) * lab).sum(axis=1)
    # H a: the XOR of the environment bits r >> n of a's lab rows, doubled
    # qubit by qubit into index order (qubit 0 the most significant bit)
    syndromes = [0]
    for r in p.ae.rows[:n]:
        syndromes = [s ^ env for s in syndromes for env in (0, r >> n)]
    cosets: Dict[int, int] = {}  # one small code per syndrome: e bits may not fit int64
    q = (p_lab & 3) + 8 * np.array([cosets.setdefault(s, len(cosets)) for s in syndromes])
    d = (q + 4)[:, None] - q  # in 1..7 iff H a = H b, where it is p_L(a) - p_L(b) + 4
    mat = GaussianMatrix(_TRACE_RE.take(d, mode="clip"), _TRACE_IM.take(d, mode="clip"), n)
    return DensityMatrix(n, mat)


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
