"""Exact states and child density matrices.

State vectors come from generalized Boolean phase functions p: F2^n -> Z4 as
``2^{-n/2} i^p``; children of parents arise twice over, by exact partial
trace and by the dual-group Pauli sum with sign coefficients, and the two
constructions must agree entry for entry.

All arithmetic is exact: amplitudes are fourth roots of unity over a global
``2^{-s/2}`` factor, matrices are Gaussian integers over a power-of-two
denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .extension import ParentExtension, indicator, j_members, verify_full_commutation
from .f2 import BinMatrix, bits_of, mask_of, parity, solve, span
from .pauli import (
    BoundExceeded,
    DimensionError,
    GaussianMatrix,
    PauliWord,
    _bits_to_index,
    dense_bound,
    dense_conjugation,
    ordered_product,
    pauli_sum,
)

STATE_BOUND = 12


@dataclass(frozen=True)
class PhaseFunction:
    """p(x) = sum 2 x_j x_k (quadratic) + sum x_j (Z4) + sum 2 x_j (binary)."""

    n_total: int
    quadratic: FrozenSet[Tuple[int, int]] = frozenset()
    z4_linear: FrozenSet[int] = frozenset()
    binary_linear: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        for j, k in self.quadratic:
            if j >= k:
                raise ValueError("quadratic pairs must be stored as (min, max)")
            if not (0 <= j < self.n_total and 0 <= k < self.n_total):
                raise ValueError("quadratic pair out of range")

    @classmethod
    def from_parent(cls, p: ParentExtension) -> "PhaseFunction":
        return cls(
            p.total,
            frozenset(p.quadratic_pairs()),
            frozenset(p.red_nodes()),
            frozenset(p.binary_offsets()),
        )

    def evaluate(self, x_mask: int) -> int:
        v = 0
        for j, k in self.quadratic:
            v += 2 * ((x_mask >> j) & (x_mask >> k) & 1)
        for j in self.z4_linear:
            v += (x_mask >> j) & 1
        for j in self.binary_linear:
            v += 2 * ((x_mask >> j) & 1)
        return v % 4

    def describe(self) -> str:
        terms = []
        quad = sorted(self.quadratic)
        if quad:
            terms.append("2*(" + " + ".join(f"x{j}*x{k}" for j, k in quad) + ")")
        for j in sorted(self.binary_linear):
            terms.append(f"2*x{j}")
        for j in sorted(self.z4_linear):
            terms.append(f"x{j}")
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class ExactStateVector:
    """Amplitudes ``i^{phases[idx]} * 2^{-norm_log2sqrt/2}``."""

    n_total: int
    phases: Tuple[int, ...]
    norm_log2sqrt: int

    def amplitude_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        ph = np.array(self.phases, dtype=np.int64) % 4
        re = np.where(ph == 0, 1, np.where(ph == 2, -1, 0))
        im = np.where(ph == 1, 1, np.where(ph == 3, -1, 0))
        return re.astype(np.int64), im.astype(np.int64)


def state_from_phase(p: PhaseFunction, bound: Optional[int] = None) -> ExactStateVector:
    """Graph state 2^{-n/2} i^p; index bit of qubit 0 is the most significant."""
    n = p.n_total
    if n > (bound if bound is not None else min(STATE_BOUND, dense_bound())):
        raise BoundExceeded(f"state on {n} qubits exceeds the configured bound")
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    bit = [(idx >> (n - 1 - j)) & 1 for j in range(n)]
    ph = np.zeros(dim, dtype=np.int64)
    for j, k in p.quadratic:
        ph += 2 * bit[j] * bit[k]
    for j in p.z4_linear:
        ph += bit[j]
    for j in p.binary_linear:
        ph += 2 * bit[j]
    return ExactStateVector(n, tuple((ph % 4).tolist()), n)


def stabilizes(w: PauliWord, psi: ExactStateVector) -> bool:
    """Exact check of w |psi> = |psi>."""
    if w.n != psi.n_total:
        raise DimensionError("word size does not match state")
    n = w.n
    dim = 1 << n
    xi = _bits_to_index(w.x, n)
    zi = _bits_to_index(w.z, n)
    for d in range(dim):
        src = d ^ xi
        ph = (w.phase + 2 * parity(zi & src) + psi.phases[src]) % 4
        if ph != psi.phases[d]:
            return False
    return True


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

    def __hash__(self):
        return hash((self.n, self.mat))

    def trace_is_one(self) -> bool:
        return self.mat.trace_is_one()

    def is_hermitian(self) -> bool:
        return self.mat.is_hermitian()

    def conjugated_by(self, w: PauliWord) -> "DensityMatrix":
        return DensityMatrix(self.n, self.mat.conjugate_by_word(w))

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


def partial_trace_env(psi: ExactStateVector, env: Sequence[int]) -> DensityMatrix:
    """Trace the environment qubits out of |psi><psi|, exactly."""
    n_total = psi.n_total
    env_sorted = sorted(set(env))
    if any(not 0 <= j < n_total for j in env_sorted):
        raise DimensionError("environment index out of range")
    lab = [j for j in range(n_total) if j not in env_sorted]
    n = len(lab)
    re, im = psi.amplitude_arrays()
    shape = (2,) * n_total
    order = lab + env_sorted
    re = re.reshape(shape).transpose(order).reshape(1 << n, 1 << len(env_sorted))
    im = im.reshape(shape).transpose(order).reshape(1 << n, 1 << len(env_sorted))
    rho_re = re @ re.T + im @ im.T
    rho_im = im @ re.T - re @ im.T
    return DensityMatrix(n, GaussianMatrix(rho_re, rho_im, psi.norm_log2sqrt).normalized())


@dataclass(frozen=True)
class ChildResult:
    """Child density matrix with its Pauli-sum decomposition."""

    parent: ParentExtension
    rho: DensityMatrix
    terms: Dict[int, int]  # J member bitset -> i-exponent of b_j


_I_EXPONENT = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}


def _pauli_terms(
    p: ParentExtension, duals: Sequence[PauliWord], members: Sequence[int]
) -> Dict[int, Tuple[PauliWord, int]]:
    """J member -> (s_j, i-exponent of b_j), one ordered product per member.

    A member of J sets no environment bit, so the parent's phase function at
    j is its lab restriction p_lab(j).
    """
    phase = PhaseFunction.from_parent(p)
    out: Dict[int, Tuple[PauliWord, int]] = {}
    for j in members:
        word = ordered_product(duals, bits_of(j))
        entry_exp = _I_EXPONENT[word.entry(0, word.support_column())]
        out[j] = (word, (-phase.evaluate(j) - entry_exp) % 4)
    return out


def sign_coefficients(p: ParentExtension, duals: Sequence[PauliWord]) -> Dict[int, int]:
    """i-exponents of the Pauli-sum coefficients b_j, keyed by J member.

    b_j is fixed by Hermiticity and the parent's lab-restricted phase
    function: the only row-0 entry of s_j sits at the column indexed by j,
    and 2^n rho[0, col] = i^{-p_lab(j)}, so b_j = i^{-p_lab(j)} / s_j[0, col].
    Weight-1 members get +1, anticommuting pairs get +-i with the sign set
    by which factor carries Y versus Z, and binary offsets flip every term
    containing the offset row.
    """
    return {j: k for j, (_, k) in _pauli_terms(p, duals, j_members(p)).items()}


def child_from_pauli_sum(
    p: ParentExtension, duals: Sequence[PauliWord]
) -> ChildResult:
    """rho = 2^{-n} sum_{j in J} b_j s_j, with commutation asserted.

    J = span(G) is closed by construction, and the x/z parts of s_j are
    linear in j, so the s_j commute pairwise iff the n - e generator words
    do.
    """
    n = p.n
    _, gmat, _ = indicator(p)
    terms = _pauli_terms(p, duals, span(gmat.rows, n))
    if not verify_full_commutation([terms[g][0] for g in gmat.rows]):
        raise AssertionError("J members must commute pairwise")
    acc = pauli_sum(n, list(terms.values()))
    rho = DensityMatrix(n, acc.divided_by_pow2(n).normalized())
    return ChildResult(p, rho, {j: k for j, (_, k) in terms.items()})


def child_from_partial_trace(p: ParentExtension) -> DensityMatrix:
    psi = state_from_phase(PhaseFunction.from_parent(p))
    return partial_trace_env(psi, list(p.env_indices()))


def stabilized_by(rho: DensityMatrix, gens: Sequence[PauliWord]) -> bool:
    return all(rho.conjugated_by(g) == rho for g in gens)


def children_family_e1(
    g_duals: Sequence[PauliWord], parents: Sequence[ParentExtension]
) -> Tuple[List[ChildResult], List[List[int]]]:
    """Children of the e = 1 parents, grouped under lab Z-pattern conjugation.

    Two children pair when some Z over a lab subset conjugates one onto the
    other; with disjoint supports this reduces to comparing coefficient maps
    under sign flips, which one F2 solve per pair decides.
    """
    children = [child_from_pauli_sum(p, g_duals) for p in parents]
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
        perm, signs = dense_conjugation(w, self.re.shape[0])
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
