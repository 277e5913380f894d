"""Exact child density matrices of parent graph states.

A parent on n + e qubits is the graph state 2^{-(n+e)/2} i^{p(x)} with
p(x) = x A x^T + 2 o.x mod 4, A its symmetric adjacency (diagonal bit 1 =
red) and o its offset rows (``extension.phases``).  Its child arises
twice over, by the dual-group Pauli sum with sign coefficients and by the
partial trace of the environment, which for a graph state is the closed form
rho(a, b) = 2^{-n} i^{p_L(a) - p_L(b)} [H a = H b] over lab basis states a, b,
p_L the lab phase and H the parity matrix (Hein, Eisert & Briegel,
quant-ph/0307130); the two must agree.  All arithmetic is exact.

A child is a signed member list: rho = 2^{-n} sum_{d in D} s_d, the form of
Fattal, Cubitt, Yamamoto, Bravyi & Chuang (quant-ph/0406168), with s_d =
i^{kappa_d} X^d Z^{z_d}, D the ascending members, z_d a qubit mask and
kappa_d mod 4.  Both routes give D = J.  s_d is rho's XOR-offset row d over
qubit masks: rho[c ^ d, c] = 2^{-n} V[d, c] with V[d, c] = i^{kappa_d}
(-1)^{z_d.c}, zero off D.  So a child holds 3 |D| = 3 2^(n-e) words, and
each check is an exact identity on (D, z, kappa), O(|D| n) per child, that
holds iff the same check holds on V:

- the routes agree iff they give equal (D, z, kappa);
- w = i^k X^x Z^z sends V[d, c] to (-1)^{z.d} V[d, c ^ x] = (-1)^{z.d +
  x.z_d} V[d, c], so w rho w^dag = rho iff z.d + x.z_d = 0 for every d;
- the Hermitian partner of (d, c) is (d, c ^ d), so rho is Hermitian iff
  kappa_d = d.z_d mod 2;
- tr rho = 2^{-n} sum_c V[0, c] = i^{kappa_0} [z_0 = 0] when D[0] = 0, so
  the trace is one iff D[0] = 0, z_0 = 0 and kappa_0 = 0;
- every entry on D has modulus 2^{-n}, so tr rho rho^dag = |D| / 2^n, and
  the purity is 2^{-e} iff |D| = 2^(n-e).

Children are built and checked a chunk at a time.  A chunk holds k children
that share n and |D|: members, z masks and phases, each (k, |D|).  Each
route and each check is one array pass over a chunk and gives one array, or
one verdict, per child.  ``chunk_len`` sizes a chunk to ``CHUNK_ENTRIES``
words of what it holds, at least one child, so that what is resident stays
bounded whatever chi(e) is; a single child is a chunk of one.  V exists only
when a report renders rho, for a whole chunk at once, or a fixture's stored
rho is read: ``word_rows`` writes it from the member list, and only a dense
rendering, one child at a time, puts qubit 0 first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .extension import ParentBatch, indicator, phases
from .f2 import BinMatrix, mask_of, solve, span_batch
from .pauli import (
    DimensionError,
    GaussianMatrix,
    PauliWord,
    RationalMatrix,
    _parity_array,
    check_dense,
    word_rows,
)

CHUNK_ENTRIES = 1 << 14  # words per chunk: 93 children at (n, e) = (7, 3), 186 at (6, 3)


def chunk_len(n: int, e: int) -> int:
    """Children per chunk: as many as ``CHUNK_ENTRIES`` words hold, each
    child its 3 2^(n - e) member words and route 2's scan of 2^n lab
    syndromes, and at least one."""
    return max(1, CHUNK_ENTRIES // ((3 << n - e) + (1 << n)))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A chunk of k exact density matrices on n lab qubits as signed member
    lists: child i is 2^{-n} times the sum over r of i^{kappa[i, r]} X^d
    Z^{z[i, r]}, d = offsets[i, r] its ascending members, so its XOR-offset
    row d is rho_i[c ^ d, c] = 2^{-n} i^{kappa[i, r]} (-1)^{z[i, r].c}.
    Each check gives one verdict per child, and a slice is a chunk of its
    children."""

    n: int
    offsets: np.ndarray
    z: np.ndarray
    kappa: np.ndarray

    def __post_init__(self) -> None:
        offsets, z = np.asarray(self.offsets, np.int64), np.asarray(self.z, np.int64)
        kappa = np.asarray(self.kappa, np.int64) & 3
        if offsets.ndim != 2 or z.shape != offsets.shape or kappa.shape != offsets.shape:
            raise ValueError("one z mask and one phase per member of each child required")
        outside = offsets.size > 0 and (min(offsets[:, 0].min(), z.min()) < 0
                                        or max(offsets[:, -1].max(), z.max()) >= self.dim)
        if outside or (offsets[:, 1:] <= offsets[:, :-1]).any():
            raise ValueError("members must be distinct, ascending and below 2^n, z masks below 2^n")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "kappa", kappa)

    @property
    def dim(self) -> int:
        return 1 << self.n

    @property
    def denom_log2(self) -> int:
        return self.n

    def __len__(self) -> int:
        return len(self.offsets)

    def __getitem__(self, part: slice) -> DensityMatrix:
        return DensityMatrix(self.n, self.offsets[part], self.z[part], self.kappa[part])

    @cached_property
    def num(self) -> np.ndarray:
        """The numerators of V over 2^n, (k, 2, |D|, 2^n), real part first,
        written by ``word_rows`` on first use: only a rendering reads them."""
        k, size = self.offsets.shape
        check_dense(8 * k * size << self.n, f"child layouts of {k} x {size} x {self.dim} entries")
        return np.moveaxis(word_rows(self.n, self.z, self.kappa), 0, 1)

    def dense(self, i: int) -> GaussianMatrix:
        """Child i's dense matrix, from the chunk's ``num``, for a report to render."""
        return GaussianMatrix.from_offsets(self.offsets[i], self.num[i], self.n)

    def agrees_with(self, other: DensityMatrix) -> np.ndarray:
        """Child by child, equality with the child at the same place in
        ``other``: the same n and (D, z, kappa)."""
        if (self.n, self.offsets.shape) != (other.n, other.offsets.shape):
            return np.zeros(len(self), dtype=bool)
        same = (self.offsets == other.offsets) & (self.z == other.z) & (self.kappa == other.kappa)
        return same.all(axis=1)

    def trace_is_one(self) -> np.ndarray:
        """Child by child: D[0] = 0, z_0 = 0 and kappa_0 = 0."""
        if not self.offsets.shape[1]:
            return np.zeros(len(self), dtype=bool)
        return (self.offsets[:, 0] == 0) & (self.z[:, 0] == 0) & (self.kappa[:, 0] == 0)

    def is_hermitian(self) -> np.ndarray:
        """Child by child: kappa_d = d.z_d mod 2 for every member d."""
        odd = (self.kappa ^ _parity_array(self.offsets & self.z)) & 1
        return ~odd.any(axis=1)

    def is_pure(self) -> np.ndarray:
        """Child by child, rho^2 = rho: for the signed group S = {s_d} of a
        child, rho^2 = 2^{-2n} |S| sum_S s = |D| 2^{-n} rho, so iff |D| = 2^n."""
        return np.full(len(self), self.offsets.shape[1] == self.dim)

    def purity(self) -> List[Fraction]:
        """Child by child, the exact tr(rho rho^dag) = sum_ab |rho_ab|^2,
        which is tr rho^2 for a Hermitian rho: |D| 2^n entries of modulus
        2^{-n}, so |D| / 2^n.

        A child with e environment qubits is 2^{-n} times the sum of an
        abelian signed group S of order 2^{n-e} without -I, so rho^2 =
        2^{-e} rho and tr rho^2 = 2^{-e}.  With tr rho = 1 that is stronger
        than ``not is_pure()``: purity 2^{-e} < 1 rules out rho^2 = rho, while
        I/2^n is not pure either yet has purity 2^{-n}.
        """
        return [Fraction(self.offsets.shape[1], self.dim)] * len(self)


@dataclass(frozen=True, eq=False)
class ChildResult:
    """The children of a chunk of parents: the parents, a batch; ``gens``
    (k, n - e), row i the RREF generator rows of child i's J, from
    ``indicator``; the chunk's density matrices; and b[i, k], the
    i-exponent of b_j for child i's J member j = ``rho.offsets[i, k]``.  A
    slice is a chunk of its children, and iterating gives each child as a
    chunk of one."""

    parents: ParentBatch
    gens: np.ndarray
    rho: DensityMatrix
    b: np.ndarray

    def __len__(self) -> int:
        return len(self.parents)

    def __getitem__(self, part: slice) -> ChildResult:
        return ChildResult(self.parents[part], self.gens[part], self.rho[part], self.b[part])

    def __iter__(self) -> Iterator[ChildResult]:
        return (self[i:i + 1] for i in range(len(self)))

    def terms(self, i: int) -> Dict[int, int]:
        """Child i's J members j, ascending, each to the i-exponent of b_j."""
        return dict(zip(self.rho.offsets[i].tolist(), self.b[i].tolist()))


def _pauli_terms(
    parents: ParentBatch, duals: Sequence[PauliWord], gens: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For parent i and the members j of J_i = span(``gens[i]``), ascending,
    at [i, k]: x(s_j) = j and z(s_j), both qubit masks, phase(s_j) and the
    i-exponent of b_j.  The members of the whole chunk come from one
    ``span_batch`` of its (k, n - e) generator rows.

    Dual row h is i^{ph_h} X_h Z^{z_h}, so x(s_j) = j and z(s_j) is the XOR
    of the z_h over h in j.  Multiplying the rows lowest h first adds 2 z(s_j
    so far)[h] at each h, so phase(s_j) = sum_{h in j} ph_h + 2 sum_{a < h in
    j} z_a[h]: a quadratic form in the bits of j, one matrix product for all
    members of the chunk.  A member sets no environment bit, so the parent's
    phase at j is p_lab(j).  Row 0 of s_j has its one entry at column x,
    i^(phase + 2 parity(x & z)), and b_j times it is i^{-p_lab(j)}.
    """
    qubits = np.arange(parents.n)
    x = span_batch(gens)
    bits = (x[..., None] >> qubits) & 1
    zrows = (np.array([w.z for w in duals], dtype=np.int64)[:, None] >> qubits) & 1
    z = (bits @ zrows) & 1
    upper = zrows * (qubits[:, None] < qubits)  # z_a[h] for a < h
    phase = (bits @ [w.phase for w in duals] + 2 * ((bits @ upper) * bits).sum(-1)) & 3
    b = (-phases(parents, bits) - phase - 2 * (bits * z).sum(-1)) & 3
    return x, z @ (1 << qubits), phase, b


def child_from_pauli_sum(
    parents: ParentBatch, duals: Sequence[PauliWord], gens: np.ndarray
) -> ChildResult:
    """rho = 2^{-n} sum_{j in J} b_j s_j for each parent of a chunk, a
    batch, with commutation asserted.

    ``gens`` (k, n - e) are the caller's ``indicator(parents)`` rows, which
    the children keep: row i is parent i's G.  Each G is in RREF, so J =
    span(G) is listed with no further elimination, and every J of the chunk
    has the same 2^(n - e) members.
    J is closed by construction, and the x/z parts of s_j are linear in j, so
    the s_j commute pairwise iff the n - e generator words do, phases aside:
    one symplectic product of their bit rows for the whole chunk.  Since
    x(s_j) = j, member j is b_j s_j: z_j = z(s_j) and kappa_j = phase(s_j) +
    the exponent of b_j.  The terms keep the i-exponent of each b_j, which
    follows the paper's sign rule: weight-1 members get +1, anticommuting
    pairs get +-i with the sign set by which factor carries Y versus Z, and
    offsets flip every term that contains them.
    """
    n, gens = parents.n, np.asarray(gens, dtype=np.int64)
    x, z, phase, b = _pauli_terms(parents, duals, gens)
    qubits = np.arange(n)
    bits = (gens[..., None] >> qubits) & 1
    dual_z = (np.array([w.z for w in duals], dtype=np.int64)[:, None] >> qubits) & 1
    form = bits @ ((bits @ dual_z) & 1).swapaxes(1, 2)  # x(g) . z(g') over generator pairs
    if ((form ^ form.swapaxes(1, 2)) & 1).any():
        raise AssertionError("J members must commute pairwise")
    return ChildResult(parents, gens, DensityMatrix(n, x, z, phase + b), b)


def child_from_partial_trace(batch: ParentBatch) -> DensityMatrix:
    """rho(a, b) = 2^{-n} i^{p_L(a) - p_L(b)} [H a = H b] for each parent of
    a chunk, a batch, the exact partial trace of the environment, as a
    member list, with no 2^{n+e} amplitude and no row of rho built.

    With x = (a, c), a the lab and c the environment bits, p(a, c) = p_L(a) +
    p_E(c) + 2 a.B.c mod 4 (A is symmetric and x_j^2 = x_j puts 2 o.x on its
    diagonal): p_L and p_E are p on the lab and the environment block, B the
    lab-by-environment block.  In rho(a, b) = 2^{-(n+e)} sum_c i^{p(a, c) -
    p(b, c)} p_E cancels, and sum_c (-1)^{(a ^ b).B.c} = 2^e [B^T (a ^ b) = 0]
    with B^T = H, the parents' ``parity_rows``.  This holds for every symmetric
    parent, red environment nodes, environment edges and offsets included,
    whatever rank H has.  So D holds the d with H d = 0, and V[d, c] =
    i^{p_L(c ^ d) - p_L(c)} = i^{p_L(d)} (-1)^{c.A_L d}, since p_L(c ^ d) =
    p_L(c) + p_L(d) + 2 c.A_L d mod 4 for the lab block A_L of A, its
    diagonal included: z_d = A_L d and kappa_d = p_L(d), read at D only.  D
    comes from one scan of the 2^n syndromes H c per parent, one doubling
    per qubit, and the dense cap counts the chunk's k 2^n syndromes.
    """
    n, k = batch.n, len(batch)
    check_dense(8 * k << n, f"a scan of {k} x {1 << n} lab syndromes")
    qubits = np.arange(n)
    h = batch.parity_rows().astype(np.int64)
    # [i, q]: bit m set when qubit q is in parent i's L_m, the syndrome of mask 1 << q
    holds = ((h[:, None, :] >> qubits[:, None]) & 1) @ (1 << np.arange(batch.e))
    syndromes = np.zeros((k, 1), dtype=np.int64)
    for q in range(n):  # the masks with qubit q follow those without it
        syndromes = np.concatenate((syndromes, syndromes ^ holds[:, q, None]), axis=1)
    kept = syndromes == 0
    if (kept.sum(axis=1) != kept[0].sum()).any():
        raise ValueError("the children of a chunk must share |D|")
    d = np.nonzero(kept)[1].reshape(k, -1)  # row by row, so each row ascends
    bits = (d[..., None] >> qubits) & 1
    lab = ((batch.ae[:, :n] & (1 << n) - 1).astype(np.int64)[..., None] >> qubits) & 1
    return DensityMatrix(n, d, ((bits @ lab) & 1) @ (1 << qubits), phases(batch, bits))


def stabilized_by(rho: DensityMatrix, gens: Sequence[PauliWord]) -> np.ndarray:
    """Child by child, w rho w^dag = rho for every w in ``gens``: w = i^k
    X^x Z^z sends member d's row to (-1)^{z.d + x.z_d} times itself, so
    this holds iff z.d + x.z_d = 0 for every member and every w, one
    symplectic product over the chunk."""
    for w in gens:
        if w.n != rho.n:
            raise DimensionError(f"qubit counts differ: {w.n} != {rho.n}")
    x = np.array([w.x for w in gens], dtype=np.int64)
    z = np.array([w.z for w in gens], dtype=np.int64)
    moved = _parity_array((rho.offsets[..., None] & z) ^ (rho.z[..., None] & x))
    return ~moved.any(axis=(1, 2))


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
    gens = indicator(parents)
    n = parents.n
    size = chunk_len(n, 1)
    children = _joined([child_from_pauli_sum(parents[s:s + size], g_duals, gens[s:s + size])
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

    def cat(items, field: str) -> np.ndarray:
        return np.concatenate([getattr(item, field) for item in items])

    batches, rhos = [c.parents for c in parts], [c.rho for c in parts]
    parents = ParentBatch(batches[0].n, batches[0].e,
                          cat(batches, "ae"), cat(batches, "offsets"), cat(batches, "xcols"))
    rho = DensityMatrix(rhos[0].n, cat(rhos, "offsets"), cat(rhos, "z"), cat(rhos, "kappa"))
    return ChildResult(parents, cat(parts, "gens"), rho, cat(parts, "b"))


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
        denom = lcm(denom, w.denominator * (1 << c.denom_log2))
    re = np.zeros((dim, dim), dtype=object)
    im = np.zeros((dim, dim), dtype=object)
    for w, c in zip(ws, children):
        if c.dim != dim:
            raise DimensionError("children must share a dimension")
        scale = w.numerator * denom // (w.denominator * (1 << c.denom_log2))
        mat = c.dense(0)
        re += mat.re.astype(object) * scale
        im += mat.im.astype(object) * scale
    return RationalMatrix(re, im, denom)
