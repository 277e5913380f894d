from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import FrozenSet, List, Optional, Tuple

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import mgstate.cli
from mgstate.extension import (
    ExtensionError,
    ParentBatch,
    phases,
    verify_full_commutation,
)
from mgstate.f2 import (
    BinMatrix,
    bits_of,
    combine,
    combine_table,
    kernel,
    mask_dtype,
    mask_of,
    parity,
    rref,
    span,
    symplectic_basis,
)
from mgstate.graphs import MixedGraph
from mgstate.pauli import (
    DimensionError,
    GaussianMatrix,
    PauliWord,
    _parity_array,
    check_dense,
    dense_conjugation,
    i_power,
    state_index,
    word_rows,
)
from mgstate.states import DensityMatrix, child_from_pauli_sum, chunk_len
from mgstate.subgroups import IsotropicSubspace, SubgroupBatch

K_I = np.eye(2, dtype=complex)
K_X = np.array([[0, 1], [1, 0]], dtype=complex)
K_Z = np.array([[1, 0], [0, -1]], dtype=complex)
K_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
KRON = {"I": K_I, "X": K_X, "Z": K_Z, "Y": K_Y}


def kron_letters(letters: str, phase: complex = 1) -> np.ndarray:
    """Independent dense oracle: plain numpy Kronecker product."""
    out = np.array([[1]], dtype=complex)
    for c in letters:
        out = np.kron(out, KRON[c])
    return phase * out


def word_to_complex(w: PauliWord) -> np.ndarray:
    m = w.to_dense()
    return (m.re + 1j * m.im) / 2**m.denom_log2


def gm_to_complex(m: GaussianMatrix) -> np.ndarray:
    return (m.re + 1j * m.im) / 2**m.denom_log2


def rho_to_complex(rho) -> np.ndarray:
    return gm_to_complex(rho.dense(0))


# ---- exact value semantics of dense renderings, which only the tests compare ----


def normalized(m: GaussianMatrix) -> GaussianMatrix:
    """m with the smallest possible denominator.  The OR of all entries has
    the fewest trailing zeros of any entry (two's complement keeps a
    negative entry's), so one pass finds the shift."""
    d, bits = m.denom_log2, int(np.bitwise_or.reduce(m.re | m.im, axis=None))
    s = min(d, (bits & -bits).bit_length() - 1) if bits else d
    return GaussianMatrix(m.re >> s, m.im >> s, d - s) if s else m


def same_matrix(a: GaussianMatrix, b: GaussianMatrix) -> bool:
    """Equal exact values, whatever the denominators."""
    a, b = normalized(a), normalized(b)
    same = a.denom_log2 == b.denom_log2
    return same and np.array_equal(a.re, b.re) and np.array_equal(a.im, b.im)


def matmul(a: GaussianMatrix, b: GaussianMatrix) -> GaussianMatrix:
    """The exact product a b."""
    assert a.dim == b.dim, "matrix dimensions differ"
    re = a.re @ b.re - a.im @ b.im
    im = a.re @ b.im + a.im @ b.re
    return GaussianMatrix(re, im, a.denom_log2 + b.denom_log2)


def same_children(a: DensityMatrix, b: DensityMatrix) -> bool:
    """Equality of whole chunks of member lists: the same n, D, z and kappa."""
    return (a.n, a.offsets.shape) == (b.n, b.offsets.shape) and bool(a.agrees_with(b).all())


def pauli_sum(n: int, terms) -> GaussianMatrix:
    """Dense oracle for the sum over (w, k) of i^k w, scattered with
    ``np.add.at``: w's nonzero entries sit at the qubit masks (c ^ x, c),
    state indices (index[c ^ x], index[c]), and equal i^(phase + k + 2
    z.c), and terms that share an x add up."""
    check_dense(16 << 2 * n, f"a dense rendering of {n} qubits")
    dim, index = 1 << n, state_index(n)
    cols = np.arange(dim, dtype=np.int64)
    xs = np.array([w.x for w, _ in terms], dtype=np.int64)
    zs = np.array([w.z for w, _ in terms], dtype=np.int64)
    ks = np.array([w.phase + k for w, k in terms], dtype=np.int64)
    flat = (index[xs[:, None] ^ cols] * dim + index).ravel()
    re_part, im_part = i_power(ks[:, None] + 2 * _parity_array(zs[:, None] & cols))
    re = np.zeros(dim * dim, dtype=np.int64)
    im = np.zeros(dim * dim, dtype=np.int64)
    np.add.at(re, flat, re_part.ravel())
    np.add.at(im, flat, im_part.ravel())
    return GaussianMatrix(re.reshape(dim, dim), im.reshape(dim, dim), 0)


def divided_by_pow2(m: GaussianMatrix, extra: int) -> GaussianMatrix:
    return GaussianMatrix(m.re, m.im, m.denom_log2 + extra)


def layout_of(m: GaussianMatrix) -> Layout:
    """m in the XOR-offset layout, a chunk of one, on the offsets where it
    has a nonzero entry: V[d, c] = m[index[c ^ d], index[c]] over qubit
    masks d and c."""
    dim = m.dim
    index = state_index(dim.bit_length() - 1)
    cols = np.arange(dim)
    rows = cols[:, None] ^ cols  # rows[d, c] = c ^ d
    num = np.stack((m.re[index[rows], index], m.im[index[rows], index]))
    keep = np.flatnonzero(num.any(axis=(0, 2)))
    return Layout(dim.bit_length() - 1, keep[None], num[None, :, keep], m.denom_log2)


def members_of(m: GaussianMatrix) -> DensityMatrix:
    """m as a member list, a chunk of one: each nonzero XOR-offset row d
    read as i^kappa_d (-1)^{z_d.c} / 2^n, kappa_d from column 0 and bit q of
    z_d from column 1 << q.  A matrix not of that form raises ValueError."""
    layout = layout_of(m)
    n, shift = layout.n, m.denom_log2 - layout.n
    if shift < 0:
        raise ValueError("entries of modulus 2^-n need a denominator of at least 2^n")
    rows = layout.num[0, 0].astype(np.int64) + 1j * layout.num[0, 1]
    kappa = np.rint(np.angle(rows[:, 0]) / (np.pi / 2)).astype(np.int64)
    z = (rows[:, 1 << np.arange(n)] != rows[:, :1]) @ (1 << np.arange(n))
    members = DensityMatrix(n, layout.offsets, z[None], kappa[None])
    if not np.array_equal(members.num[0].astype(np.int64) << shift, layout.num[0]):
        raise ValueError("a row is not a signed character of modulus 2^-n")
    return members


def conjugate_dense(m: GaussianMatrix, w: PauliWord) -> GaussianMatrix:
    """Dense oracle for w m w^dag: every row and column of m permuted by
    ``dense_conjugation`` and multiplied by the full 4^n sign matrix."""
    perm, flip = dense_conjugation(w, m.dim)
    signs = np.outer(flip, flip)
    return GaussianMatrix(
        m.re.take(perm, 0).take(perm, 1) * signs,
        m.im.take(perm, 0).take(perm, 1) * signs,
        m.denom_log2,
    )


def conjugated(rho: DensityMatrix, w: PauliWord) -> DensityMatrix:
    return members_of(conjugate_dense(rho.dense(0), w))


def random_word(rng, n: int) -> PauliWord:
    return PauliWord(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(4))


@pytest.fixture
def rng():
    import random

    return random.Random(20240811)


# ---- the layout routes and checks that the member lists replaced, kept as their oracle ----


@dataclass(frozen=True, eq=False)
class Layout:
    """A chunk of k children in the XOR-offset layout: child i has
    rho_i[c ^ offsets[i, k], c] = (num[i, 0] + i num[i, 1])[k, c] /
    2^denom_log2, zero off its ascending row ``offsets[i]``.  Each check
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

    @classmethod
    def of(cls, rho: DensityMatrix) -> Layout:
        """A chunk of member lists as the layout ``word_rows`` renders."""
        return cls(rho.n, rho.offsets, rho.num, rho.n)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def __len__(self) -> int:
        return len(self.offsets)

    def __getitem__(self, part: slice) -> Layout:
        return Layout(self.n, self.offsets[part], self.num[part], self.denom_log2)

    def dense(self, i: int) -> GaussianMatrix:
        return GaussianMatrix.from_offsets(self.offsets[i], self.num[i], self.denom_log2)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return (self.n, self.denom_log2) == (other.n, other.denom_log2) and np.array_equal(
            self.offsets, other.offsets) and np.array_equal(self.num, other.num)

    def agrees_with(self, other: Layout) -> np.ndarray:
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
        entry (d, c ^ d)."""
        k, _, size, dim = self.num.shape
        starts = np.arange(k * size).reshape(k, size, 1) * dim  # of each row in a flat plane
        pair = starts + (self.offsets[..., None] ^ np.arange(dim))
        re, im = self.num[:, 0], self.num[:, 1]
        return ((re.take(pair) == re) & (im.take(pair) == -im)).all(axis=(1, 2))

    def is_pure(self) -> bool:
        """rho^2 = rho for a chunk of one, on the dense matrix."""
        mat = self.dense(0)
        return same_matrix(matmul(mat, mat), mat)

    def purity(self) -> list:
        """Child by child, the exact sum of the squares over the layout."""
        num = self.num.astype(np.int64)
        top = max(abs(int(num.max())), abs(int(num.min()))) if num.size else 0
        if num[:1].size * top * top >= 1 << 63:  # int64 could overflow: use Python ints
            num = num.astype(object)
        denom = 1 << (2 * self.denom_log2)
        return [Fraction(int(total), denom) for total in (num * num).sum(axis=(1, 2, 3))]


def layout_stabilized_by(rho: Layout, gens) -> np.ndarray:
    """Child by child, w rho w^dag = rho for every w in ``gens``, on the
    layout: V'[d, c] = (-1)^{z.d} V[d, c ^ x], one take per generator."""
    ok = np.ones(len(rho), dtype=bool)
    cols = np.arange(rho.dim)
    for w in gens:
        if w.n != rho.n:
            raise DimensionError(f"qubit counts differ: {w.n} != {rho.n}")
        sign = (1 - 2 * _parity_array(rho.offsets & w.z)).astype(rho.num.dtype)
        moved = rho.num.take(cols ^ w.x, axis=3) * sign[:, None, :, None]
        ok &= (moved == rho.num).all(axis=(1, 2, 3))
    return ok


def layout_partial_trace(parents) -> Layout:
    """V[d, c] = i^{p_L(c ^ d) - p_L(c)} on the d with H d = 0, for each
    parent of a chunk: the partial-trace route on whole rows."""
    batch = batch_of(parents)
    n, k = batch.n, len(batch)
    cols = np.arange(1 << n)
    lab = (cols[:, None] >> np.arange(n)) & 1  # row: a lab mask, column q: qubit q
    h = batch.parity_rows().astype(np.int64)
    h_t = (h[:, None, :] >> np.arange(n)[:, None]) & 1  # [i, q, m]: qubit q in parent i's L_m
    kept = ~((lab @ h_t) & 1).any(axis=-1)
    assert (kept.sum(axis=1) == kept[0].sum()).all(), "the children of a chunk must share |D|"
    d = np.nonzero(kept)[1].reshape(k, -1)
    check_dense(8 * d.size << n, f"child layouts of {k} x {d.shape[1]} x {1 << n} entries")
    p_lab = phases(batch, lab)
    rows = (d[:, :, None] ^ cols) + (np.arange(k) << n)[:, None, None]  # into p_lab.ravel()
    num = i_power(p_lab.ravel()[rows] - p_lab[:, None, :])
    return Layout(n, d, np.moveaxis(num, 0, 1), n)


def layout_check_children(children, rows, check=mgstate.cli._require) -> None:
    """``cli._check_children`` on the routes' rendered layouts, with the
    layout checks: the oracle of the member-list identities.  Route 2 is
    whatever ``cli.child_from_partial_trace`` is, rendered."""
    n, e = children.rho.n, children.parents.e
    size = chunk_len(n, e)
    for start in range(0, len(children), size):
        chunk = children[start:start + size]
        rho, parents = Layout.of(chunk.rho), chunk.parents
        traced = Layout.of(mgstate.cli.child_from_partial_trace(parents))

        def where(i):
            p = parents_of(parents[i:i + 1])[0]
            return f"parent {p.ae.row_strings()} offsets {sorted(p.lab_offsets)}"

        verdicts = [
            ("pauli-sum-vs-partial-trace", rho.agrees_with(traced), where),
            ("child-stabilized", layout_stabilized_by(rho, rows), where),
            ("child-trace-one", rho.trace_is_one(), lambda i: "trace != 1"),
            ("child-hermitian", rho.is_hermitian(), lambda i: "rho not Hermitian"),
        ]
        if e >= 1:
            purity, want = rho.purity(), Fraction(1, 1 << e)
            verdicts.append(("child-mixed", [v == want for v in purity],
                             lambda i: f"purity {purity[i]} != {want}"))
        for i in range(len(chunk)):
            for name, ok, reproducer in verdicts:
                check(name, bool(ok[i]), "" if ok[i] else reproducer(i))


# ---- the per-child routes and checks that the chunked ones replaced, kept as their oracle ----


@dataclass(frozen=True, eq=False)
class OneChild:
    """One child in the XOR-offset layout, built and checked on its own:
    rho[c ^ offsets[k], c] = (num[0] + i num[1])[k, c] / 2^denom_log2."""

    n: int
    offsets: np.ndarray
    num: np.ndarray
    denom_log2: int

    def trace_is_one(self) -> bool:
        has_diagonal = len(self.offsets) > 0 and int(self.offsets[0]) == 0
        return has_diagonal and self.num[:, 0].sum(axis=1).tolist() == [1 << self.denom_log2, 0]

    def is_hermitian(self) -> bool:
        pair = self.offsets[:, None] ^ np.arange(1 << self.n)
        conj = self.num * np.array([[[1]], [[-1]]], dtype=self.num.dtype)
        return np.array_equal(np.take_along_axis(self.num, pair[None], 2), conj)

    def purity(self) -> Fraction:
        num = self.num.astype(np.int64)
        return Fraction(int((num * num).sum()), 1 << (2 * self.denom_log2))

    def stabilized_by(self, gens) -> bool:
        for w in gens:
            sign = (1 - 2 * _parity_array(self.offsets & w.z)).astype(self.num.dtype)[:, None]
            moved = self.num.take(np.arange(1 << self.n) ^ w.x, axis=2) * sign
            if not np.array_equal(moved, self.num):
                return False
        return True


def one_phases(p, x):
    """p(x) = x A x^T + 2 o.x mod 4 of one parent at each row of ``x``."""
    k = x.shape[1]
    rows = list(p.ae.rows[:k]) + [mask_of(p.lab_offsets | p.env_offsets)]
    low = (1 << k) - 1
    a = (np.array([r & low for r in rows], dtype=np.int64)[:, None] >> np.arange(k)) & 1
    return (((x @ a[:k]) * x).sum(axis=1) + 2 * (x @ a[k])) & 3


def one_pauli_sum(p, duals, ind):
    """The Pauli-sum child of one parent and its terms, J member -> b_j."""
    n, basis = p.n, ind[1].rows
    qubits = np.arange(n)
    x = np.array(span_of_basis(basis), dtype=np.int64)
    bits = (x[:, None] >> qubits) & 1
    zrows = (np.array([w.z for w in duals], dtype=np.int64)[:, None] >> qubits) & 1
    z = (bits @ zrows) & 1
    upper = zrows * (qubits[:, None] < qubits)
    phase = (bits @ [w.phase for w in duals] + 2 * ((bits @ upper) * bits).sum(1)) & 3
    b = (-one_phases(p, bits) - phase - 2 * (bits * z).sum(1)) & 3
    dual_z = [w.z for w in duals]
    assert verify_full_commutation([PauliWord(n, g, combine(dual_z, g), 0) for g in basis])
    rho = OneChild(n, x, word_rows(n, z @ (1 << qubits), phase + b), n)
    return rho, dict(zip(x.tolist(), b.tolist()))


def one_partial_trace(p):
    """The partial-trace child of one parent."""
    n = p.n
    lab = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    h_t = (np.array(one_parity_matrix(p).rows, np.int64) >> np.arange(n)[:, None]) & 1
    d = np.flatnonzero(~((lab @ h_t) & 1).any(axis=1))
    p_lab = one_phases(p, lab)
    return OneChild(n, d, i_power(p_lab[d[:, None] ^ np.arange(1 << n)] - p_lab), n)


# ---- the per-parent builders that the batched ones replaced, kept as their oracle ----


@dataclass(frozen=True)
class ParentExtension:
    """One graph-form parent stabilizer with sign bookkeeping, the type of
    the per-parent oracle; ``ParentBatch`` is the program's only parent.

    ``ae`` holds the symmetric adjacency of the parent graph including the
    diagonal colour bits (1 = red/Y).  ``lab_offsets`` are lab rows whose
    actual stabilizer carries a -1 sign, i.e. the o of the 2 o.x term of
    ``phases``; ``env_offsets`` are the same for environment rows
    (these never change the child).  ``symmetrize`` leaves ``env_offsets``
    empty, so only a hand-built parent sets it.  ``ext_assign`` records the
    extension columns the graph form was written from, one (x, z) pair of
    lab bit masks per column.  Its rows X_j Z^{A_j} commute iff ``ae`` is
    symmetric.
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


def batch_of(parents) -> ParentBatch:
    """``parents`` as a batch, itself if it is one.  They must share n and
    e; a hand-built parent without ``ext_assign`` gets X masks 0."""
    if isinstance(parents, ParentBatch):
        return parents
    n, e = parents[0].n, parents[0].e
    if any((p.n, p.e) != (n, e) for p in parents):
        raise ValueError("the parents of a batch must share n and e")
    word, k = mask_dtype(n + e), len(parents)
    return ParentBatch(
        n, e, np.array([p.ae.rows for p in parents], dtype=word).reshape(k, n + e),
        np.array([mask_of(p.lab_offsets | p.env_offsets) for p in parents], dtype=word),
        np.array([[x for x, _ in p.ext_assign or ((0, 0),) * e] for p in parents],
                 dtype=word).reshape(k, e),
    )


def parents_of(batch: ParentBatch) -> List[ParentExtension]:
    """Each row of a batch as a ``ParentExtension``: offsets below n are lab
    rows, the others environment rows."""
    n, e, out = batch.n, batch.e, []
    for ae, offsets, xcols in zip(batch.ae.tolist(), batch.offsets.tolist(), batch.xcols.tolist()):
        signed = bits_of(offsets)
        out.append(ParentExtension(
            n, e, BinMatrix(tuple(ae), n + e),
            frozenset(j for j in signed if j < n), frozenset(j for j in signed if j >= n),
            tuple(zip(xcols, ae[n:])),
        ))
    return out


def one_gens(parents) -> np.ndarray:
    """The oracle's G rows of each parent, (k, n - e): the
    ``child_from_pauli_sum`` input that ``indicator`` gives."""
    gens = [one_indicator(p)[1].rows for p in parents]
    return np.array(gens, dtype=np.int64).reshape(len(parents), -1)


def pauli_sum_of(parents, duals):
    """``child_from_pauli_sum`` of per-parent oracle parents, with the
    oracle's G rows."""
    return child_from_pauli_sum(batch_of(parents), duals, one_gens(parents))


def subgroup_batch_of(subs) -> SubgroupBatch:
    """``subs``, ``IsotropicSubspace``s, as a batch, itself if it is one.
    They must share a reduction and a dimension."""
    if isinstance(subs, SubgroupBatch):
        return subs
    red = subs[0].reduction
    if any(s.reduction != red for s in subs):
        raise ValueError("the subgroups of a batch must share a reduction")
    if len({(len(s.basis), len(s.lifted_basis)) for s in subs}) > 1:
        raise ValueError("the subgroups of a batch must share a dimension")
    k, word = len(subs), mask_dtype(red.n)
    return SubgroupBatch(red, np.array([s.basis for s in subs], dtype=word).reshape(k, -1),
                         np.array([s.lifted_basis for s in subs], dtype=word).reshape(k, -1))


def one_parity_matrix(p):
    """H of one parent: the environment rows of ``ae`` on the lab bits."""
    lab = (1 << p.n) - 1
    return BinMatrix(tuple(r & lab for r in p.ae.rows[p.n:]), p.n)


def one_parity_basis(sub):
    """Canonical (RREF) parity-check matrix whose kernel is the lifted span."""
    return kernel(BinMatrix(sub.lifted_basis, sub.reduction.n))


def one_greedy_columns(gamma, h):
    """The greedy column assignment of one parity matrix: the x masks of
    the columns, or None when a column's internal constraints are
    inconsistent."""
    cur = list(gamma.rows)
    xcols = []
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


def one_closed_form_columns(gamma, h):
    """The x masks of the columns that an F2 solve of X H + (X H)^T = Gamma
    returns for one parity matrix: the particular solution reduced against
    the basis of {H^T S} RREF'd from the highest variable j*e + m down."""
    n, e = gamma.cols, h.nrows
    pivots = [(r & -r).bit_length() - 1 for r in h.rows]
    cols = []
    for m, pm in enumerate(pivots):
        col = gamma.rows[pm]
        for k in range(m):
            if gamma.get(pivots[k], pm):
                col ^= h.rows[k]
        cols.append(col)

    def flat(columns):
        return sum(1 << (j * e + m) for m, col in enumerate(columns) for j in bits_of(col))

    basis = []  # (highest bit, vector), fully reduced
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


def one_symmetrize(stabilizer, columns):
    """The graph form of the lab rows extended by one set of (x, z) columns."""
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


def one_extend_for_subgroup(g, sub, stabilizer):
    """The parent of one subgroup: greedy columns, else the closed form."""
    if not g.has_gamma(sub.reduction.gamma):
        raise ExtensionError("subgroup does not come from the graph's Gamma")
    e = sub.reduction.e
    h = one_parity_basis(sub)
    if h.nrows != e:
        raise ExtensionError(f"subgroup parity matrix has {h.nrows} rows, expected e = {e}")
    gamma = sub.reduction.gamma
    xcols = one_greedy_columns(gamma, h) or one_closed_form_columns(gamma, h)
    return one_symmetrize(stabilizer, zip(xcols, h.rows))


def one_meets_extension_condition(gamma, columns):
    """X H + (X H)^T = Gamma for one parent's (x, z) columns."""
    form = [0] * gamma.cols
    for x, z in columns:  # the rows of X H, then of (X H)^T
        for j in bits_of(x):
            form[j] ^= z
        for j in bits_of(z):
            form[j] ^= x
    return tuple(form) == gamma.rows


def one_indicator(p):
    """(L sets, G, H) of one parent: G the RREF kernel of its H."""
    h = one_parity_matrix(p)
    gmat = kernel(h)
    if gmat.nrows != p.n - p.e:
        raise ExtensionError("parity matrix is rank deficient; extension not minimal")
    return [tuple(bits_of(r)) for r in h.rows], gmat, h


# ---- the list-based helpers that array passes replaced, kept as their oracle ----


def span_of_basis(basis):
    """All vectors in the span of independent rows, sorted ascending."""
    vecs = [0]
    for b in basis:
        vecs += [v ^ b for v in vecs]
    return sorted(vecs)


def reversed_graph(g):
    """g with every directed edge turned around."""
    return MixedGraph(g.n, g.red, g.undirected, frozenset((k, j) for j, k in g.directed))


def lift_by_bits(red, x):
    """The lift as a bit loop: bit j of the reduced vector x goes to kept[j]."""
    v = 0
    for new_j, j in enumerate(red.kept):
        if (x >> new_j) & 1:
            v |= 1 << j
    return v


def lifted_subspaces(red, bases):
    """Each sorted RREF basis with its lift through the kernel of Gamma."""
    out = []
    for basis in sorted(bases):
        lifted = [lift_by_bits(red, b) for b in basis] + list(red.kernel_basis)
        out.append(IsotropicSubspace(red, basis, tuple(rref(lifted, red.n)[0])))
    return out


def enumerate_level_by_level(red):
    """Reference enumerator: grow isotropic subspaces one vector at a time.

    Every level scans all 2^{2e} vectors against every partial basis and
    deduplicates by RREF, so it is exponential in 2e; used for e <= 3.
    """
    m = red.n - red.t
    gt = red.gamma_tilde
    gt_images = [gt.mul_vec(v) for v in range(1 << m)]
    level = {()}
    for _ in range(red.e):
        nxt = set()
        for basis in level:
            spset = set(span(list(basis), m))
            for v in range(1, 1 << m):
                if v in spset or any(parity(gt_images[v] & u) for u in basis):
                    continue
                reduced, _ = rref(list(basis) + [v], m)
                nxt.add(tuple(reduced))
        level = nxt
    return lifted_subspaces(red, level)


def enumerate_pair_by_pair(red):
    """Reference enumerator: the pair-by-pair recursion over Python lists,
    one RREF per Lagrangian and level, then one per subspace, and a sort of
    tuples.  Each Lagrangian L of the span W of the pairs used so far gives
    span(a) + L and, for each alpha and each coset representative w of L in
    W (sums of unit vectors at the non-pivot columns of L's RREF),
    span(b + alpha a + w) + {u + omega(w, u) a : u in L}."""
    m = red.n - red.t
    pairs, _ = symplectic_basis(red.gamma_tilde)
    # pair coordinates: bit 2i is a_i, bit 2i + 1 is b_i
    evens = sum(1 << (2 * i) for i in range(len(pairs)))

    def omega(x, y):
        return parity((((x & evens) << 1) | ((x >> 1) & evens)) & y)

    lagrangians = [[]]
    for i in reversed(range(len(pairs))):
        a, b = 1 << (2 * i), 1 << (2 * i + 1)
        grown = []
        for lag in lagrangians:
            grown.append([a] + lag)
            _, pivots = rref(lag, m)
            free = [1 << j for j in range(2 * i + 2, m) if j not in pivots]
            for w in span_of_basis(free):
                tail = [u ^ (a if omega(w, u) else 0) for u in lag]
                grown.append([b ^ w] + tail)
                grown.append([b ^ a ^ w] + tail)
        lagrangians = grown
    image = combine_table([pair[k] for pair in pairs for k in (0, 1)])
    return lifted_subspaces(red, [tuple(rref([image[x] for x in lag], m)[0]) for lag in lagrangians])
