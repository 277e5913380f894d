from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mgstate.extension import verify_full_commutation
from mgstate.f2 import combine, mask_of, span_of_basis
from mgstate.pauli import (
    GaussianMatrix,
    PauliWord,
    _parity_array,
    check_dense,
    dense_conjugation,
    i_power,
    state_index,
    word_rows,
)
from mgstate.states import DensityMatrix

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


def rho_to_complex(rho: DensityMatrix) -> np.ndarray:
    return gm_to_complex(rho.mat)


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


def layout_of(m: GaussianMatrix) -> DensityMatrix:
    """m in the XOR-offset layout, a chunk of one, on the offsets where it
    has a nonzero entry: V[d, c] = m[index[c ^ d], index[c]] over qubit
    masks d and c."""
    dim = m.dim
    index = state_index(dim.bit_length() - 1)
    cols = np.arange(dim)
    rows = cols[:, None] ^ cols  # rows[d, c] = c ^ d
    num = np.stack((m.re[index[rows], index], m.im[index[rows], index]))
    keep = np.flatnonzero(num.any(axis=(0, 2)))
    return DensityMatrix(dim.bit_length() - 1, keep[None], num[None, :, keep], m.denom_log2)


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
    return layout_of(conjugate_dense(rho.mat, w))


def random_word(rng, n: int) -> PauliWord:
    return PauliWord(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(4))


@pytest.fixture
def rng():
    import random

    return random.Random(20240811)


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
    h_t = (np.array(p.parity_matrix().rows, np.int64) >> np.arange(n)[:, None]) & 1
    d = np.flatnonzero(~((lab @ h_t) & 1).any(axis=1))
    p_lab = one_phases(p, lab)
    return OneChild(n, d, i_power(p_lab[d[:, None] ^ np.arange(1 << n)] - p_lab), n)
